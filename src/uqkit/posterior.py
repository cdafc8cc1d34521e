"""Posterior approximations over MLP weights.

Five approximations share one training substrate: a point estimate found
by penalized maximum likelihood (``map_fit``), deep ensembles of such
estimates, SWAG moments collected post-hoc along the optimization
trajectory, a diagonal generalized Gauss-Newton Laplace approximation
around the point estimate, and a mean-field Gaussian fitted by
reparameterized stochastic gradients (``advi_fit``).

All fits are bit-reproducible per seed: mini-batch order is keyed by
(seed, epoch), ensemble members and Monte Carlo noise use derived child
streams, and every array is 64-bit.

Every gradient fit runs one training loop, ``_train``, over an ``(S, P)``
stack of iterates: S lanes of the same shape (layer sizes, row count,
optimizer settings) take each step together, one stacked forward and
backward pass and one Adam update for all of them. Lane s is row s of
the stack for the whole fit, with its own batch stream, trace and
divergence flag; a diverged lane's row freezes at its last finite
iterate while the others go on. No operation mixes rows, so each lane
equals its solo fit (S = 1) bit for bit.
``map_fit`` and ``swag_fit`` take lists to fit lanes together (the
benchmark's seeds), and ``ensemble_fit`` trains its members that way.
"""

from __future__ import annotations

import base64
import math
import warnings
from dataclasses import dataclass, fields, replace
from itertools import islice

import numpy as np

from .data import CLASSIFICATION, REGRESSION, Dataset, batches, fault_lines, read_json
from .data import schema_faults, write_json
from .errors import DataError
from .mlp import MODEL_SCHEMA, MlpConfig, init_params, mlp_activations, mlp_backward, mlp_forward
from .mlp import param_count, unpack_params
from .numerics import softmax
from .rng import Rng, child_seed

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_STD_FLOOR = -100.0  # sampling floor for mean-field log stds
# bounds a normals call of posterior_sample or an ADVI fit, and its temporaries
_SAMPLE_NORMALS = 1 << 14
# Adam's moment decays and denominator floor
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class OptimConfig:
    algorithm: str = "adam"
    learning_rate: float = 1e-3
    epochs: int = 300
    batch_size: int = 32
    weight_decay: float = 0.0  # Gaussian prior precision divided by n
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.algorithm!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")


@dataclass(frozen=True)
class MapState:
    theta: np.ndarray


@dataclass(frozen=True)
class EnsembleState:
    members: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError("an ensemble needs at least 2 members")


@dataclass(frozen=True)
class SwagState:
    mean: np.ndarray
    diag_second_moment: np.ndarray
    deviations: np.ndarray  # (P, rank), oldest column first
    rank: int
    snapshots: int

    def __post_init__(self):
        if self.snapshots < self.rank:
            raise ValueError("snapshots must be at least the rank")


@dataclass(frozen=True)
class LaplaceState:
    mode: np.ndarray
    diag_precision: np.ndarray

    def __post_init__(self):
        if np.any(self.diag_precision <= 0):
            raise ValueError("diag_precision must be strictly positive")


@dataclass(frozen=True)
class AdviState:
    mean: np.ndarray
    log_std: np.ndarray


PosteriorState = MapState | EnsembleState | SwagState | LaplaceState | AdviState


@dataclass(frozen=True)
class FitResult:
    state: object
    trace: tuple[float, ...]
    diverged: bool = False
    member_traces: tuple[tuple[float, ...], ...] = ()


# ---------------------------------------------------------------------------
# losses: one explicit forward/backward pass (a taped copy in the tests is
# the oracle these equal bit for bit)

def _head_fault(cfg: MlpConfig, task: str) -> str | None:
    """What keeps ``cfg`` from serving ``task``, or None: a regression model
    outputs one (mean, log-variance) pair. Fits and the state loader both
    check it."""
    if task == REGRESSION and cfg.output_dim != 2:
        return ("regression models output a (mean, log-variance) pair, "
                f"so output_dim must be 2, got {cfg.output_dim}")
    return None


def _check_head(cfg: MlpConfig, ds: Dataset) -> None:
    if ds.d != cfg.input_dim:
        raise ValueError(
            f"dataset has {ds.d} features but the model expects {cfg.input_dim}"
        )
    if ds.task == CLASSIFICATION and ds.n_classes > cfg.output_dim:
        raise ValueError(
            f"dataset has labels up to {ds.n_classes - 1} but the model "
            f"has only {cfg.output_dim} outputs"
        )
    if fault := _head_fault(cfg, ds.task):
        raise ValueError(fault)


def _nll_head(out: np.ndarray, targets, task: str, scale: float | None = None):
    """Mean NLL of the raw outputs ``out`` and, when ``scale`` is given,
    ``scale`` times its gradient in ``out`` (else None).

    ``out`` is ``(..., n, K)`` and ``targets`` ``(..., n)``: leading axes
    are lanes, each with its own mean. The one loss head: every
    floating-point operation is the tape's, in the tape's order, so the
    value and gradient equal the taped loss in the tests bit for bit.
    """
    n = out.shape[-2]
    if task == CLASSIFICATION:
        # the lanes' rows as one (rows, K) matrix, for the per-row scatters
        rows = np.arange(out.size // out.shape[-1])
        labels = np.asarray(targets, dtype=np.int64).ravel()
        onehot = np.zeros(out.shape)
        onehot.reshape(len(rows), -1)[rows, labels] = 1.0
        m = out.max(axis=-1)
        e = np.exp(out - m[..., None])
        s = e.sum(axis=-1)
        loss = (m + np.log(s) - (out * onehot).sum(axis=-1)).sum(axis=-1) / n
        if scale is None:
            return loss, None
        g = scale / n
        grad_out = (g / s)[..., None] * e
        g_max = g - grad_out.sum(axis=-1)
        flat = grad_out.reshape(len(rows), -1)
        flat[rows, labels] -= g
        flat[rows, out.argmax(axis=-1).ravel()] += g_max.ravel()
        return loss, grad_out
    mu, log_var = out[..., 0], out[..., 1]
    resid = np.asarray(targets, dtype=np.float64) - mu
    rr = resid * resid
    e = np.exp(-log_var)
    loss = 0.5 * (log_var + rr * e + _LOG_2PI).sum(axis=-1) / n
    if scale is None:
        return loss, None
    g = scale / n * 0.5
    g_rr = g * e
    grad_out = np.empty(out.shape)
    grad_out[..., 0] = -(g_rr * resid + g_rr * resid)
    grad_out[..., 1] = g - (g * rr) * e
    grad_out += 0.0
    return loss, grad_out


def _nll_pass(cfg: MlpConfig, task: str):
    """``value_and_grad(theta, inputs, targets, scale=1.0)``: the mean data
    NLL over a batch and ``scale`` times its gradient, by the library's one
    forward/backward composition. An ``(S, P)`` stack of parameter vectors
    with ``(S, n, d)`` inputs gives ``(S,)`` losses and ``(S, P)``
    gradients, one per lane. Each parameter buffer is unpacked once and the
    outputs go to buffers the pass owns, so a call overwrites the gradient
    the last call of its shape returned."""
    views: dict = {}  # id of a parameter buffer -> (buffer, its unpacked views)
    acts: dict = {}  # batch shape -> one output buffer per layer
    grads: dict = {}  # parameter shape -> gradient buffer

    def value_and_grad(theta, inputs, targets, scale=1.0):
        if id(theta) not in views:
            views[id(theta)] = theta, unpack_params(cfg, theta)
        layers = views[id(theta)][1]
        if inputs.shape not in acts:
            acts[inputs.shape] = [np.empty((*inputs.shape[:-1], w.shape[-1])) for w, _ in layers]
        if theta.shape not in grads:
            grads[theta.shape] = np.empty(theta.shape)
        hs = list(mlp_activations(cfg, layers, inputs, acts[inputs.shape]))
        loss, grad_out = _nll_head(hs[-1], targets, task, scale)
        return loss, mlp_backward(cfg, layers, hs, grad_out, out=grads[theta.shape])

    return value_and_grad


# ---------------------------------------------------------------------------
# optimizer steps and the training loop

class _Optimizer:
    """Adam or plain SGD over an ``(S, P)`` stack of flat vectors, one lane
    per row; the moments and the update live on the instance, in place."""

    def __init__(self, opt: OptimConfig, shape: tuple[int, int]):
        self.opt = opt
        self.t = 0
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.buf = np.empty(shape)
        self.update = np.empty(shape)

    def step(self, theta: np.ndarray, grad: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The next iterates, written into ``out`` and returned."""
        o = self.opt
        m, v, buf, update = self.m, self.v, self.buf, self.update
        if o.algorithm == "sgd":
            return np.subtract(theta, np.multiply(grad, o.learning_rate, out=update), out=out)
        self.t += 1
        # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g;  the step is
        # (lr m_hat) / (sqrt(v_hat) + eps): the textbook order, in place
        m *= _ADAM_BETA1
        m += np.multiply(grad, 1.0 - _ADAM_BETA1, out=buf)
        v *= _ADAM_BETA2
        np.multiply(grad, 1.0 - _ADAM_BETA2, out=buf)
        v += np.multiply(buf, grad, out=buf)
        denom = np.sqrt(np.divide(v, 1.0 - _ADAM_BETA2**self.t, out=buf), out=buf)
        denom += _ADAM_EPS
        np.divide(m, 1.0 - _ADAM_BETA1**self.t, out=update)
        update *= o.learning_rate
        update /= denom
        return np.subtract(theta, update, out=out)


def _n_batches(n: int, batch_size: int) -> int:
    return (n + batch_size - 1) // batch_size


def _train(objective, x0, trains, seeds, opt, epoch_values, on_step=None):
    """The mini-batch loop every gradient fit runs, over S lanes at once.

    Lane s is row s of the ``(S, P)`` stack ``x`` for the whole fit, from
    row s of ``x0``, with batches from ``trains[s]`` in an order keyed by
    (``seeds[s]``, epoch). Each step takes every lane's batch at once
    from ``batches`` as ``(S, b, d)`` inputs, and ``objective(x, inputs,
    targets)`` gives the ``(S,)`` batch losses and ``(S, P)`` gradients
    for one optimizer step over the stack. Then ``on_step(step, x,
    live)`` gets the 1-based step, the live stack and the live rows'
    indices; after each epoch the live lanes' traces take theirs of the S
    values ``epoch_values(x, batch_losses)``. Two ``(S, P)`` buffers hold
    the stack in turn, so the step after next overwrites it: copy what you
    keep (``SwagMoments.update`` does). The gradient may be a reused buffer.
    With ``epoch_values=None`` nothing is computed per epoch and every
    trace stays empty; the iterates are the same bit for bit.
    A lane whose loss, gradient or iterate is non-finite freezes: its row
    keeps its last finite iterate and its trace stops; the loop ends when
    every lane has frozen. No operation mixes rows, so each lane equals
    its solo fit (S = 1) bit for bit. Returns one (last finite iterate,
    trace, diverged) per lane, each iterate a copy that the lane owns.
    """
    x = np.array(x0, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("parameter vector contains non-finite entries")
    spare = np.empty_like(x)
    live = np.arange(len(x))
    frozen = np.zeros(len(x), dtype=bool)
    traces: list[list[float]] = [[] for _ in trains]
    stepper = _Optimizer(opt, x.shape)
    per_epoch = _n_batches(trains[0].n, opt.batch_size)
    stream = batches(trains, opt.batch_size, seeds, opt.epochs)
    step = 0
    # the checks below catch every non-finite value; numpy's warnings would repeat them
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(opt.epochs):
            losses: list[np.ndarray] = []
            for inputs, targets in islice(stream, per_epoch):
                loss, grad = objective(x, inputs, targets)
                new_x = stepper.step(x, grad, spare)
                # a non-finite gradient always makes a non-finite step
                ok = np.isfinite(loss) & np.isfinite(new_x).all(axis=1)
                if not ok[live].all():
                    frozen |= ~ok
                    live = np.flatnonzero(~frozen)
                    if not live.size:
                        return [(row.copy(), tuple(t), True) for row, t in zip(x, traces)]
                if live.size < len(x):
                    new_x[frozen] = x[frozen]
                x, spare = new_x, x
                losses.append(loss)
                step += 1
                if on_step is not None:
                    on_step(step, x, live)
            if epoch_values is not None:
                values = epoch_values(x, losses)
                for s in live:
                    traces[s].append(values[s])
    return [(row.copy(), tuple(trace), bool(f)) for row, trace, f in zip(x, traces, frozen)]


def _penalized_objective(cfg: MlpConfig, trains: list[Dataset], opt: OptimConfig):
    """(batch loss and gradient, full-data epoch values) of the penalized
    loss, for lanes with the datasets ``trains``: ``_nll_pass`` plus the
    ridge term, whose gradient enters as the tape adds it. The objective
    serves one ``_train`` call, and each call overwrites the gradient the
    last one returned."""
    wd, task = opt.weight_decay, trains[0].task
    nll = _nll_pass(cfg, task)
    ridges: dict = {}  # iterate shape -> ridge-term buffer

    def objective(theta, inputs, targets):
        loss, grad = nll(theta, inputs, targets)
        if wd > 0:
            # (g theta + g theta) + grad, the tape's order, through one buffer
            if theta.shape not in ridges:
                ridges[theta.shape] = np.empty(theta.shape)
            ridge, g = ridges[theta.shape], wd / 2.0
            loss = loss + g * np.multiply(theta, theta, out=ridge).sum(axis=-1)
            np.multiply(theta, g, out=ridge)
            ridge += ridge
            grad += ridge
        return loss, grad

    def epoch_values(x, _losses):
        # one lane at a time, so only one lane's full-data activations are alive
        values = []
        for theta, train in zip(x, trains):
            loss = float(_nll_head(mlp_forward(cfg, theta, train.inputs), train.targets, task)[0])
            values.append(float(loss + wd / 2.0 * np.sum(theta * theta)) if wd > 0 else loss)
        return values

    return objective, epoch_values


# ---------------------------------------------------------------------------
# fits

def _lanes(cfg, train, opt) -> tuple[list, list, list, bool]:
    """(configs, datasets, optimizer configs, solo) of a fit's arguments.

    One fit is one lane. Lists give one lane per entry; the lanes train in
    lockstep, so they must agree on all the loop shares: layer shapes,
    activation, task, row count and every optimizer setting but the seed.
    """
    solo = isinstance(train, Dataset)
    cfgs, trains, opts = ([cfg], [train], [opt]) if solo else (list(cfg), list(train), list(opt))
    shared = {
        (c.dims, c.activation, t.task, t.n, replace(o, seed=0))
        for c, t, o in zip(cfgs, trains, opts)
    }
    if len(shared) != 1 or not len(cfgs) == len(trains) == len(opts):
        raise ValueError(
            "lockstep lanes must share layer shapes, activation, task, row count "
            "and every optimizer setting but the seed"
        )
    for c, t in zip(cfgs, trains):
        _check_head(c, t)
    return cfgs, trains, opts, solo


def map_fit(cfg: MlpConfig, train: Dataset, opt: OptimConfig, trace: bool = True):
    """Penalized maximum likelihood from the seeded initialization.

    The per-epoch trace holds the full-dataset objective after each
    epoch; ``trace=False`` skips that full-data pass and leaves the trace
    empty, with the same fitted state. A non-finite loss or parameter
    aborts the run and returns the last finite parameters with
    ``diverged`` set.

    Given lists of configs, datasets and optimizer configs (one entry per
    fit) instead, it trains those fits in lockstep as lanes of one loop
    and returns a list of results, each equal bit for bit to its solo
    ``FitResult``.
    """
    cfgs, trains, opts, solo = _lanes(cfg, train, opt)
    x0 = np.stack([init_params(c) for c in cfgs])
    objective, epoch_values = _penalized_objective(cfgs[0], trains, opts[0])
    seeds = [o.seed for o in opts]
    lanes = _train(objective, x0, trains, seeds, opts[0], epoch_values if trace else None)
    results = [FitResult(MapState(theta), values, diverged=d) for theta, values, d in lanes]
    return results[0] if solo else results


def ensemble_fit(
    cfg: MlpConfig, train: Dataset, opt: OptimConfig, members: int = 5
) -> FitResult:
    """Independently seeded repetitions of ``map_fit``, trained in lockstep.

    Member m trains with init stream (init_seed, m) and batch stream
    (seed, m), so each member equals the standalone ``map_fit`` with
    those seeds.
    """
    if members < 2:
        raise ValueError("an ensemble needs at least 2 members")
    results = map_fit(
        [replace(cfg, init_seed=child_seed(cfg.init_seed, m)) for m in range(members)],
        [train] * members,
        [replace(opt, seed=child_seed(opt.seed, m)) for m in range(members)],
    )
    return FitResult(
        EnsembleState(tuple(r.state.theta for r in results)),
        trace=(),
        diverged=any(r.diverged for r in results),
        member_traces=tuple(r.trace for r in results),
    )


class SwagMoments:
    """Running snapshot moments: mean, elementwise second moment, and the
    last ``rank`` deviation columns (iterate minus the running mean after
    the update). A finite snapshot whose moments are not (its square
    overflows past ~1.3e154) sets ``diverged``; the moments stay those of
    the last finite snapshot, and later snapshots are ignored."""

    def __init__(self, dim: int, rank: int):
        self.rank = rank
        self.count = 0
        self.mean = np.zeros(dim)
        self.second = np.zeros(dim)
        self.dev_cols: list[np.ndarray] = []
        self.diverged = False

    def update(self, theta: np.ndarray) -> None:
        if self.diverged:
            return
        k = self.count + 1
        with np.errstate(over="ignore"):
            second = self.second * ((k - 1) / k) + theta**2 / k
        # a finite second moment bounds every |theta|, so the mean and the
        # deviation are finite too
        if not np.isfinite(second).all():
            self.diverged = True
            return
        self.count, self.second = k, second
        self.mean = self.mean * ((k - 1) / k) + theta / k
        self.dev_cols.append(theta - self.mean)
        if len(self.dev_cols) > self.rank:
            self.dev_cols.pop(0)

    def state(self) -> SwagState:
        cols = self.dev_cols if self.dev_cols else [np.zeros(self.mean.size)]
        return SwagState(
            mean=self.mean.copy(),
            diag_second_moment=self.second.copy(),
            deviations=np.column_stack(cols),
            rank=len(cols),
            snapshots=max(self.count, len(cols)),
        )


def swag_fit(
    start: MapState,
    cfg: MlpConfig,
    train: Dataset,
    opt: OptimConfig,
    rank: int = 20,
    snapshot_every: int | None = None,
    trace: bool = True,
):
    """Collect SWAG moments by continuing optimization from a point estimate.

    Every ``snapshot_every`` optimizer steps (default: once per epoch)
    the iterate is recorded into a running mean, a running elementwise
    second moment, and the last ``rank`` deviation columns; each column
    is the iterate minus the running mean *after* that snapshot was
    folded in. Optimizer moments restart from zero at the hand-off. The
    trace is ``map_fit``'s, and ``trace=False`` skips it the same way.

    As with ``map_fit``, lists of starts, configs, datasets and optimizer
    configs train in lockstep and give a list of results.
    """
    cfgs, trains, opts, solo = _lanes(cfg, train, opt)
    starts = [start] if solo else list(start)
    if len(starts) != len(cfgs):
        raise ValueError("swag_fit needs one start per lane")
    if rank < 1:
        raise ValueError("rank must be at least 1")
    per_epoch = _n_batches(trains[0].n, opts[0].batch_size)
    if snapshot_every is None:
        snapshot_every = per_epoch
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be at least 1")
    total_steps = opts[0].epochs * per_epoch
    if total_steps // snapshot_every < rank:
        raise ValueError(
            f"rank {rank} needs at least {rank * snapshot_every} steps "
            f"(one snapshot every {snapshot_every}), but this run has only "
            f"{total_steps}"
        )
    moments = [SwagMoments(s.theta.size, rank) for s in starts]

    def on_step(step: int, x: np.ndarray, live: np.ndarray) -> None:
        if step % snapshot_every == 0:
            for s in live:
                moments[s].update(x[s])

    x0 = np.stack([s.theta for s in starts])
    objective, epoch_values = _penalized_objective(cfgs[0], trains, opts[0])
    seeds = [o.seed for o in opts]
    lanes = _train(
        objective, x0, trains, seeds, opts[0], epoch_values if trace else None, on_step
    )
    results = [
        FitResult(m.state(), values, diverged=d or m.diverged)
        for m, (_, values, d) in zip(moments, lanes)
    ]
    return results[0] if solo else results


# training rows per batched Jacobian pass in laplace_fit: at most 64, and
# no more than keep the pass's (rows, k, P) Jacobian within 2^19 floats (4 MiB)
_LAPLACE_ROWS = 64
_LAPLACE_JACOBIAN_FLOATS = 1 << 19


def laplace_fit(
    start: MapState, cfg: MlpConfig, train: Dataset, prior_precision: float = 1.0
) -> LaplaceState:
    """Diagonal generalized Gauss-Newton Laplace approximation at the mode.

    The precision diagonal is prior_precision + sum_n diag(J_n^T L_n J_n)
    with J_n the output Jacobian at input n. For softmax classification
    L_n = diag(p_n) - p_n p_n^T; for the Gaussian regression head the
    Jacobian is taken on the mean output with L_n = 1 / sigma_n^2, the
    predicted variance held fixed at the mode.
    """
    _check_head(cfg, train)
    if prior_precision <= 0:
        raise ValueError("prior_precision must be positive")
    theta = start.theta
    ggn = np.zeros(theta.size)
    classification = train.task == CLASSIFICATION
    k = cfg.output_dim if classification else 1
    # One backward pass per chunk gives every row's output Jacobian: each
    # row runs as its own stacked 1-row product (bit-equal to a 1-row
    # matmul), seeded with the output's identity rows (regression: the
    # mean's row alone). The sum runs row by row, in row order.
    seed = np.eye(cfg.output_dim)[:k].reshape(1, k, 1, cfg.output_dim)
    layers = unpack_params(cfg, theta)
    chunk = max(1, min(_LAPLACE_ROWS, _LAPLACE_JACOBIAN_FLOATS // (k * theta.size)))
    for lo in range(0, train.n, chunk):
        x = train.inputs[lo : lo + chunk]
        hs = list(mlp_activations(cfg, layers, x[:, None, None, :]))
        grad_out = np.broadcast_to(seed, (len(x), *seed.shape[1:]))
        jacs = mlp_backward(cfg, layers, hs, grad_out)  # (rows, k, P)
        # a row is the row's probabilities, or its (mean, log-variance) output
        rows = softmax(hs[-1][:, 0, 0]) if classification else hs[-1][:, 0, 0]
        for row, jac in zip(rows, jacs):
            if classification:
                weighted = row @ jac
                ggn += row @ (jac * jac) - weighted**2
            else:
                ggn += jac[0] * jac[0] / math.exp(float(row[1]))
    precision = prior_precision + ggn
    bad = precision <= 0
    if np.any(bad):
        warnings.warn(
            f"{int(bad.sum())} non-positive precision entries clamped to the prior",
            stacklevel=2,
        )
        precision = np.where(bad, prior_precision, precision)
    return LaplaceState(mode=theta.copy(), diag_precision=precision)


def _advi_objective(cfg: MlpConfig, task: str, draws, mc_samples: int,
                    prior_precision: float, n_total: int):
    """The negative ELBO estimate of one lane's ``(1, 2P)`` stack of
    (mean, log_std) and its gradient, at the ``(mc_samples, P)`` noise
    stack that ``draws`` yields for each step.

    Draw j reparameterizes theta_j = mean + exp(log_std) * z_j, and the
    draws run as the lanes of one ``_nll_pass`` over the batch broadcast to
    them (stride 0, no copy). The KL against N(0, I / prior_precision) is
    closed form. Each draw's theta gradient g adds to the mean's and g * z
    to the std's, and the std's total times std gives the log-std's. The
    sums run in the tape's order (the data terms first to last; the KL
    terms first, then the draws last to first), so the result equals the
    taped gradient bit for bit. Each call overwrites the last gradient.
    """
    p = param_count(cfg)
    nll = _nll_pass(cfg, task)
    buffers = np.empty((mc_samples, p)), np.empty((1, 2 * p)), np.empty(p)
    gk, scale = 0.5 * prior_precision, n_total / mc_samples

    def objective(phi, inputs, targets):
        zs, (thetas, grad, gz) = next(draws), buffers
        mu, log_std, g_mu, g_std = phi[0, :p], phi[0, p:], grad[0, :p], grad[0, p:]
        std = np.exp(log_std)
        np.multiply(zs, std, out=thetas)
        thetas += mu
        lanes = (mc_samples, *inputs.shape[1:])
        losses, g = nll(thetas, np.broadcast_to(inputs, lanes),
                        np.broadcast_to(targets, lanes[:-1]), scale)
        np.multiply(mu, gk, out=g_mu)
        np.multiply(std, gk, out=g_std)
        grad += grad
        for j in range(mc_samples - 1, -1, -1):
            g_mu += g[j]
            g_std += np.multiply(g[j], zs[j], out=gz)
        g_std *= std
        g_std += -1.0
        grad += 0.0
        kl = 0.5 * np.sum(prior_precision * (mu * mu + std * std) - 1.0
                          - math.log(prior_precision) - 2.0 * log_std)
        loss = scale * np.add.accumulate(losses)[-1] + kl
        return np.array([float(loss)]), grad

    return objective


def advi_fit(
    cfg: MlpConfig,
    train: Dataset,
    opt: OptimConfig,
    mc_samples: int = 1,
    prior_precision: float = 1.0,
) -> FitResult:
    """Mean-field Gaussian posterior by reparameterized gradient ascent.

    Maximizes the ELBO E_q[log p(data | theta)] - KL(q || N(0, I /
    prior_precision)) with the KL in closed form and theta = mu +
    exp(log_std) * z. The trace holds per-epoch mean ELBO estimates;
    ``mean`` initializes from the seeded weight scheme and ``log_std`` at
    -2.3. Batch order comes from child stream (seed, 0) and the Gaussian
    noise from child stream (seed, 1).
    """
    _check_head(cfg, train)
    if mc_samples < 1:
        raise ValueError("mc_samples must be at least 1")
    if prior_precision <= 0:
        raise ValueError("prior_precision must be positive")
    p = param_count(cfg)
    noise = Rng(child_seed(opt.seed, 1))
    steps_per_epoch = _n_batches(train.n, opt.batch_size)

    def step_noise():
        # The stream has no other reader and its normals do not depend on
        # how they are split into calls, so a call per block of an epoch's
        # steps gives each step the values it would draw itself. A block
        # holds at most _SAMPLE_NORMALS normals (at least one step), so its
        # memory does not grow with the training rows.
        width = mc_samples * p
        block = max(1, _SAMPLE_NORMALS // width)
        while True:
            for lo in range(0, steps_per_epoch, block):
                steps = min(block, steps_per_epoch - lo)
                yield from noise.normals(steps * width).reshape(steps, mc_samples, p)

    objective = _advi_objective(
        cfg, train.task, step_noise(), mc_samples, prior_precision, train.n
    )

    def mean_elbo(_phi, losses):
        return [float(np.mean([-loss[0] for loss in losses]))]

    phi0 = np.concatenate([init_params(cfg), np.full(p, -2.3)])
    [(phi, trace, diverged)] = _train(
        objective, phi0[None], [train], [child_seed(opt.seed, 0)], opt, mean_elbo
    )
    state = AdviState(mean=phi[:p].copy(), log_std=phi[p:].copy())
    return FitResult(state, trace, diverged=diverged)


# ---------------------------------------------------------------------------
# sampling

DEFAULT_MC_SAMPLES = 30  # draws from a Gaussian state when no count is given


def posterior_sample(state: PosteriorState, rng: Rng, n_samples: int | None = None) -> np.ndarray:
    """An ``(n_samples, P)`` matrix of weight draws from ``state``, one per row.

    ``n_samples=None`` picks a per-kind default: 1 for a point estimate,
    the member count for an ensemble, ``DEFAULT_MC_SAMPLES`` otherwise.
    Point estimates repeat their parameters; ensembles cycle members
    round-robin. Gaussian states compute ``(loc, std)`` once and draw row
    by row from ``rng``: ``loc + std * z`` for Laplace and mean-field, and
    for SWAG mean + sigma/sqrt(2) * z1 + D z2 / sqrt(2 (rank - 1)), with z2
    of length rank drawn after z1 and dropped at rank 1. Zero variances add
    nothing, so a zero-spread state draws its mean bit-exactly. A normals
    call draws a block of rows, at most ``_SAMPLE_NORMALS`` normals (at
    least one row), with the draws and end state of one call per row.
    """
    if n_samples is None:
        n_samples = (
            1 if isinstance(state, MapState)
            else len(state.members) if isinstance(state, EnsembleState)
            else DEFAULT_MC_SAMPLES
        )
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if isinstance(state, MapState):
        return np.repeat(state.theta[None], n_samples, axis=0)
    if isinstance(state, EnsembleState):
        return np.stack(state.members)[np.arange(n_samples) % len(state.members)]
    swag = isinstance(state, SwagState)
    if swag:
        loc = state.mean
        std = np.sqrt(np.maximum(state.diag_second_moment - state.mean**2, 0.0))
    elif isinstance(state, LaplaceState):
        loc, std = state.mode, 1.0 / np.sqrt(state.diag_precision)
    elif isinstance(state, AdviState):
        loc, std = state.mean, np.exp(np.maximum(state.log_std, _LOG_STD_FLOOR))
    else:
        raise TypeError(f"unknown posterior state {type(state).__name__}")
    p = loc.size
    # a SWAG row's z2 follows its z1 in the stream
    low_rank = swag and state.rank >= 2
    width = p + state.rank if low_rank else p
    block = max(1, _SAMPLE_NORMALS // width)
    draws = np.empty((n_samples, p))
    for lo in range(0, n_samples, block):
        rows = draws[lo : lo + block]
        for row, z in zip(rows, rng.normals(len(rows) * width).reshape(-1, width)):
            if swag:
                np.add(loc, std * z[:p] / np.sqrt(2.0), out=row)
                if low_rank:
                    row += state.deviations @ z[p:] / np.sqrt(2.0 * (state.rank - 1))
            else:
                np.add(loc, std * z, out=row)
    return draws


# ---------------------------------------------------------------------------
# serialization (versioned JSON with base64 little-endian float payloads)
#
# One loop over each state dataclass's fields gives both the document and
# its schema: an ``np.ndarray`` field goes to ``arrays``, an ``int`` field
# to a top-level key, and the ensemble's member tuple to ``member_<i>``
# arrays plus a top-level count. Every vector holds ``param_count(model)``
# entries; SWAG's ``deviations`` is (P, rank).

_STATE_KINDS = {
    "map": MapState,
    "ensemble": EnsembleState,
    "swag": SwagState,
    "laplace": LaplaceState,
    "advi": AdviState,
}

_ARRAY_SCHEMA = {
    "type": "object", "additionalProperties": False, "required": ["shape", "data"],
    "properties": {"shape": {"type": "array", "items": {"type": "integer"}},
                   "data": {"type": "string"}},
}


def _state_schema(cls) -> dict:
    """The JSON Schema of a ``cls`` state document; with ``cls`` None (no
    known kind), of the keys every kind shares, letting any other through."""
    top = {
        "format": {"type": "integer", "enum": [1]},  # the type keeps out 1.0 and true
        "kind": {"enum": list(_STATE_KINDS)},
        "task": {"enum": [CLASSIFICATION, REGRESSION]},
        "model": MODEL_SCHEMA,
    }
    named = {}
    for f in fields(cls) if cls else ():
        if f.type == "np.ndarray":
            named[f.name] = _ARRAY_SCHEMA
        else:  # SWAG's rank and snapshots, or the ensemble's member count
            top[f.name] = {"type": "integer", "minimum": 1 if f.type == "int" else 2}
    # the ensemble's arrays take their names from its count, which code checks
    top["arrays"] = {"type": "object", "required": list(named), "properties": named,
                     "additionalProperties": False if named else _ARRAY_SCHEMA}
    return {"type": "object", "required": list(top), "properties": top,
            "additionalProperties": cls is None}


_STATE_SCHEMAS = {cls: _state_schema(cls) for cls in (None, *_STATE_KINDS.values())}


def _encode(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype="<f8")
    return {"shape": list(arr.shape), "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def state_to_dict(state: PosteriorState, model: MlpConfig, task: str) -> dict:
    kind = next((k for k, cls in _STATE_KINDS.items() if type(state) is cls), None)
    if kind is None:
        raise TypeError(f"unknown posterior state {type(state).__name__}")
    arrays: dict = {}
    doc = {"format": 1, "kind": kind, "task": task, "model": model.to_dict()}
    for f in fields(state):
        value = getattr(state, f.name)
        if f.type == "int":
            doc[f.name] = value
        elif f.type == "np.ndarray":
            arrays[f.name] = _encode(value)
        else:
            arrays.update((f"member_{i}", _encode(m)) for i, m in enumerate(value))
            doc[f.name] = len(value)
    doc["arrays"] = arrays
    return doc


def state_from_dict(doc: dict) -> tuple[PosteriorState, MlpConfig, str]:
    """Inverse of ``state_to_dict``. The faults of the kind's schema, or else
    of the regression head (``_head_fault``) and the arrays (shape, base64,
    byte count, an ensemble's names), are one ``DataError``: its
    ``fault_lines`` joined by "; "."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    cls = _STATE_KINDS.get(kind) if isinstance(kind, str) else None
    faults = list(schema_faults(_STATE_SCHEMAS[cls], doc))
    if not faults:
        model, arrays, values = MlpConfig(**doc["model"]), doc["arrays"], {}
        p, n = param_count(model), len(arrays)
        if head := _head_fault(model, doc["task"]):
            faults.append((("model", "output_dim"), head))
        for f in fields(cls):
            if f.type == "int":
                values[f.name] = doc[f.name]
            elif f.type == "np.ndarray":
                shape = (p, doc["rank"]) if f.name == "deviations" else (p,)
                values[f.name] = _decode(arrays, f.name, shape, faults)
            elif doc[f.name] == n and set(arrays) == {f"member_{i}" for i in range(n)}:
                members = (_decode(arrays, f"member_{i}", (p,), faults) for i in range(n))
                values[f.name] = tuple(members)
            else:
                message = f"expected member_0 to member_{doc[f.name] - 1}, got {sorted(arrays)}"
                faults.append((("arrays",), message))
    if faults:
        raise DataError("; ".join(fault_lines(faults)))
    try:
        return cls(**values), model, doc["task"]
    except ValueError as exc:
        raise DataError(f"invalid {kind} state: {exc}") from None


def _decode(arrays: dict, name: str, shape: tuple[int, ...], faults: list):
    """The array ``arrays[name]``, or None with its one fault appended."""
    entry, at, size = arrays[name], ("arrays", name), 8 * math.prod(shape)
    try:
        raw = base64.b64decode(entry["data"], validate=True)
    except ValueError:
        raw = None
    if entry["shape"] != list(shape):
        faults.append((at + ("shape",), f"expected {list(shape)}, got {entry['shape']}"))
    elif raw is None:
        faults.append((at + ("data",), "not valid base64"))
    elif len(raw) != size:
        faults.append((at + ("data",), f"holds {len(raw)} bytes, expected {size}"))
    else:
        return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def save_state(path, state: PosteriorState, model: MlpConfig, task: str) -> None:
    write_json(path, state_to_dict(state, model, task))


def load_state(path) -> tuple[PosteriorState, MlpConfig, str]:
    """``state_from_dict`` of the file's JSON; each ``DataError`` names the file."""
    doc = read_json(path, "state")
    try:
        return state_from_dict(doc)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None

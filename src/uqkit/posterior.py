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

import numpy as np

from .data import CLASSIFICATION, REGRESSION, Dataset, batches, read_json, write_json
from .errors import DataError
from .mlp import MlpConfig, init_params, mlp_activations, mlp_backward, mlp_forward
from .mlp import param_count, unpack_params
from .numerics import softmax
from .rng import Rng, child_seed

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_STD_FLOOR = -100.0  # sampling floor for mean-field log stds
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

def _check_head(cfg: MlpConfig, ds: Dataset) -> None:
    if ds.d != cfg.input_dim:
        raise ValueError(
            f"dataset has {ds.d} features but the model expects {cfg.input_dim}"
        )
    if ds.task == CLASSIFICATION:
        if ds.n_classes > cfg.output_dim:
            raise ValueError(
                f"dataset has labels up to {ds.n_classes - 1} but the model "
                f"has only {cfg.output_dim} outputs"
            )
    elif cfg.output_dim != 2:
        raise ValueError(
            "regression models output a (mean, log-variance) pair; "
            f"output_dim must be 2, got {cfg.output_dim}"
        )


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


def nll_value_and_grad(
    cfg: MlpConfig, theta: np.ndarray, inputs, targets, task: str, scale: float = 1.0
):
    """Mean data NLL over a batch and ``scale`` times its gradient, by one
    explicit forward and backward pass (the training path). With an
    ``(S, P)`` stack of parameter vectors and ``(S, n, d)`` inputs, both
    come per lane: ``(S,)`` losses and ``(S, P)`` gradients."""
    layers = unpack_params(cfg, theta)
    hs = list(mlp_activations(cfg, layers, inputs))
    loss, grad_out = _nll_head(hs[-1], targets, task, scale)
    return loss, mlp_backward(cfg, layers, hs, grad_out)


# ---------------------------------------------------------------------------
# optimizer steps and the training loop

class _Optimizer:
    """Adam or plain SGD over an ``(S, P)`` stack of flat vectors, one lane
    per row; the moments live on the instance and update in place."""

    def __init__(self, opt: OptimConfig, shape: tuple[int, int]):
        self.opt = opt
        self.t = 0
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.buf = np.empty(shape)

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """The next iterates, in a new array."""
        o = self.opt
        if o.algorithm == "sgd":
            return theta - o.learning_rate * grad
        self.t += 1
        m, v, buf = self.m, self.v, self.buf
        # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g;  the step is
        # (lr m_hat) / (sqrt(v_hat) + eps): the textbook order, in place
        m *= _ADAM_BETA1
        m += np.multiply(grad, 1.0 - _ADAM_BETA1, out=buf)
        v *= _ADAM_BETA2
        np.multiply(grad, 1.0 - _ADAM_BETA2, out=buf)
        v += np.multiply(buf, grad, out=buf)
        denom = np.sqrt(np.divide(v, 1.0 - _ADAM_BETA2**self.t, out=buf), out=buf)
        denom += _ADAM_EPS
        update = m / (1.0 - _ADAM_BETA1**self.t)
        update *= o.learning_rate
        update /= denom
        return np.subtract(theta, update, out=update)


def _n_batches(n: int, batch_size: int) -> int:
    return (n + batch_size - 1) // batch_size


def _train(objective, x0, trains, seeds, opt, epoch_values, on_step=None):
    """The mini-batch loop every gradient fit runs, over S lanes at once.

    Lane s is row s of the ``(S, P)`` stack ``x`` for the whole fit, from
    row s of ``x0``, with batches from ``trains[s]`` in an order keyed by
    (``seeds[s]``, epoch). Each step stacks one equal-shape batch per lane
    into ``(S, b, d)`` inputs, and ``objective(x, inputs, targets)`` gives
    the ``(S,)`` batch losses and ``(S, P)`` gradients for one optimizer
    step over the stack. Then ``on_step(step, x, live)`` gets the 1-based
    step, the live stack (the next step replaces it, never writes into
    it) and the live rows' indices; after each epoch the live lanes'
    traces take theirs of the S values ``epoch_values(x, batch_losses)``.
    With ``epoch_values=None`` nothing is computed per epoch and every
    trace stays empty; the iterates are the same bit for bit.
    A lane whose loss, gradient or iterate is non-finite freezes: its row
    keeps its last finite iterate and its trace stops; the loop ends when
    every lane has frozen. No operation mixes rows, so each lane equals
    its solo fit (S = 1) bit for bit. Returns one (last finite iterate,
    trace, diverged) per lane.
    """
    x = np.asarray(x0, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("parameter vector contains non-finite entries")
    live = np.arange(len(x))
    frozen = np.zeros(len(x), dtype=bool)
    traces: list[list[float]] = [[] for _ in trains]
    stepper = _Optimizer(opt, x.shape)
    per_epoch = _n_batches(trains[0].n, opt.batch_size)
    step = 0
    # the checks below catch every non-finite value; numpy's warnings would repeat them
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(opt.epochs):
            streams = [batches(t, opt.batch_size, seed, epoch) for t, seed in zip(trains, seeds)]
            losses: list[np.ndarray] = []
            for _ in range(per_epoch):
                inputs, targets = zip(*[next(stream) for stream in streams])
                loss, grad = objective(x, np.array(inputs), np.array(targets))
                new_x = stepper.step(x, grad)
                # a non-finite gradient always makes a non-finite step
                ok = np.isfinite(loss) & np.isfinite(new_x).all(axis=1)
                if not ok[live].all():
                    frozen |= ~ok
                    live = np.flatnonzero(~frozen)
                    if not live.size:
                        return [(row, tuple(trace), True) for row, trace in zip(x, traces)]
                if live.size < len(x):
                    new_x[frozen] = x[frozen]
                x = new_x
                losses.append(loss)
                step += 1
                if on_step is not None:
                    on_step(step, x, live)
            if epoch_values is not None:
                values = epoch_values(x, losses)
                for s in live:
                    traces[s].append(values[s])
    return [(row, tuple(trace), bool(f)) for row, trace, f in zip(x, traces, frozen)]


def _penalized_objective(cfg: MlpConfig, trains: list[Dataset], opt: OptimConfig):
    """(batch loss and gradient, full-data epoch values) of the penalized
    loss, for lanes with the datasets ``trains``; the ridge term's
    gradient enters as the tape adds it."""
    wd = opt.weight_decay
    task = trains[0].task

    def objective(theta, inputs, targets):
        loss, grad = nll_value_and_grad(cfg, theta, inputs, targets, task)
        if wd > 0:
            g = wd / 2.0
            loss = loss + g * np.sum(theta * theta, axis=-1)
            grad = (g * theta + g * theta) + grad
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


_LAPLACE_ROWS = 64  # training rows per batched Jacobian pass in laplace_fit


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
    for lo in range(0, train.n, _LAPLACE_ROWS):
        x = train.inputs[lo : lo + _LAPLACE_ROWS]
        hs = list(mlp_activations(cfg, layers, x[:, None, None, :]))
        grad_out = np.broadcast_to(seed, (len(x), *seed.shape[1:]))
        jacs = mlp_backward(cfg, layers, hs, grad_out)  # (rows, k, P)
        for out, jac in zip(hs[-1][:, 0, 0], jacs):
            if classification:
                probs = softmax(out)
                weighted = probs @ jac
                ggn += probs @ (jac * jac) - weighted**2
            else:
                ggn += jac[0] * jac[0] / math.exp(float(out[1]))
    precision = prior_precision + ggn
    bad = precision <= 0
    if np.any(bad):
        warnings.warn(
            f"{int(bad.sum())} non-positive precision entries clamped to the prior",
            stacklevel=2,
        )
        precision = np.where(bad, prior_precision, precision)
    return LaplaceState(mode=theta.copy(), diag_precision=precision)


def _gaussian_kl(mu, std, log_std, prior_precision: float):
    """KL(N(mu, std^2) || N(0, I / prior_precision))."""
    return 0.5 * np.sum(
        prior_precision * (mu * mu + std * std)
        - 1.0
        - math.log(prior_precision)
        - 2.0 * log_std
    )


def advi_value_and_grad(
    cfg: MlpConfig, phi: np.ndarray, inputs, targets, task: str,
    zs: list[np.ndarray], prior_precision: float, n_total: int,
) -> tuple[float, np.ndarray]:
    """Negative ELBO estimate for one step at fixed noise draws ``zs``,
    and its gradient in ``phi``.

    ``phi`` stacks (mean, log_std); each draw reparameterizes theta =
    mean + exp(log_std) * z, and the KL against N(0, I/prior_precision)
    is closed form. The gradient is the chain rule through
    ``nll_value_and_grad``: each draw's theta gradient g adds to the
    mean's and g * z to the std's, the std's total is multiplied by std
    for the log-std, and the closed-form KL terms come first with the
    draws after them from last to first, as the tape sums them; the
    result equals the taped gradient bit for bit.
    """
    p = len(zs[0])
    mu, log_std = phi[:p], phi[p:]
    std = np.exp(log_std)
    scale = n_total / len(zs)
    draws = [
        nll_value_and_grad(cfg, mu + std * z, inputs, targets, task, scale) for z in zs
    ]
    data_term = draws[0][0]
    for nll, _ in draws[1:]:
        data_term = data_term + nll
    gk = 0.5 * prior_precision
    g_mu = gk * mu + gk * mu
    g_std = gk * std + gk * std
    for z, (_, g) in zip(reversed(zs), reversed(draws)):
        g_mu = g_mu + g
        g_std = g_std + g * z
    loss = scale * data_term + _gaussian_kl(mu, std, log_std, prior_precision)
    return float(loss), np.concatenate([g_mu, -1.0 + g_std * std]) + 0.0


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
        # how they are split into calls, so one call per epoch gives each
        # step the values it would draw itself.
        while True:
            yield from noise.normals(steps_per_epoch * mc_samples * p).reshape(-1, mc_samples, p)

    draws = step_noise()

    def objective(phi, inputs, targets):  # one lane
        zs = list(next(draws))
        loss, grad = advi_value_and_grad(
            cfg, phi[0], inputs[0], targets[0], train.task, zs, prior_precision, train.n
        )
        return np.array([loss]), grad[None]

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
    nothing, so a zero-spread state draws its mean bit-exactly.
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
    draws = np.empty((n_samples, loc.size))
    for row in draws:  # one normals call per row keeps the temporaries P long
        if swag:
            np.add(loc, std * rng.normals(loc.size) / np.sqrt(2.0), out=row)
            if state.rank >= 2:
                low_rank = state.deviations @ rng.normals(state.rank)
                row += low_rank / np.sqrt(2.0 * (state.rank - 1))
        else:
            np.add(loc, std * rng.normals(loc.size), out=row)
    return draws


# ---------------------------------------------------------------------------
# serialization (versioned JSON with base64 little-endian float payloads)
#
# One loop over each state dataclass's fields does both directions: an
# ``np.ndarray`` field goes to ``arrays``, an ``int`` field to a top-level
# key, and the ensemble's member tuple to ``member_<i>`` arrays plus a
# top-level count. Every vector holds ``param_count(model)`` entries;
# SWAG's ``deviations`` is (P, rank).

_STATE_KINDS = {
    "map": MapState,
    "ensemble": EnsembleState,
    "swag": SwagState,
    "laplace": LaplaceState,
    "advi": AdviState,
}


def _encode(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=np.float64)
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii"),
    }


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
    """Inverse of ``state_to_dict``. Anything that does not decode to a
    valid state (wrong JSON types, a missing key, bad base64, a wrong
    shape, an unknown kind or task) is a one-line ``DataError``."""
    _check_object(doc, "state")
    if doc.get("format") != 1:
        raise DataError(f"unsupported state format {doc.get('format')!r}")
    try:
        return _state_from_dict(doc)
    except KeyError as exc:
        raise DataError(f"state lacks required key {exc.args[0]!r}") from None


def _check_object(value, what: str) -> None:
    if not isinstance(value, dict):
        raise DataError(f"{what} must be a JSON object, got {type(value).__name__}")


_JSON_TYPE = {int: "an integer", str: "a string", list: "a list"}


def _field(value, name: str, kind: type = int):
    """``value`` if it is exactly of ``kind`` (a bool is no integer), else
    a ``DataError`` naming the state field."""
    if type(value) is not kind:
        raise DataError(f"state field {name!r} must be {_JSON_TYPE[kind]}, got {value!r}")
    return value


def _model(doc) -> MlpConfig:
    """The state's model, each field checked for its JSON type."""
    _check_object(doc, "state field 'model'")
    widths = _field(doc["hidden_widths"], "model.hidden_widths", list)
    try:
        return MlpConfig(
            input_dim=_field(doc["input_dim"], "model.input_dim"),
            hidden_widths=tuple(
                _field(w, f"model.hidden_widths[{i}]") for i, w in enumerate(widths)
            ),
            output_dim=_field(doc["output_dim"], "model.output_dim"),
            activation=_field(doc["activation"], "model.activation", str),
            init_seed=_field(doc["init_seed"], "model.init_seed"),
        )
    except ValueError as exc:
        raise DataError(f"state model is invalid: {exc}") from None


def _decode(arrays: dict, name: str, shape: tuple[int, ...]) -> np.ndarray:
    entry = arrays[name]
    _check_object(entry, f"state array {name!r}")
    dims = entry["shape"]
    if dims != list(shape):
        raise DataError(
            f"state array {name!r} has shape {dims!r}, expected {list(shape)}"
        )
    try:
        raw = base64.b64decode(entry["data"], validate=True)
    except (TypeError, ValueError):
        raise DataError(f"state array {name!r} data is not valid base64") from None
    if len(raw) != 8 * math.prod(shape):
        raise DataError(
            f"state array {name!r} holds {len(raw)} bytes, "
            f"expected {8 * math.prod(shape)} for shape {dims}"
        )
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def _state_from_dict(doc: dict) -> tuple[PosteriorState, MlpConfig, str]:
    kind = doc["kind"]
    cls = _STATE_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise DataError(f"unknown posterior kind {kind!r}")
    task = doc["task"]
    if task not in (CLASSIFICATION, REGRESSION):
        raise DataError(f"unknown task {task!r} in state")
    model = _model(doc["model"])
    arrays = doc["arrays"]
    _check_object(arrays, "state field 'arrays'")
    p = param_count(model)
    values: dict = {}
    for f in fields(cls):
        if f.type == "int":
            values[f.name] = _field(doc[f.name], f.name)
        elif f.type == "np.ndarray":
            shape = (p, _field(doc["rank"], "rank")) if f.name == "deviations" else (p,)
            values[f.name] = _decode(arrays, f.name, shape)
        else:
            values[f.name] = tuple(
                _decode(arrays, f"member_{i}", (p,)) for i in range(_field(doc[f.name], f.name))
            )
    try:
        return cls(**values), model, task
    except ValueError as exc:
        raise DataError(f"invalid {kind} state: {exc}") from None


def save_state(path, state: PosteriorState, model: MlpConfig, task: str) -> None:
    write_json(path, state_to_dict(state, model, task))


def load_state(path) -> tuple[PosteriorState, MlpConfig, str]:
    return state_from_dict(read_json(path, "state"))

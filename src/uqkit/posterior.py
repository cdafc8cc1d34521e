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
"""

from __future__ import annotations

import base64
import json
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import value_and_grad
from .data import CLASSIFICATION, REGRESSION, BatchPlan, Dataset, batches
from .errors import DataError
from .mlp import MlpConfig, init_params, mlp_forward, param_count
from .numerics import softmax
from .rng import Rng, child_seed

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_STD_FLOOR = -100.0  # sampling floor for mean-field log stds


@dataclass(frozen=True)
class OptimConfig:
    algorithm: str = "adam"
    learning_rate: float = 1e-3
    epochs: int = 300
    batch_size: int = 32
    weight_decay: float = 0.0  # Gaussian prior precision divided by n
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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
# losses (work on both tape variables and plain arrays)

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


def mean_nll(cfg: MlpConfig, theta, inputs: np.ndarray, targets: np.ndarray, task: str):
    """Mean data NLL over a batch, as a tape variable when theta is one."""
    out = mlp_forward(cfg, theta, inputs)
    n = inputs.shape[0]
    if task == CLASSIFICATION:
        onehot = np.zeros((n, cfg.output_dim))
        onehot[np.arange(n), np.asarray(targets, dtype=np.int64)] = 1.0
        m = ad.vmax(out, axis=1)
        shifted = out - ad.reshape(m, (n, 1))
        lse = m + ad.log(ad.vsum(ad.exp(shifted), axis=1))
        picked = ad.vsum(out * onehot, axis=1)
        return ad.vsum(lse - picked) / n
    mu = ad.take_column(out, 0)
    log_var = ad.take_column(out, 1)
    resid = np.asarray(targets, dtype=np.float64) - mu
    return 0.5 * ad.vsum(log_var + resid * resid * ad.exp(-log_var) + _LOG_2PI) / n


def penalized_loss(
    cfg: MlpConfig, theta, inputs, targets, task: str, weight_decay: float
):
    """Mean NLL plus the (weight_decay / 2) * ||theta||^2 ridge penalty."""
    loss = mean_nll(cfg, theta, inputs, targets, task)
    if weight_decay > 0:
        loss = loss + (weight_decay / 2.0) * ad.vsum(theta * theta)
    return loss


# ---------------------------------------------------------------------------
# optimizer steps and the training loop

class _Optimizer:
    """Adam or plain SGD over a flat vector; state lives on the instance."""

    def __init__(self, opt: OptimConfig, dim: int):
        self.opt = opt
        self.t = 0
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        o = self.opt
        if o.algorithm == "sgd":
            return theta - o.learning_rate * grad
        self.t += 1
        self.m = o.beta1 * self.m + (1.0 - o.beta1) * grad
        self.v = o.beta2 * self.v + (1.0 - o.beta2) * grad * grad
        m_hat = self.m / (1.0 - o.beta1**self.t)
        v_hat = self.v / (1.0 - o.beta2**self.t)
        return theta - o.learning_rate * m_hat / (np.sqrt(v_hat) + o.eps)


def _n_batches(n: int, batch_size: int) -> int:
    return (n + batch_size - 1) // batch_size


def _train(objective, x0, train, opt, shuffle_seed, epoch_value, on_step=None):
    """The mini-batch loop every gradient fit runs.

    For each batch (order keyed by (shuffle_seed, epoch)) it takes one
    optimizer step on ``objective(x, inputs, targets)``, then calls
    ``on_step(step, x)`` with the 1-based step count and the new iterate.
    After each epoch the trace gets ``epoch_value(x, batch_losses)``. A
    non-finite loss, gradient or iterate stops the run. Returns (last
    finite iterate, trace, diverged).
    """
    x = x0
    stepper = _Optimizer(opt, x.size)
    plan = BatchPlan(batch_size=opt.batch_size, shuffle_seed=shuffle_seed)
    trace: list[float] = []
    step = 0
    for epoch in range(opt.epochs):
        losses: list[float] = []
        for xb, yb in batches(train, plan, epoch):
            loss, grad = value_and_grad(lambda v: objective(v, xb, yb), x)
            if not math.isfinite(loss) or not np.all(np.isfinite(grad)):
                return x, tuple(trace), True
            new_x = stepper.step(x, grad)
            if not np.all(np.isfinite(new_x)):
                return x, tuple(trace), True
            x = new_x
            losses.append(loss)
            step += 1
            if on_step is not None:
                on_step(step, x)
        trace.append(epoch_value(x, losses))
    return x, tuple(trace), False


def _penalized_objective(cfg: MlpConfig, train: Dataset, opt: OptimConfig):
    """(batch objective, full-data epoch value) of the penalized loss."""

    def objective(theta, inputs, targets):
        return penalized_loss(cfg, theta, inputs, targets, train.task, opt.weight_decay)

    def full_loss(theta, _losses):
        return float(objective(theta, train.inputs, train.targets))

    return objective, full_loss


# ---------------------------------------------------------------------------
# fits

def map_fit(cfg: MlpConfig, train: Dataset, opt: OptimConfig) -> FitResult:
    """Penalized maximum likelihood from the seeded initialization.

    The per-epoch trace holds the full-dataset objective after each
    epoch. A non-finite loss or parameter aborts the run and returns the
    last finite parameters with ``diverged`` set.
    """
    _check_head(cfg, train)
    objective, full_loss = _penalized_objective(cfg, train, opt)
    theta, trace, diverged = _train(
        objective, init_params(cfg), train, opt, opt.seed, full_loss
    )
    return FitResult(MapState(theta), trace, diverged=diverged)


def ensemble_fit(
    cfg: MlpConfig, train: Dataset, opt: OptimConfig, members: int = 5
) -> FitResult:
    """Independently seeded repetitions of ``map_fit``.

    Member m trains with init stream (init_seed, m) and batch stream
    (seed, m), so each member equals the standalone ``map_fit`` with
    those seeds.
    """
    if members < 2:
        raise ValueError("an ensemble needs at least 2 members")
    results = [
        map_fit(
            replace(cfg, init_seed=child_seed(cfg.init_seed, m)),
            train,
            replace(opt, seed=child_seed(opt.seed, m)),
        )
        for m in range(members)
    ]
    return FitResult(
        EnsembleState(tuple(r.state.theta for r in results)),
        trace=(),
        diverged=any(r.diverged for r in results),
        member_traces=tuple(r.trace for r in results),
    )


class SwagMoments:
    """Running snapshot moments: mean, elementwise second moment, and the
    last ``rank`` deviation columns (iterate minus the running mean after
    the update)."""

    def __init__(self, dim: int, rank: int):
        self.rank = rank
        self.count = 0
        self.mean = np.zeros(dim)
        self.second = np.zeros(dim)
        self.dev_cols: list[np.ndarray] = []

    def update(self, theta: np.ndarray) -> None:
        self.count += 1
        k = self.count
        self.mean = self.mean * ((k - 1) / k) + theta / k
        self.second = self.second * ((k - 1) / k) + theta**2 / k
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
) -> FitResult:
    """Collect SWAG moments by continuing optimization from a point estimate.

    Every ``snapshot_every`` optimizer steps (default: once per epoch)
    the iterate is recorded into a running mean, a running elementwise
    second moment, and the last ``rank`` deviation columns; each column
    is the iterate minus the running mean *after* that snapshot was
    folded in. Optimizer moments restart from zero at the hand-off.
    """
    _check_head(cfg, train)
    if rank < 1:
        raise ValueError("rank must be at least 1")
    per_epoch = _n_batches(train.n, opt.batch_size)
    if snapshot_every is None:
        snapshot_every = per_epoch
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be at least 1")
    total_steps = opt.epochs * per_epoch
    if total_steps // snapshot_every < rank:
        raise ValueError(
            f"rank {rank} needs at least {rank * snapshot_every} steps "
            f"(one snapshot every {snapshot_every}), but this run has only "
            f"{total_steps}"
        )
    moments = SwagMoments(start.theta.size, rank)

    def snapshot(step: int, theta: np.ndarray) -> None:
        if step % snapshot_every == 0:
            moments.update(theta)

    objective, full_loss = _penalized_objective(cfg, train, opt)
    _, trace, diverged = _train(
        objective, start.theta.copy(), train, opt, opt.seed, full_loss, snapshot
    )
    return FitResult(moments.state(), trace, diverged=diverged)


def swag_sample(state: SwagState, rng: Rng) -> np.ndarray:
    """One weight draw from the SWAG Gaussian.

    theta = mean + sigma/sqrt(2) * z1 + D z2 / sqrt(2 (rank - 1)), with z1
    of length P drawn before z2 of length rank. Exactly-zero variances
    contribute nothing, so a zero-variance, zero-deviation state returns
    the mean bit-exactly. With rank 1 the low-rank term is dropped
    (diagonal-only sampling).
    """
    p = state.mean.size
    raw_var = np.maximum(state.diag_second_moment - state.mean**2, 0.0)
    sigma = np.sqrt(raw_var)
    z1 = rng.normals(p)
    theta = state.mean + sigma * z1 / np.sqrt(2.0)
    if state.rank >= 2:
        z2 = rng.normals(state.rank)
        theta = theta + (state.deviations @ z2) / np.sqrt(2.0 * (state.rank - 1))
    return theta


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
    p = theta.size
    ggn = np.zeros(p)
    for i in range(train.n):
        x = train.inputs[i : i + 1]
        tape = ad.Tape()
        tv = tape.input(theta)
        out = mlp_forward(cfg, tv, x)
        if train.task == CLASSIFICATION:
            k = cfg.output_dim
            jac = np.empty((k, p))
            for c in range(k):
                jac[c] = tape.gradient(ad.vsum(ad.take_column(out, c)), tv)
            probs = softmax(out.value[0])
            weighted = probs @ jac
            ggn += probs @ (jac * jac) - weighted**2
        else:
            g = tape.gradient(ad.vsum(ad.take_column(out, 0)), tv)
            var = math.exp(float(out.value[0, 1]))
            ggn += g * g / var
    precision = prior_precision + ggn
    bad = precision <= 0
    if np.any(bad):
        warnings.warn(
            f"{int(bad.sum())} non-positive precision entries clamped to the prior",
            stacklevel=2,
        )
        precision = np.where(bad, prior_precision, precision)
    return LaplaceState(mode=theta.copy(), diag_precision=precision)


def advi_objective(
    cfg: MlpConfig,
    phi,
    inputs: np.ndarray,
    targets: np.ndarray,
    task: str,
    zs: list[np.ndarray],
    prior_precision: float,
    n_total: int,
):
    """Negative ELBO estimate for one step at fixed noise draws ``zs``.

    ``phi`` stacks (mean, log_std); each draw reparameterizes theta =
    mean + exp(log_std) * z, and the KL against N(0, I/prior_precision)
    is closed form. Differentiable when ``phi`` is a tape variable.
    """
    p = len(zs[0])
    mu = ad.take_slice(phi, 0, p)
    log_std = ad.take_slice(phi, p, 2 * p)
    std = ad.exp(log_std)
    data_term = None
    for z in zs:
        nll = mean_nll(cfg, mu + std * z, inputs, targets, task)
        data_term = nll if data_term is None else data_term + nll
    kl = 0.5 * ad.vsum(
        prior_precision * (mu * mu + std * std)
        - 1.0
        - math.log(prior_precision)
        - 2.0 * log_std
    )
    return (n_total / len(zs)) * data_term + kl


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

    def objective(phi, inputs, targets):
        zs = [noise.normals(p) for _ in range(mc_samples)]
        return advi_objective(
            cfg, phi, inputs, targets, train.task, zs, prior_precision, train.n
        )

    def mean_elbo(_phi, losses):
        return float(np.mean([-loss for loss in losses]))

    phi0 = np.concatenate([init_params(cfg), np.full(p, -2.3)])
    phi, trace, diverged = _train(
        objective, phi0, train, opt, child_seed(opt.seed, 0), mean_elbo
    )
    state = AdviState(mean=phi[:p].copy(), log_std=phi[p:].copy())
    return FitResult(state, trace, diverged=diverged)


# ---------------------------------------------------------------------------
# sampling

def posterior_sample(state: PosteriorState, rng: Rng, n_samples: int) -> list[np.ndarray]:
    """Draw weight vectors from an approximate posterior.

    Point estimates replicate their parameters; ensembles cycle members
    round-robin; SWAG, Laplace, and mean-field states draw Gaussians with
    their stored moments (coordinates consumed in order, one vector per
    draw).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if isinstance(state, MapState):
        return [state.theta.copy() for _ in range(n_samples)]
    if isinstance(state, EnsembleState):
        m = len(state.members)
        return [state.members[i % m].copy() for i in range(n_samples)]
    if isinstance(state, SwagState):
        return [swag_sample(state, rng) for _ in range(n_samples)]
    if isinstance(state, LaplaceState):
        std = 1.0 / np.sqrt(state.diag_precision)
        return [
            state.mode + std * rng.normals(state.mode.size)
            for _ in range(n_samples)
        ]
    if isinstance(state, AdviState):
        std = np.exp(np.maximum(state.log_std, _LOG_STD_FLOOR))
        return [
            state.mean + std * rng.normals(state.mean.size)
            for _ in range(n_samples)
        ]
    raise TypeError(f"unknown posterior state {type(state).__name__}")


# ---------------------------------------------------------------------------
# serialization (versioned JSON with base64 little-endian float payloads)

_STATE_KINDS = {
    MapState: "map",
    EnsembleState: "ensemble",
    SwagState: "swag",
    LaplaceState: "laplace",
    AdviState: "advi",
}


def _encode(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=np.float64)
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii"),
    }


def _decode(entry: dict) -> np.ndarray:
    raw = base64.b64decode(entry["data"])
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(entry["shape"])


def state_to_dict(state: PosteriorState, model: MlpConfig, task: str) -> dict:
    kind = _STATE_KINDS.get(type(state))
    if kind is None:
        raise TypeError(f"unknown posterior state {type(state).__name__}")
    doc = {"format": 1, "kind": kind, "task": task, "model": model.to_dict()}
    if isinstance(state, MapState):
        doc["arrays"] = {"theta": _encode(state.theta)}
    elif isinstance(state, EnsembleState):
        doc["arrays"] = {
            f"member_{i}": _encode(m) for i, m in enumerate(state.members)
        }
        doc["members"] = len(state.members)
    elif isinstance(state, SwagState):
        doc["arrays"] = {
            "mean": _encode(state.mean),
            "diag_second_moment": _encode(state.diag_second_moment),
            "deviations": _encode(state.deviations),
        }
        doc["rank"] = state.rank
        doc["snapshots"] = state.snapshots
    elif isinstance(state, LaplaceState):
        doc["arrays"] = {
            "mode": _encode(state.mode),
            "diag_precision": _encode(state.diag_precision),
        }
    else:
        doc["arrays"] = {
            "mean": _encode(state.mean),
            "log_std": _encode(state.log_std),
        }
    return doc


def state_from_dict(doc: dict) -> tuple[PosteriorState, MlpConfig, str]:
    """Inverse of ``state_to_dict``; a missing key is a ``DataError``."""
    if doc.get("format") != 1:
        raise DataError(f"unsupported state format {doc.get('format')!r}")
    try:
        return _state_from_dict(doc)
    except KeyError as exc:
        raise DataError(f"state lacks required key {exc.args[0]!r}") from None


def _state_from_dict(doc: dict) -> tuple[PosteriorState, MlpConfig, str]:
    kind = doc.get("kind")
    model = MlpConfig.from_dict(doc["model"])
    task = doc["task"]
    arrays = {k: _decode(v) for k, v in doc.get("arrays", {}).items()}
    if kind == "map":
        state: PosteriorState = MapState(arrays["theta"])
    elif kind == "ensemble":
        state = EnsembleState(
            tuple(arrays[f"member_{i}"] for i in range(int(doc["members"])))
        )
    elif kind == "swag":
        state = SwagState(
            mean=arrays["mean"],
            diag_second_moment=arrays["diag_second_moment"],
            deviations=arrays["deviations"],
            rank=int(doc["rank"]),
            snapshots=int(doc["snapshots"]),
        )
    elif kind == "laplace":
        state = LaplaceState(
            mode=arrays["mode"], diag_precision=arrays["diag_precision"]
        )
    elif kind == "advi":
        state = AdviState(mean=arrays["mean"], log_std=arrays["log_std"])
    else:
        raise DataError(f"unknown posterior kind {kind!r}")
    return state, model, task


def save_state(path, state: PosteriorState, model: MlpConfig, task: str) -> None:
    doc = state_to_dict(state, model, task)
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def load_state(path) -> tuple[PosteriorState, MlpConfig, str]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"corrupt state file {path}: {exc}") from exc
    return state_from_dict(doc)

"""Trial and Monte-Carlo simulation of the distributed estimators.

Execution is synchronous lockstep: at step k every node reads the
step-k broadcasts, then the whole network advances to k+1.  The
centralized Kalman filter is co-simulated on the same noise realization
so traces carry the optimal estimate alongside the per-node ones.

Reproducibility: every trial owns counter-based RNG streams, children 0
(plant noise) and 1 (link failures, built only for strategies that draw)
of ``SeedSequence`` entropy.  Monte-Carlo trial t of master seed s uses
entropy ``(s, t)``, so any trial can be replayed in isolation.

Checks: ``TrialConfig`` checks the trial options that need no plant,
``check_trial`` the rest, for library callers and CLI scenarios alike;
a bad option raises ``ConfigError`` before anything is drawn.

Batching: ``run_monte_carlo`` runs its trials in batches, one call of
``run_trial(..., seeds=...)`` and of the kernel each, with the batch's
trials side by side.  Each trial draws from its own streams exactly what
it draws alone, so batching changes its result only by roundoff.  The
kernel sums a batch's squared errors a block of steps at a time.
``_BATCH_BYTES`` sizes batch and block from one budget on a trial's
working set in the kernel: it bounds the memory Monte Carlo adds, while
the batch shares the per-step cost of the Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .consensus import BernoulliDropStrategy, ConsensusDesign, StaticStrategy
from .decomposition import DecompositionBundle, ReducedBundle, psd_factor
from .errors import ConfigError
from .kalman import KalmanDesign
from .numerics import spectral_radius
from .plant import SensorGraph, SplitModel, SystemModel, is_psd

_MAX_GROWTH = 1e12  # largest rho(A)^horizon a simulation may reach
_MAX_TRACE_BYTES = 2**28  # largest (T+1, m, n) float array of node estimates


def resolve_variant(variant: str, n: int, m: int) -> str:
    """``auto`` picks the variant with the smaller broadcast: alg2 when
    n < m (messages of size n), alg1 otherwise (messages of size m)."""
    if variant == "auto":
        return "alg2" if n < m else "alg1"
    if variant not in ("alg1", "alg2"):
        raise ConfigError(f"unknown variant {variant!r}")
    return variant


def message_dimension(variant: str, n: int, m: int) -> int:
    """Numbers per broadcast of ``variant`` (``auto`` resolved first)."""
    return m if resolve_variant(variant, n, m) == "alg1" else n


def _check_seed(seed) -> None:
    """A seed is a non-negative int, or a non-empty tuple or list of them."""
    parts = seed if isinstance(seed, (tuple, list)) else [seed]
    if not parts or not all(isinstance(s, (int, np.integer)) and s >= 0 for s in parts):
        raise ConfigError(f"seed must be a non-negative int or tuple of them, got {seed!r}")


@dataclass(frozen=True, eq=False)
class DesignSet:
    """Everything a simulation needs, produced by the design pipeline."""

    kalman: KalmanDesign
    split: SplitModel
    bundle: DecompositionBundle
    consensus: ConsensusDesign
    graph: SensorGraph
    reduced: ReducedBundle | None = None


@dataclass(frozen=True, eq=False)
class TrialConfig:
    horizon: int
    seed: object = 0  # non-negative int, or a tuple or list of them
    variant: str = "auto"
    strategy: StaticStrategy | BernoulliDropStrategy = field(default_factory=StaticStrategy)
    replace_own: bool = False
    rounds_per_sample: int = 1
    initial_state_cov: np.ndarray | None = None

    def __post_init__(self):
        # runs on every construction, dataclasses.replace included
        _check_seed(self.seed)
        for name, low in (("horizon", 0), ("rounds_per_sample", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
                raise ConfigError(f"{name} must be an integer of at least {low}, got {value!r}")
        if not isinstance(self.replace_own, (bool, np.bool_)):
            raise ConfigError(f"replace_own must be true or false, got {self.replace_own!r}")


def check_trial(model: SystemModel, config: TrialConfig) -> str:
    """Check the variant, initial_state_cov, replace_own, the plant's
    growth over the horizon and the size of a trace's node estimates;
    returns the resolved variant."""
    n, m = model.n, model.m
    variant = resolve_variant(config.variant, n, m)
    if config.initial_state_cov is not None:
        P0 = np.asarray(config.initial_state_cov, dtype=float)
        if P0.shape != (n, n):
            raise ConfigError(f"initial_state_cov is {'x'.join(map(str, P0.shape))}, "
                              f"expected {n}x{n} for the plant order")
        if not is_psd(P0):
            raise ConfigError("initial_state_cov must be symmetric positive semidefinite")
    if config.replace_own and variant != "alg1":
        raise ConfigError("replace_own applies to variant alg1 only (auto picks alg2 when n < m)")
    # the simulator works in absolute coordinates, so x_hat - x loses
    # digits as the state grows like rho(A)^k
    rho, T = spectral_radius(model.A), int(config.horizon)
    if rho > 1.0 and T * np.log(rho) > np.log(_MAX_GROWTH):
        limit = int(np.log(_MAX_GROWTH) / np.log(rho))
        raise ConfigError(f"horizon {T} grows the plant by rho(A)^horizon = {rho:.6g}"
                          f"^{T} > {_MAX_GROWTH:.0e}; the limit is {limit} steps")
    if 8 * (T + 1) * m * n > _MAX_TRACE_BYTES:
        limit = _MAX_TRACE_BYTES // (8 * m * n) - 1
        raise ConfigError(f"horizon {T} needs more than {_MAX_TRACE_BYTES} bytes for a trace's "
                          f"node estimates; the limit is {limit} steps")
    return variant


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """One trial's arrays."""

    x: np.ndarray        # (T+1, n) truth
    y: np.ndarray        # (T+1, m) measurements
    xhat: np.ndarray     # (T+1, n) centralized estimate
    xbreve: np.ndarray   # (T+1, m, n) per-node fused estimates
    variant: str
    horizon: int
    seed: object

    @property
    def errors(self) -> np.ndarray:
        """Per-node estimation errors xbreve_i(k) - x(k), (T+1, m, n)."""
        return self.xbreve - self.x[:, None, :]

    @property
    def deviations(self) -> np.ndarray:
        """Per-node deviations from the centralized estimate, (T+1, m, n)."""
        return self.xbreve - self.xhat[:, None, :]


def _rng(seed, child: int) -> np.random.Generator:
    """Child ``child`` of ``SeedSequence(seed).spawn``, which has key (child,)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(child,))))


def run_trial(
    model: SystemModel, designs: DesignSet, config: TrialConfig, *, seeds=None
) -> SimulationTrace | MonteCarloResult:
    """Simulate one seeded trial; returns its trace.

    Node and filter states start at zero.  x(0) is zero unless
    ``initial_state_cov`` is given, in which case it is sampled first.

    With ``seeds`` (a sequence of seeds, ``config.seed`` unused) the
    trials run as one batch and the result is its ``MonteCarloResult``,
    the mean squared errors and deviations over its trials; the kernel
    sums them in blocks of steps sized by ``_BATCH_BYTES``.  Each trial
    draws its noise and link flags from its own streams, in the same
    order as a single trial.
    """
    n, m, T = model.n, model.m, int(config.horizon)
    variant = check_trial(model, config)
    if variant == "alg2" and designs.reduced is None:
        raise ConfigError("variant alg2 requires the reduced-order bundle")

    batch = [config.seed] if seeds is None else list(seeds)
    if not batch:
        raise ConfigError("seeds must hold at least one seed")
    for seed in batch:
        _check_seed(seed)
    Lq, Lr = psd_factor(model.Q), psd_factor(model.R)
    L0 = None
    if config.initial_state_cov is not None:
        L0 = psd_factor(np.asarray(config.initial_state_cov, dtype=float))
    x0 = np.zeros((len(batch), n))
    w = np.empty((len(batch), T, n))
    v = np.empty((len(batch), T + 1, m))
    flags = []
    for b, seed in enumerate(batch):
        noise_rng = _rng(seed, 0)
        if L0 is not None:
            x0[b] = L0 @ noise_rng.standard_normal(n)
        noise_rng.standard_normal(out=w[b])
        noise_rng.standard_normal(out=v[b])
        link_rng = None if isinstance(config.strategy, StaticStrategy) else _rng(seed, 1)
        flags.append(config.strategy.sample_gains(designs.graph.adjacency, T,
                                                  config.rounds_per_sample, link_rng))
    w = w @ Lq.T
    v = v @ Lr.T

    kd, bundle = designs.kalman, designs.bundle
    plant = (model.A, model.C, kd.Acl, kd.K, bundle.S, bundle.beta)
    drive = (designs.consensus.Gamma, designs.graph.adjacency, np.stack(flags), w, v[:, 0],
             v[:, 1:], x0)
    chunk = None if seeds is None else _batch_plan(model, designs.graph, config, variant)[1]
    if variant == "alg1":
        out = _kernels.sim_alg1(*plant, *drive, config.replace_own, chunk)
    else:
        Tb = np.stack([designs.reduced.T_blocks(i) for i in range(m)])
        out = _kernels.sim_alg2(*plant, Tb, *drive, chunk)
    if seeds is None:
        return SimulationTrace(*(a[0] for a in out[:4]), variant=variant, horizon=T,
                               seed=config.seed)
    sq_err, sq_dev = out[6:]
    sq_err /= len(batch)
    sq_dev /= len(batch)
    return MonteCarloResult(mse=sq_err, dev_sq=sq_dev, trials=len(batch), variant=variant)


@dataclass(frozen=True, eq=False)
class MonteCarloResult:
    mse: np.ndarray        # (T+1, m, n) mean squared error vs truth
    dev_sq: np.ndarray     # (T+1, m, n) mean squared deviation vs central estimate
    trials: int
    variant: str

    def node_mse(self, steps) -> np.ndarray:
        """Per-node, per-state MSE averaged over the given step range."""
        return self.mse[steps].mean(axis=0)

    def tr_wbar(self, steps) -> float:
        """Estimate of the total deviation power sum_i E||xbreve_i - xhat||^2
        averaged over the given steps."""
        return float(self.dev_sq[steps].sum(axis=(1, 2)).mean())


# Byte budget of one Monte-Carlo batch, counted on each trial's working
# set in the kernel: w, v, [x; xhat], y, the local filters, three copies
# of the consensus state at most (two buffers of the stepped coordinates,
# the full state, the stable filter's update), the link flags when they
# change per step (a byte per step, round and edge), and per block step a
# block buffer slot (n + 2 r) m, y and z (2 m), and the larger of the
# reduction's x or xhat (n m) and the stable filter's products (2 r m).
# A block holds at most _kernels._BLOCK steps, no more than fit in 1/16 of
# the budget for one trial; a batch, as many trials as fit: 4 trials in
# blocks of 10 steps for heat (example2), 102 in blocks of 16 for example1.
_BATCH_BYTES = 7 * 256 * 1024


def _batch_plan(model: SystemModel, graph: SensorGraph, config: TrialConfig, variant: str):
    """Trials per batch and steps per block under ``_BATCH_BYTES``."""
    T, m, n = config.horizon, model.m, model.n
    r = message_dimension(variant, n, m)
    fixed = 8 * (T * n + (T + 1) * 2 * (n + m) + n * m + 3 * n * r * m)
    if not isinstance(config.strategy, StaticStrategy):
        fixed += T * config.rounds_per_sample * (np.count_nonzero(graph.adjacency) // 2)
    step = 8 * m * (n + 2 * r + 2 + max(n, 2 * r))
    chunk = max(1, min(T, _kernels._BLOCK, _BATCH_BYTES // (16 * step)))
    return max(1, _BATCH_BYTES // (fixed + chunk * step)), chunk


def run_monte_carlo(
    model: SystemModel, designs: DesignSet, config: TrialConfig, trials: int
) -> MonteCarloResult:
    """Average squared errors over independent seeded trials.

    Trial t runs with seed entropy ``(master, t)``; trials are mutually
    independent and may be distributed across processes by partitioning
    the trial index range (aggregation is a plain mean).  Trials run in
    batches, and the kernel sums their squares in blocks of steps, both
    sized by ``_BATCH_BYTES``.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    seed = config.seed
    base = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    variant = check_trial(model, config)
    size = _batch_plan(model, designs.graph, config, variant)[0]
    mse, dev_sq = np.zeros((2, config.horizon + 1, model.m, model.n))
    for start in range(0, trials, size):
        seeds = [base + (t,) for t in range(start, min(start + size, trials))]
        part = run_trial(model, designs, config, seeds=seeds)
        mse += part.trials * part.mse
        dev_sq += part.trials * part.dev_sq
        del part  # free this batch's means before the next batch runs
    mse /= trials
    dev_sq /= trials
    return MonteCarloResult(mse=mse, dev_sq=dev_sq, trials=trials, variant=variant)


# --- CSV export -----------------------------------------------------------

def _write_csv(path, cols, rows: np.ndarray) -> None:
    """The header ``cols``, then row k of ``rows`` as k and each value's repr."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(cols) + "\n")
        for k, row in enumerate(rows):
            fh.write(",".join([str(k)] + [repr(v) for v in row.tolist()]) + "\n")


def write_trace_csv(trace: SimulationTrace, path) -> None:
    """Header: k,x_1..x_n,xhat_1..xhat_n,node<i>_xbreve_1..n,..."""
    steps, m, n = trace.xbreve.shape
    cols = ["k"] + [f"x_{s + 1}" for s in range(n)] + [f"xhat_{s + 1}" for s in range(n)]
    cols += [f"node{i + 1}_xbreve_{s + 1}" for i in range(m) for s in range(n)]
    _write_csv(path, cols, np.hstack([trace.x, trace.xhat, trace.xbreve.reshape(steps, -1)]))


def write_mse_csv(result: MonteCarloResult, path) -> None:
    """Per-step MSE per node: state columns plus a per-node total."""
    steps, m, n = result.mse.shape
    cols = ["k"]
    for i in range(m):
        cols += [f"node{i + 1}_mse_{s + 1}" for s in range(n)] + [f"node{i + 1}_mse"]
    total = result.mse.sum(axis=2)[..., None]
    _write_csv(path, cols, np.concatenate([result.mse, total], axis=2).reshape(steps, -1))

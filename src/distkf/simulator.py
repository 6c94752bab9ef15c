"""Trial and Monte-Carlo simulation of the distributed estimators.

Execution is synchronous lockstep: at step k every node reads the
step-k broadcasts, then the whole network advances to k+1.  The
centralized Kalman filter is co-simulated on the same noise realization
so traces carry the optimal estimate alongside the per-node ones.

Reproducibility: every trial owns counter-based RNG streams derived from
``SeedSequence`` entropy, with separate children for plant noise and for
link failures.  Monte-Carlo trial t of master seed s uses entropy
``(s, t)``, so any trial can be replayed in isolation.

Batching: ``run_trial(..., seeds=...)`` runs several trials through the
kernel at once, along a leading trial axis, and ``run_monte_carlo`` runs
its trials in such batches.  Each trial still draws from its own streams,
with the same draws in the same order as when it runs alone, so batching
changes a trial's result only by roundoff.  Monte Carlo never keeps a
batch's node estimates: ``run_trial(..., chunk=c)`` has the kernel sum
the squared errors and deviations c steps at a time and returns the
batch's ``MonteCarloResult``.  ``_BATCH_BYTES`` sets both sizes from one
budget on a trial's working set in the kernel, so it bounds the memory
Monte Carlo adds, while the per-step cost of the Python loop is shared by
the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .consensus import BernoulliDropStrategy, ConsensusDesign, StaticStrategy
from .decomposition import DecompositionBundle, ReducedBundle, psd_factor
from .errors import ConfigError
from .kalman import KalmanDesign
from .plant import SensorGraph, SplitModel, SystemModel


def resolve_variant(variant: str, n: int, m: int) -> str:
    """``auto`` picks the variant with the smaller broadcast: alg2 when
    n < m (messages of size n), alg1 otherwise (messages of size m)."""
    if variant == "auto":
        return "alg2" if n < m else "alg1"
    if variant not in ("alg1", "alg2"):
        raise ConfigError(f"unknown variant {variant!r}")
    return variant


def message_dimension(variant: str, n: int, m: int) -> int:
    return m if variant == "alg1" else n


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
    seed: object = 0  # int, tuple of ints, or numpy SeedSequence
    variant: str = "auto"
    strategy: StaticStrategy | BernoulliDropStrategy = field(default_factory=StaticStrategy)
    replace_own: bool = False
    rounds_per_sample: int = 1
    initial_state_cov: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """One trial's arrays; a batch of trials adds a leading trial axis to
    each, and ``seed`` is then the list of the trials' seeds."""

    x: np.ndarray        # (T+1, n) truth
    y: np.ndarray        # (T+1, m) measurements
    xhat: np.ndarray     # (T+1, n) centralized estimate
    xbreve: np.ndarray   # (T+1, m, n) per-node fused estimates
    variant: str
    horizon: int
    seed: object

    @property
    def errors(self) -> np.ndarray:
        """Per-node estimation errors xbreve_i(k) - x(k), (T+1, m, n)
        (with the trial axis first for a batch)."""
        return self.xbreve - self.x[..., None, :]

    @property
    def deviations(self) -> np.ndarray:
        """Per-node deviations from the centralized estimate, (T+1, m, n)
        (with the trial axis first for a batch)."""
        return self.xbreve - self.xhat[..., None, :]


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _rng(ss: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(ss))


def run_trial(
    model: SystemModel, designs: DesignSet, config: TrialConfig, *, seeds=None, chunk=None
) -> SimulationTrace | MonteCarloResult:
    """Simulate one seeded trial; returns the full trace.

    Node and filter states start at zero.  x(0) is zero unless
    ``initial_state_cov`` is given, in which case it is sampled first.

    With ``seeds`` (a sequence of seeds, ``config.seed`` unused) the
    trials run as one batch: every array of the returned trace gains a
    leading trial axis, and slice t equals the trial run alone with
    ``seeds[t]`` up to roundoff.  Each trial draws its noise and link
    weights from its own streams, in the same order as a single trial.

    With ``chunk`` (steps of node estimates the kernel buffers) no trace
    is kept: the result is the ``MonteCarloResult`` of the batch, the
    mean squared errors and deviations over its trials.
    """
    n, m = model.n, model.m
    T = int(config.horizon)
    variant = resolve_variant(config.variant, n, m)
    if variant == "alg2" and designs.reduced is None:
        raise ConfigError("variant alg2 requires the reduced-order bundle")
    if config.replace_own and variant != "alg1":
        raise ConfigError("replace_own applies to variant alg1 only")
    if config.rounds_per_sample < 1:
        raise ConfigError("rounds_per_sample must be >= 1")

    batch = [config.seed] if seeds is None else list(seeds)
    if not batch:
        raise ConfigError("seeds must hold at least one seed")
    Lq, Lr = psd_factor(model.Q), psd_factor(model.R)
    L0 = None
    if config.initial_state_cov is not None:
        L0 = psd_factor(np.asarray(config.initial_state_cov, dtype=float))
    x0 = np.zeros((len(batch), n))
    w = np.empty((len(batch), T, n))
    v = np.empty((len(batch), T + 1, m))
    gains = None
    for b, seed in enumerate(batch):
        noise_ss, link_ss = _seed_sequence(seed).spawn(2)
        noise_rng = _rng(noise_ss)
        if L0 is not None:
            x0[b] = L0 @ noise_rng.standard_normal(n)
        noise_rng.standard_normal(out=w[b])
        noise_rng.standard_normal(out=v[b])
        g = config.strategy.sample_gains(
            designs.graph.adjacency, T, config.rounds_per_sample, _rng(link_ss)
        )
        # links that never change are passed once, not once per step
        g = g[:1] if g.strides[0] == 0 else g
        if gains is None:
            gains = np.empty((len(batch),) + g.shape)
        gains[b] = g
    w = w @ Lq.T
    v = v @ Lr.T

    kd, bundle = designs.kalman, designs.bundle
    if variant == "alg1":
        out = _kernels.sim_alg1(
            model.A, model.C, kd.Acl, kd.K, bundle.S, bundle.beta, bundle.F,
            designs.consensus.Gamma, gains, w, v[:, 0], v[:, 1:], x0, config.replace_own, chunk,
        )
    else:
        Tb = np.stack([designs.reduced.T_blocks(i) for i in range(m)])
        out = _kernels.sim_alg2(
            model.A, model.C, kd.Acl, kd.K, bundle.S, bundle.beta, Tb,
            designs.consensus.Gamma, gains, w, v[:, 0], v[:, 1:], x0, chunk,
        )
    if chunk is not None:
        sq_err, sq_dev = out
        sq_err /= len(batch)
        sq_dev /= len(batch)
        return MonteCarloResult(mse=sq_err, dev_sq=sq_dev, trials=len(batch), variant=variant)
    x, y, xhat, xbreve = out[:4]
    if seeds is None:
        x, y, xhat, xbreve = x[0], y[0], xhat[0], xbreve[0]
    return SimulationTrace(
        x=x, y=y, xhat=xhat, xbreve=xbreve, variant=variant, horizon=T,
        seed=config.seed if seeds is None else batch,
    )


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
# set in the kernel: the two buffers of its local filters and consensus
# state, its noise and plant arrays (w, v, x, y, xhat), its link weights
# when they change per step, and its share of the chunk, 16 m n bytes per
# buffered step (the node estimates and their difference from x or xhat).
# A chunk holds as many steps as fit in 1/64 of the budget for one trial,
# at most the whole horizon; a batch then holds as many trials as fit.
# On a 2-core Xeon with 2 MB of L2 per core, heat (example2) ran fastest
# at 6 or 7 trials a batch, which 1.75 MiB gives it (chunks of 4 steps);
# example1 gets 74 trials a batch over its whole horizon.
_BATCH_BYTES = 7 * 256 * 1024


def _batch_plan(model: SystemModel, config: TrialConfig, variant: str):
    """Trials per batch and steps per chunk under ``_BATCH_BYTES``."""
    T, m, n = int(config.horizon), model.m, model.n
    r = m if variant == "alg1" else n
    fixed = 2 * m * (r + 1) * n + T * n + (T + 1) * 2 * (n + m)
    if not isinstance(config.strategy, StaticStrategy):
        fixed += T * config.rounds_per_sample * m * m
    step = 16 * m * n
    chunk = min(T + 1, max(1, _BATCH_BYTES // (64 * step)))
    return max(1, _BATCH_BYTES // (8 * fixed + chunk * step)), chunk


def run_monte_carlo(
    model: SystemModel, designs: DesignSet, config: TrialConfig, trials: int
) -> MonteCarloResult:
    """Average squared errors over independent seeded trials.

    Trial t runs with seed entropy ``(master, t)``; trials are mutually
    independent and may be distributed across processes by partitioning
    the trial index range (aggregation is a plain mean).  Trials run in
    batches, and the kernel sums their squares in chunks of steps, both
    sized by ``_BATCH_BYTES``.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    master = config.seed
    if isinstance(master, np.random.SeedSequence):
        raise ConfigError("Monte Carlo needs an integer (or tuple) master seed")
    if isinstance(master, (tuple, list)):
        base = tuple(int(v) for v in master)
    else:
        base = (int(master),)
    variant = resolve_variant(config.variant, model.n, model.m)
    T, m = int(config.horizon), model.m
    size, chunk = _batch_plan(model, config, variant)
    mse = np.zeros((T + 1, m, model.n))
    dev_sq = np.zeros((T + 1, m, model.n))
    for start in range(0, trials, size):
        seeds = [base + (t,) for t in range(start, min(start + size, trials))]
        part = run_trial(model, designs, config, seeds=seeds, chunk=chunk)
        mse += part.trials * part.mse
        dev_sq += part.trials * part.dev_sq
        del part  # free this batch's means before the next batch runs
    mse /= trials
    dev_sq /= trials
    return MonteCarloResult(mse=mse, dev_sq=dev_sq, trials=trials, variant=variant)


# --- CSV export -----------------------------------------------------------

def _fmt(value: float) -> str:
    return repr(float(value))


def write_trace_csv(trace: SimulationTrace, path) -> None:
    """Header: k,x_1..x_n,xhat_1..xhat_n,node<i>_xbreve_1..n,..."""
    n = trace.x.shape[1]
    m = trace.xbreve.shape[1]
    cols = ["k"]
    cols += [f"x_{s + 1}" for s in range(n)]
    cols += [f"xhat_{s + 1}" for s in range(n)]
    for i in range(m):
        cols += [f"node{i + 1}_xbreve_{s + 1}" for s in range(n)]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(trace.horizon + 1):
            row = [str(k)]
            row += [_fmt(v) for v in trace.x[k]]
            row += [_fmt(v) for v in trace.xhat[k]]
            for i in range(m):
                row += [_fmt(v) for v in trace.xbreve[k, i]]
            fh.write(",".join(row) + "\n")


def write_mse_csv(result: MonteCarloResult, path) -> None:
    """Per-step MSE per node: state columns plus a per-node total."""
    steps, m, n = result.mse.shape
    cols = ["k"]
    for i in range(m):
        cols += [f"node{i + 1}_mse_{s + 1}" for s in range(n)]
        cols.append(f"node{i + 1}_mse")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(steps):
            row = [str(k)]
            for i in range(m):
                row += [_fmt(v) for v in result.mse[k, i]]
                row.append(_fmt(result.mse[k, i].sum()))
            fh.write(",".join(row) + "\n")

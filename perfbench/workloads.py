"""Workload definitions shared by the runner (run.py) and the child (child.py).

Each workload fixes its input size (n, m, T, variant, trials per child) so
that a number measured on one commit compares with the same number on
another.  The generated scenarios are built here, in plain Python, so the
inputs stay the same when the program's own scenario helpers change.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    path: str        # "reproduce" (built-in example) or "simulate" (scenario JSON)
    trials: int      # Monte-Carlo trials per child
    ops: tuple       # phases and checks, each counted once per child
    example: str | None = None


# Trial counts keep a child short, so a run holds several children, while
# the statistical checks keep a wide margin: the worst per-node
# MC-vs-analytic gap stayed below 5% over 20 seeds (ex1-mc) and 16 runs
# (heat16-analytic), against the 10% limit.
#
# "check.average" (node average = Kalman estimate within 1e-8 on the
# replay trial) gates only the example1 workloads.  On both heat plants
# the program misses it by three to four orders of magnitude (about 1e-5
# on heat16, 1e-4 on example2), a defect of the decomposition's numerics
# that this benchmark must not hide and cannot fix; the gap is measured
# on every workload and reported as check.average_gap instead.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ex1-mc", "reproduce", 500, example="example1",
            ops=("design", "mc", "analytic", "write", "replay",
                 "check.average", "check.mc_vs_analytic", "check.outputs"),
        ),
        Workload(
            "heat-mc", "reproduce", 40, example="example2",
            ops=("design", "mc", "baselines", "write", "replay",
                 "check.heat_ratios", "check.outputs"),
        ),
        Workload(
            "ex1-drop", "simulate", 300,
            ops=("design", "mc", "replay", "analytic", "write",
                 "check.average", "check.outputs"),
        ),
        Workload(
            "heat16-analytic", "simulate", 200,
            ops=("design", "mc", "replay", "analytic", "write",
                 "check.mc_vs_analytic", "check.outputs"),
        ),
    )
}

# Operations of the children that stop early: "setup" after the design,
# "mc" after Monte Carlo.
PARTIAL_OPS = {"setup": ("design",), "mc": ("design", "mc")}


def _eye(n, scale=1.0):
    return [[scale if i == j else 0.0 for j in range(n)] for i in range(n)]


def ex1_drop_scenario(seed: int, trials: int) -> dict:
    """The example1 plant and 4-ring with alg1, 20% link drops and three
    consensus rounds per sample."""
    return {
        "system": {
            "A": [[0.9, 0.0], [0.0, 1.1]],
            "C": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]],
            "Q": _eye(2, 0.25),
            "R": _eye(4, 4.0),
        },
        "graph": {"kind": "ring", "m": 4, "weight": 1.0},
        "design": {"zeta": 0.5, "variant": "alg1"},
        "sim": {
            "horizon": 100, "trials": trials, "seed": seed,
            "rounds_per_sample": 3, "drop_prob": 0.2, "initial_state_cov": _eye(2),
        },
    }


def heat16_scenario(seed: int, trials: int) -> dict:
    """4x4 zero-flux heat grid (n=16) watched by m=10 sensors, radius 2.0,
    alg1.

    Sensors are placed by jittered sampling: [0, 3)^2 is tiled by 5 x 2
    cells of 0.6 x 1.5 and each cell holds one sensor at a uniform point.
    Every point of the grid is equally likely, as with i.i.d. placement,
    but neighbours along a row are always within the radius, so the graph
    is connected for all but about 2 in 10^4 seeds (i.i.d. placement
    disconnects about 1 in 100).  A seed whose design fails is counted as
    a failed operation, never redrawn.
    """
    N, alpha, radius = 4, 0.2, 2.0
    rng = random.Random(seed)
    pos = [((c + rng.random()) * 0.6, (r + rng.random()) * 1.5)
           for r in range(2) for c in range(5)]
    m, n = len(pos), N * N

    A = _eye(n)
    for i in range(N):
        for j in range(N):
            for ii, jj in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if 0 <= ii < N and 0 <= jj < N:
                    A[i * N + j][i * N + j] -= alpha
                    A[i * N + j][ii * N + jj] += alpha

    C = [[0.0] * n for _ in range(m)]
    for s, (gx, gy) in enumerate(pos):
        i, j = int(gx), int(gy)
        d1, d2 = gx - i, gy - j
        C[s][i * N + j] = (1 - d1) * (1 - d2)
        C[s][(i + 1) * N + j] = d1 * (1 - d2)
        C[s][i * N + j + 1] = (1 - d1) * d2
        C[s][(i + 1) * N + j + 1] = d1 * d2

    adj = [[1.0 if a != b and (pa[0] - pb[0]) ** 2 + (pa[1] - pb[1]) ** 2 <= radius**2 else 0.0
            for b, pb in enumerate(pos)] for a, pa in enumerate(pos)]
    return {
        "system": {"A": A, "C": C, "Q": _eye(n, 0.04), "R": _eye(m, 9.0)},
        "graph": {"kind": "custom", "adjacency": adj},
        "design": {"variant": "alg1"},
        "sim": {"horizon": 100, "trials": trials, "seed": seed},
    }


GENERATORS = {"ex1-drop": ex1_drop_scenario, "heat16-analytic": heat16_scenario}


def write_scenario(workload: Workload, seed: int, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(GENERATORS[workload.name](seed, workload.trials), fh)

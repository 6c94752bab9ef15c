"""End-to-end design pipeline: plant validation through consensus gain."""

from __future__ import annotations

from .consensus import design_consensus
from .decomposition import build_bundle, reduce_model
from .kalman import design_kalman, design_local_kf
from .errors import DimensionMismatchError, NotDetectableError
from .plant import SensorGraph, SystemModel, split_model
from .simulator import DesignSet, resolve_variant


def design_pipeline(
    model: SystemModel,
    graph: SensorGraph,
    zeta: float | None = None,
    stable_poles=None,
    variant: str = "auto",
) -> DesignSet:
    """Run the full synthesis chain and return a simulation-ready DesignSet.

    Order: centralized Kalman design, spectral split, lossless
    decomposition, consensus gain on the local-filter matrix S, and the
    reduced-order bundle whenever the resolved variant is alg2.
    """
    if graph.m != model.m:
        raise DimensionMismatchError(
            f"graph has {graph.m} nodes but the model has {model.m} sensors"
        )
    kal = design_kalman(model)
    split = split_model(model)
    bundle = build_bundle(model, kal, split=split, stable_poles=stable_poles)
    cons = design_consensus(bundle.S, graph, zeta=zeta)
    resolved = resolve_variant(variant, model.n, model.m)
    reduced = reduce_model(bundle) if resolved == "alg2" else None
    return DesignSet(
        kalman=kal, split=split, bundle=bundle, consensus=cons, graph=graph, reduced=reduced
    )


def local_baselines(model: SystemModel):
    """Steady-state single-sensor filters; None where not detectable."""
    out = []
    for i in range(model.m):
        try:
            out.append(design_local_kf(model, i))
        except NotDetectableError:
            out.append(None)
    return out

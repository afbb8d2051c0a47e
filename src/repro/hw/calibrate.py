"""Trace-fitted device-profile calibration.

Closes the loop between the two halves the repo already has: the analytic
cost model (:mod:`repro.hw.latency`, simulated per-node seconds) and the
observability spans (:mod:`repro.obs`, measured ``plan.node`` seconds from
tracing :class:`~repro.runtime.engine.Engine` runs).  Following the
calibrated-performance-model loop of the paper's deployment story, each
fit group solves::

    measured_s  ~=  factor[key] * work_s  +  overhead_s[key]

where ``work_s`` is the base device model's predicted non-overhead time
(im2col + accumulation + transform + other stages) for the node, by
relative-error-weighted least squares.  Fits run at two granularities —
per *op* (the precise model; meets the error budget) and per *op class*
(the Table-4 buckets; fallback for ops the workload never exercised) —
and both land in the :class:`~repro.hw.device.DeviceProfile` artifact,
which :func:`repro.ops.registry.node_cost` applies to every estimate, so
``graph_latency`` and every table priced through it (``cli profile``,
the experiments) use the fitted constants.

Determinism contract: this module draws no entropy and reads no clocks
itself — the single seeded RNG below generates input data, and all timing
happens inside the :class:`~repro.obs.trace.Tracer` recording boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.device import (
    DeviceModel,
    DeviceProfile,
    FitReport,
    NodeResidual,
    as_profile,
)

#: the default calibration workload (the paper's flagship model)
DEFAULT_MODELS = ("quicknet_small",)

#: measured node times below this are timer-resolution noise; clamp so
#: relative-error weights stay finite
_MIN_MEASURED_S = 1e-9


@dataclass(frozen=True)
class CalibrationSample:
    """One per-node observation: measured seconds vs modelled work."""

    model: str
    node: str
    op: str
    op_class: str
    #: median across recorded repeats of the node's ``plan.node`` span
    measured_s: float
    #: base-profile predicted non-overhead seconds (the fit regressor)
    work_s: float


# -------------------------------------------------------------- collection
def collect_samples(
    models=DEFAULT_MODELS,
    input_size: int = 64,
    repeats: int = 5,
    base: "DeviceModel | DeviceProfile | str" = "pixel1",
    seed: int = 0,
) -> list[CalibrationSample]:
    """Run the zoo under a tracing engine and join measured vs modelled.

    Each model runs ``repeats + 1`` times — the first run (plan compile,
    weight prepacking, cache warm-up) is discarded, and each recorded run
    uses a fresh :class:`~repro.obs.trace.Tracer` so per-run node times
    never mix.  The per-node measurement is the median across recorded
    runs of that run's ``plan.node`` span duration.
    """
    from repro.converter import convert
    from repro.obs.export import node_seconds
    from repro.obs.trace import Tracer
    from repro.ops import ParamCache, node_cost, op_class_of
    from repro.runtime.engine import Engine
    from repro.zoo import build_model

    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    base_model = DeviceModel.by_name(base) if isinstance(base, str) else base
    base_profile = as_profile(base_model)
    rng = np.random.default_rng(seed)  # repro: allow[L104] seeded input-data entropy at the recording boundary

    samples: list[CalibrationSample] = []
    for model_name in models:
        graph = convert(build_model(model_name, input_size=input_size)).graph
        in_spec = graph.tensors[graph.inputs[0]]
        x = rng.standard_normal(in_spec.shape).astype(np.float32)

        cache = ParamCache()  # shared across repeats: compile once, run many
        per_run: list[dict[str, float]] = []
        for rep in range(repeats + 1):
            tracer = Tracer()
            with Engine(graph, trace=tracer, param_cache=cache) as engine:
                engine.run(x)
            if rep == 0:
                continue  # warm-up: plan compile + first-touch effects
            per_run.append(node_seconds(tracer.spans(), names=("plan.node",)))

        for node in graph.nodes:
            values = [run[node.name] for run in per_run if node.name in run]
            if not values:
                continue
            input_specs = [graph.tensors[t] for t in node.inputs]
            output_specs = [graph.tensors[t] for t in node.outputs]
            try:
                cost = node_cost(base_profile, node, input_specs, output_specs)
            except ValueError:
                continue  # no cost hook: nothing to calibrate against
            samples.append(
                CalibrationSample(
                    model=model_name,
                    node=node.name,
                    op=node.op,
                    op_class=op_class_of(node.op),
                    measured_s=float(np.median(values)),
                    work_s=cost.total_s - cost.overhead_s,
                )
            )
    return samples


# -------------------------------------------------------------------- fit
def _fit_class(work: np.ndarray, measured: np.ndarray) -> tuple[float, float]:
    """Fit ``measured ~= a * work + b`` for one op class, ``a, b >= 0``.

    Rows are weighted by ``1 / measured`` so the least-squares objective is
    the *relative* error — the quantity the error budget gates.  Degenerate
    classes (one sample, or no spread in work) collapse to the constant
    fit, and negative coefficients fall back to the nearest constrained
    solution (proportional-through-origin, then constant).
    """
    m = np.maximum(measured.astype(float), _MIN_MEASURED_S)
    w = work.astype(float)
    u = 1.0 / m

    a = b = float("nan")
    if w.size >= 2 and float(np.ptp(w)) > 0:
        design = np.stack([w * u, u], axis=1)
        try:
            coef, *_ = np.linalg.lstsq(design, np.ones_like(m), rcond=None)
            a, b = float(coef[0]), float(coef[1])
        except np.linalg.LinAlgError:
            pass
    if np.isfinite(a) and np.isfinite(b) and a >= 0 and b < 0:
        # Constrain b to zero: weighted proportional fit through the origin.
        b = 0.0
        denom = float(np.sum(u * u * w * w))
        a = float(np.sum(u * u * w * m)) / denom if denom > 0 else float("nan")
    if not (np.isfinite(a) and np.isfinite(b)) or a < 0 or b < 0:
        # Constant fit: the best single value under relative-error weights
        # (classes whose nodes all cost the same, e.g. dispatch-only ops).
        a, b = 0.0, float(np.median(m))
    return a, b


def fit_profile(
    samples: list[CalibrationSample],
    base: "DeviceModel | str" = "pixel1",
    name: str = "calibrated",
    *,
    input_size: int = 0,
    repeats: int = 0,
) -> DeviceProfile:
    """Fit per-op and per-op-class coefficients, build the artifact.

    Two granularities go into the profile: per-op coefficients for every
    op observed during collection (the precise fit — op classes
    lump heterogeneous ops), and per-op-class coefficients as the
    fallback for ops the calibration workload never exercised.  The
    returned profile also carries a :class:`~repro.hw.device.FitReport`
    with one residual per sample and the median/mean/max absolute
    relative error — the numbers the ``calibrate-smoke`` CI gate asserts
    against.
    """
    if not samples:
        raise ValueError("cannot fit a profile from zero samples")
    base_model = DeviceModel.by_name(base) if isinstance(base, str) else base

    def fit_groups(key) -> tuple[dict[str, float], dict[str, float]]:
        groups: dict[str, list[CalibrationSample]] = {}
        for sample in samples:
            groups.setdefault(key(sample), []).append(sample)
        factors: dict[str, float] = {}
        overheads: dict[str, float] = {}
        for group_key, group in sorted(groups.items()):
            a, b = _fit_class(
                np.array([s.work_s for s in group]),
                np.array([s.measured_s for s in group]),
            )
            factors[group_key] = a
            overheads[group_key] = b
        return factors, overheads

    class_factors, class_overheads = fit_groups(lambda s: s.op_class)
    op_factors, op_overheads = fit_groups(lambda s: s.op)

    residuals = []
    abs_pct = []
    for sample in samples:
        predicted = (
            op_factors[sample.op] * sample.work_s + op_overheads[sample.op]
        )
        measured = max(sample.measured_s, _MIN_MEASURED_S)
        pct = 100.0 * (predicted - measured) / measured
        abs_pct.append(abs(pct))
        residuals.append(
            NodeResidual(
                model=sample.model,
                node=sample.node,
                op=sample.op,
                op_class=sample.op_class,
                measured_s=sample.measured_s,
                predicted_s=predicted,
                pct_error=pct,
            )
        )

    fit = FitReport(
        models=tuple(sorted({s.model for s in samples})),
        input_size=input_size,
        repeats=repeats,
        samples=len(samples),
        median_abs_pct_error=float(np.median(abs_pct)),
        mean_abs_pct_error=float(np.mean(abs_pct)),
        max_abs_pct_error=float(np.max(abs_pct)),
        residuals=tuple(residuals),
    )
    return DeviceProfile(
        name=name,
        device=base_model,
        class_factors=class_factors,
        class_overhead_s=class_overheads,
        op_factors=op_factors,
        op_overhead_s=op_overheads,
        fit=fit,
    )


def calibrate(
    models=DEFAULT_MODELS,
    input_size: int = 64,
    repeats: int = 5,
    base: "DeviceModel | str" = "pixel1",
    name: str = "calibrated",
    seed: int = 0,
) -> DeviceProfile:
    """Collect traced samples from the zoo and fit a device profile.

    The one-call entry point behind ``python -m repro.cli calibrate`` and
    ``make calibrate-smoke``.
    """
    samples = collect_samples(
        models=models,
        input_size=input_size,
        repeats=repeats,
        base=base,
        seed=seed,
    )
    return fit_profile(
        samples,
        base=base,
        name=name,
        input_size=input_size,
        repeats=repeats,
    )

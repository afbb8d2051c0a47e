"""One workload in one fresh process: set up, measure, check, report.

``bench.run`` starts this module with ``python -m bench.worker``; it is
not meant to be called by hand.  It prints one JSON object on its last
line of standard output.

Set-up is timed from ``--t0`` (the parent's ``time.monotonic()`` just
before it started this process — the same clock in every process on this
host) to the moment the first reply is in hand; the reply is then checked
against the reference ``Executor``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import statistics
import sys
import time
from typing import Any

import numpy as np
from repro.converter import convert
from repro.graph import Executor
from repro.obs import Tracer
from repro.ops import registry
from repro.runtime import Engine
from repro.serving import Gateway
from repro.serving.gateway import FAILED_REPLICA, GatewayConfig, Rejected
from repro.zoo import build_model

from bench import ROOT, loadgen, metrics, stats, trace
from bench.proxy import TimedEngine, emit_spans
from bench.workloads import (
    BY_NAME,
    GATEWAY_CONFIG,
    MAX_LATENESS_MS,
    MIN_WINDOW_OPS,
    MODEL,
    QUIET_WINDOW_S,
    SERVED_NAME,
    SLO_SLICES,
    TRACED_SECONDS,
    iter_pool,
    make_pool,
    poisson_schedule,
)


def _rss_mb() -> float:
    """Resident set size now (Linux ``/proc``); 0 where that is unavailable."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 1e6


class Target:
    """The system under test for one workload: an ``Engine`` or a ``Gateway``.

    ``recorder`` swaps every engine for the bench's timing proxy;
    ``tracer`` attaches the program's own ``Tracer`` instead.
    """

    def __init__(self, spec, model, recorder=None, tracer=None) -> None:
        self.spec = spec
        self.gateway = None
        engine_cls = (
            functools.partial(TimedEngine, recorder=recorder)
            if recorder is not None
            else Engine
        )
        if spec.served:
            config = GatewayConfig(**GATEWAY_CONFIG)
            self.gateway = Gateway(
                {SERVED_NAME: model}, config, trace=tracer, engine_factory=engine_cls
            )
            self.gateway.warmup(range(1, config.max_batch + 1))
            self.engines = self.gateway.server(SERVED_NAME).engines
            self.replicas = config.replicas
            self._max_batch = config.max_batch
        else:
            engine = engine_cls(model, num_threads=1, max_batch_size=8, trace=tracer)
            engine.plan(spec.images_per_op)
            self.engines = [engine]
            self.replicas = 1

    # ------------------------------------------------------------ operations
    def submit(self, x):
        return self.gateway.submit(SERVED_NAME, x)

    def call(self, inputs):
        """One closed-loop engine operation; one reply per input."""
        engine = self.engines[0]
        if self.spec.mode == "run":
            return [engine.run(inputs[0])]
        return engine.run_many(inputs)

    def warm(self, x0) -> list:
        """Exercise every batch factor the workload can hit; returns the replies.

        Served: bursts of 1..8 and then 8..1 copies of ``x0`` — with two
        round-robin replicas the second ramp lands each size on the other
        replica.  Engine: the workload's own operation, once.
        """
        if not self.spec.served:
            return list(self.call([x0[...] for _ in range(self.spec.images_per_op)]))
        replies = []
        sizes = list(range(1, self._max_batch + 1))
        for size in sizes + sizes[::-1]:
            futures = [self.submit(x0[...]) for _ in range(size)]
            replies.extend(f.result(timeout=60.0) for f in futures)
        return replies

    def measure(self, pool, refs, seconds, schedule=None, recorder=None):
        """One phase of the workload's own traffic."""
        spec = self.spec
        if spec.mode == "open":
            return loadgen.open_loop(
                self.submit, schedule, pool, refs, seconds,
                Rejected, FAILED_REPLICA, recorder,
            )
        if spec.mode == "saturate":
            return loadgen.saturate(
                self.submit, spec.in_flight, pool, refs, seconds,
                Rejected, FAILED_REPLICA, recorder,
            )
        return loadgen.closed_loop(
            self.call, pool, refs, spec.images_per_op, seconds, recorder
        )

    def busy_s(self) -> float:
        return sum(e.stats().busy_s for e in self.engines)

    def plan_cache_misses(self) -> int:
        return sum(e.stats().plan_cache_misses for e in self.engines)

    def workspace_mb(self) -> float:
        return sum(e.stats().workspace_bytes for e in self.engines) / 1e6

    def close(self) -> None:
        if self.gateway is not None:
            self.gateway.close()
        else:
            for engine in self.engines:
                engine.close()


def _phase_with_retry(target, spec, seed, pool, refs, seconds, recorder=None):
    """Measure; an open-loop run the generator was late for is redone once.

    Returns the phase that counts and a note per discarded attempt.  With a
    ``recorder``, only the counted attempt's spans and engine calls are kept.
    """
    notes = []
    for attempt in (0, 1):
        if recorder is not None:
            recorder.clear()
            for engine in target.engines:
                engine.calls.clear()
        schedule = (
            poisson_schedule(seed + attempt * 7919, spec.rate_rps, seconds)
            if spec.mode == "open"
            else None
        )
        phase = target.measure(pool, refs, seconds, schedule, recorder)
        if spec.mode != "open":
            return phase, notes
        # p90, not p99: one host stall holds up a dozen requests in a row —
        # over 1 % of a run — whatever the generator does, and the replicas'
        # hold on the interpreter lock alone puts p99 at 6-8 ms.  A generator
        # that cannot keep up is late for far more than a tenth.
        lateness = stats.percentile(phase.lateness_ms(), 90.0)
        if lateness <= MAX_LATENESS_MS:
            return phase, notes
        notes.append(
            f"invalid: generator lateness p90 {lateness:.2f} ms > "
            f"{MAX_LATENESS_MS} ms on attempt {attempt + 1}"
        )
    return phase, notes


def _slo_attainment(phase, spec) -> tuple[float, float]:
    """Share of operations sent that came back correct within the limit:
    the median over ``SLO_SLICES`` equal slices of the phase (by due time),
    and over the whole phase.

    A host stall misses the limit for every request it delays, all in one
    slice; a program that is late now and then is late in every slice.  The
    median over slices keeps the second and drops the first.
    """
    within = [
        s == loadgen.OK and (d - t) * 1e3 <= spec.slo_ms
        for t, d, s in zip(phase.due, phase.done, phase.status)
    ]
    start = min(phase.due)
    span = (max(phase.due) - start) or 1.0
    slices: list[list[bool]] = [[] for _ in range(SLO_SLICES)]
    for t, hit in zip(phase.due, within):
        slices[min(SLO_SLICES - 1, int((t - start) / span * SLO_SLICES))].append(hit)
    shares = [sum(hits) / len(hits) for hits in slices if hits]
    return statistics.median(shares), sum(within) / len(within)


def summarise(phase, spec) -> tuple[dict[str, float], dict[str, Any]]:
    """End-to-end metrics of one phase, read in its quietest window, plus detail.

    This host has slow spells (other tenants; steal time reads zero): a few
    seconds at +50 % every half minute or so, and now and then a minute or
    two.  Interference only ever slows an operation down, so the quietest
    stretch of the run is the steadiest estimate of what the code costs here.
    A window is as many consecutive operations as complete in
    ``QUIET_WINDOW_S`` on average; ``lat_p50_ms`` is the lowest window median
    and ``throughput_ips`` the highest window rate.  On 36 s cuts of a
    six-minute ``single_224`` series that straddled two slow spells the
    whole-run median spread 0.29 between runs, the quietest of ten segments
    0.18 and this 0.07; on a calmer ``offline_b8_64`` series 0.13, 0.03, 0.02;
    over thirteen ``serve_steady_32`` runs an hour apart 0.17, 0.18 (lower
    quartile of six slices) and 0.09.  The whole-phase numbers, with the
    process's CPU time per image, go into the detail.
    """
    ok = sorted(
        (d, (d - t) * 1e3)
        for t, d, s in zip(phase.due, phase.done, phase.status)
        if s == loadgen.OK
    )
    if not ok:
        raise RuntimeError("no operation completed")
    latencies = [lat for _, lat in ok]
    per_op = phase.images_per_op
    wall = phase.ended[0] - phase.began[0]
    width = max(MIN_WINDOW_OPS, round(len(ok) * QUIET_WINDOW_S / wall))
    p50, rate = stats.quietest(phase.began[0], [d for d, _ in ok], latencies, width)
    whole = {
        "lat_p50_ms": statistics.median(latencies),
        "throughput_ips": len(ok) * per_op / wall,
        "cpu_ms_per_image": (phase.ended[1] - phase.began[1]) * 1e3 / (len(ok) * per_op),
    }
    slo, slo_whole = _slo_attainment(phase, spec)
    values = {
        "lat_p50_ms": p50,
        # A gateway's replies come a batch at a time, so a window's edges fall
        # inside bursts and its rate says little; the served workloads report
        # the whole phase's (on the open loop the schedule fixes it anyway).
        "throughput_ips": whole["throughput_ips"] if spec.served else rate * per_op,
        "slo_attainment": slo,
    }
    tail = stats.supported_tail(len(latencies))
    detail = {
        "window_ops": min(width, len(ok)),
        "whole_phase": {**whole, "slo_attainment": slo_whole},
        "samples": len(latencies),
        "status": {
            s: phase.count(s)
            for s in (loadgen.OK, loadgen.SHED, loadgen.FAILED,
                      loadgen.TIMEOUT, loadgen.MISMATCH)
        },
        "slo_ms": spec.slo_ms,
    }
    if tail is not None:
        detail["tail"] = {"percentile": tail, "ms": stats.percentile(latencies, tail)}
    if spec.mode == "open":
        detail["gen_lateness_p99_ms"] = stats.percentile(phase.lateness_ms(), 99.0)
    return values, detail


def _warm_seconds(spec, seconds: float) -> float:
    """Unrecorded traffic before a measured phase.

    A fresh gateway runs ~2x faster for its first second or two, until the
    scheduler has spread its replica threads over both cores (see the
    README); the served workloads warm up past that.
    """
    longest = 3.0 if spec.served else 1.0
    return min(longest, max(0.2, 0.15 * seconds))


def run_untraced(args, spec) -> dict[str, Any]:
    pool_iter = iter_pool(args.seed, spec.input_size)
    # Only the first image exists before the set-up stamp; the rest of the
    # pool and its references are the benchmark's cost, not the program's.
    x0 = next(pool_iter)
    model = convert(build_model(MODEL, input_size=spec.input_size))
    target = Target(spec, model)
    try:
        warm_replies = target.warm(x0)
        setup_s = time.monotonic() - args.t0

        executor = Executor(model.graph)
        ref0 = executor.run(x0)
        if not all(loadgen.matches(r, ref0) for r in warm_replies):
            raise SystemExit("first replies differ from the reference Executor")
        if args.setup_only:
            return {"setup_s": setup_s}

        pool = [x0, *pool_iter]
        refs = [ref0, *(executor.run(x) for x in pool[1:])]
        target.measure(pool, refs, _warm_seconds(spec, args.seconds),
                       _warm_schedule(args, spec))
        rss_before = _rss_mb()
        phase, notes = _phase_with_retry(
            target, spec, args.seed, pool, refs, args.seconds
        )
        rss_after = _rss_mb()
    finally:
        target.close()

    values, detail = summarise(phase, spec)
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    detail["rss_growth_mb"] = rss_after - rss_before
    detail["notes"] = notes
    return {
        "correct": phase.count(loadgen.MISMATCH) == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": values,
        "detail": detail,
    }


def _warm_schedule(args, spec):
    if spec.mode != "open":
        return None
    return poisson_schedule(
        args.seed + 1, spec.rate_rps, _warm_seconds(spec, args.seconds)
    )


def _engine_numbers(calls, graph) -> dict[str, float]:
    """``runtime.*`` and ``ops.*`` medians over the proxied engine calls."""
    metric_of = {
        registry.CLASS_LCE_BCONV: "ops.bconv_ms",
        registry.CLASS_LCE_QUANTIZE: "ops.quantize_ms",
        registry.CLASS_FP_CONV: "ops.fp_conv_ms",
        registry.CLASS_FP_ADD: "ops.fp_add_ms",
        registry.CLASS_FP_OTHER: "ops.fp_other_ms",
    }
    class_of = {n.name: metric_of[registry.op_class_of(n.op)] for n in graph.nodes}
    call_ms, exec_ms, engine_self_ms, plan_self_ms = [], [], [], []
    per_class: dict[str, list[float]] = {name: [] for name in metric_of.values()}
    for _name, c0, c1, _rids, executes in calls:
        in_exec = sum(e1 - e0 for e0, e1, _factor, _times in executes)
        call_ms.append((c1 - c0) * 1e3)
        exec_ms.append(in_exec * 1e3)
        engine_self_ms.append((c1 - c0 - in_exec) * 1e3)
        for e0, e1, _factor, node_times in executes:
            plan_self_ms.append((e1 - e0 - sum(node_times.values())) * 1e3)
            sums = dict.fromkeys(per_class, 0.0)
            for node, dur in node_times.items():
                sums[class_of[node]] += dur * 1e3
            for name, value in sums.items():
                per_class[name].append(value)
    out = {
        "runtime.engine_call_ms": statistics.median(call_ms),
        "runtime.plan_execute_ms": statistics.median(exec_ms),
        "runtime.engine_self_ms": statistics.median(engine_self_ms),
        "runtime.plan_self_ms": statistics.median(plan_self_ms),
    }
    out.update({name: statistics.median(v) for name, v in per_class.items()})
    return out


def _serving_numbers(
    phase, sums, calls, busy_share
) -> tuple[dict[str, float], list[str]]:
    """``serving.*`` from the traced phase of a gateway workload."""
    latencies = phase.latencies_ms()
    outside_batch = [
        (r.unattributed_s + r.by_layer.get(trace.LATE, 0.0)) * 1e3 for r in sums
    ]
    failed = sum(
        phase.count(s) for s in (loadgen.FAILED, loadgen.TIMEOUT, loadgen.MISMATCH)
    )
    out = {
        "serving.overhead_ms": statistics.median(outside_batch),
        "serving.submit_call_us": statistics.median(phase.submit_call_s) * 1e6,
        "serving.mean_batch": statistics.fmean(len(c[3]) for c in calls),
        "serving.batches": float(len(calls)),
        "serving.replica_busy_share": busy_share,
        "serving.shed": float(phase.count(loadgen.SHED)),
        "serving.failed": float(failed),
        "serving.lat_p95_ms": stats.percentile(latencies, 95.0),
        "serving.lat_p99_ms": stats.percentile(latencies, 99.0),
        "serving.gen_lateness_p99_ms": stats.percentile(phase.lateness_ms(), 99.0),
    }
    notes = []
    for q in (95.0, 99.0):
        beyond = stats.samples_beyond(len(latencies), q)
        if beyond < stats.MIN_BEYOND:
            notes.append(
                f"serving.lat_p{q:g}_ms has {beyond:.1f} samples beyond it "
                f"(< {stats.MIN_BEYOND}): indicative only"
            )
    return out, notes


def _conservation(sums, spans) -> dict[str, Any]:
    """Every request's spans against its latency, and what nobody explains."""
    latency_total = sum(r.latency_s for r in sums)
    return {
        "requests": len(sums),
        "max_abs_residual_ms": max((abs(r.residual_s) for r in sums), default=0.0) * 1e3,
        "unattributed_share": (
            sum(r.unattributed_s for r in sums) / latency_total if latency_total else 0.0
        ),
        "unattributed_ms_median": (
            statistics.median(r.unattributed_s for r in sums) * 1e3 if sums else 0.0
        ),
        "layer_self_ms": {k: v * 1e3 for k, v in trace.layer_self_s(spans).items()},
    }


def run_traced(args, spec) -> dict[str, Any]:
    """Per-layer numbers: an untraced phase, a traced one, one under the
    program's own ``Tracer``, then the stand-alone probes."""
    # Imported here: the probes pull in ``repro.tune``, which no workload
    # needs, and an untraced worker's imports count towards ``setup_s``.
    from bench import probes

    seconds = min(args.seconds, TRACED_SECONDS)
    pool = make_pool(args.seed, spec.input_size)
    model = convert(build_model(MODEL, input_size=spec.input_size))
    executor = Executor(model.graph)
    refs = [executor.run(x) for x in pool]
    phases = []
    notes: list[str] = []

    def phase_on(target, share, recorder=None):
        """Warm ``target`` up, then measure ``share`` of the run on it.

        Returns the phase, its summary (see :func:`summarise`), its wall
        time and the engines' busy time in it.
        """
        target.warm(pool[0])
        target.measure(
            pool, refs, _warm_seconds(spec, seconds), _warm_schedule(args, spec)
        )
        busy0, t0 = target.busy_s(), time.perf_counter()
        phase, discarded = _phase_with_retry(
            target, spec, args.seed, pool, refs, share * seconds, recorder
        )
        wall, busy = time.perf_counter() - t0, target.busy_s() - busy0
        phases.append(phase)
        notes.extend(discarded)
        return phase, summarise(phase, spec), wall, busy

    # A: untraced, the base both overheads are measured against.
    target = Target(spec, model)
    try:
        _, (base, base_detail), _, _ = phase_on(target, 0.2)
    finally:
        target.close()

    # B: the bench's spans around every boundary.
    recorder = trace.TraceRecorder()
    target = Target(spec, model, recorder=recorder)
    try:
        rss0 = _rss_mb()
        traced, (with_spans, _), wall, busy = phase_on(target, 0.4, recorder)
        out: dict[str, float] = {
            "obs.rss_growth_mb": _rss_mb() - rss0,
            # Set-up compiles one plan per warmed batch factor; any miss
            # beyond those was a compile on the request path.
            "runtime.plan_cache_misses": float(
                target.plan_cache_misses() - _warm_misses(spec, target.engines)
            ),
            "runtime.workspace_mb": target.workspace_mb(),
            "obs.latency_hist_buckets": 0.0,
        }
        if target.gateway is not None:
            snap = target.gateway.metrics_snapshot()
            out["obs.latency_hist_buckets"] = float(
                len(snap["gateway.latency_ms"]["counts"])
            )
        busy_share = busy / (target.replicas * wall)
        engines = list(target.engines)
    finally:
        target.close()
    emit_spans(recorder, engines, traced.request_spans, direct=not spec.served)

    # C: the program's own tracer attached.
    target = Target(spec, model, tracer=Tracer())
    try:
        _, (with_tracer, _), _, _ = phase_on(target, 0.15)
    finally:
        target.close()
    p50 = {
        "untraced": base["lat_p50_ms"],
        "bench_traced": with_spans["lat_p50_ms"],
        "tracer_on": with_tracer["lat_p50_ms"],
    }
    out["obs.cpu_ms_per_image"] = base_detail["whole_phase"]["cpu_ms_per_image"]
    out["obs.bench_trace_overhead"] = p50["bench_traced"] / p50["untraced"] - 1.0
    out["obs.tracer_on_overhead"] = p50["tracer_on"] / p50["untraced"] - 1.0

    calls = [c for e in engines for c in e.calls]
    spans = recorder.spans()
    sums = trace.request_sums(spans)
    out.update(_engine_numbers(calls, model.graph))
    # serving.* reads 0 where no gateway is in the path
    out.update(
        {m.name: 0.0 for m in metrics.PER_LAYER if m.name.startswith("serving.")}
    )
    if spec.served:
        serving, tail_notes = _serving_numbers(traced, sums, calls, busy_share)
        out.update(serving)
        notes.extend(tail_notes)

    # Stand-alone probes, sized to what is left of the run.
    budget = 0.25 * seconds
    x_batch = np.concatenate([pool[i % len(pool)] for i in range(spec.probe_batch)])
    out.update(probes.setup_stages(spec.input_size, spec.probe_batch, x_batch))
    out.update(probes.engine_vs_executor(model, pool[0], 0.25 * budget))
    out["runtime.coalesce_ms"] = probes.coalesce_cost(model, pool[:8], 0.25 * budget)
    out.update(probes.core_kernels(model.graph, spec.probe_batch, 0.4 * budget))
    out["ops.bconv_wrapper_ms"] = out["ops.bconv_ms"] - out["core.bconv2d_ms"]

    conservation = _conservation(sums, spans)
    out_dir = ROOT / "bench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    recorder.write(
        out_dir / f"{spec.name}.trace.json",
        {"workload": spec.name, "seed": args.seed, "seconds": 0.4 * seconds,
         "conservation": conservation},
    )
    return {
        "correct": all(p.count(loadgen.MISMATCH) == 0 for p in phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": out,
        "detail": {"conservation": conservation, "notes": notes, "p50_ms": p50},
    }


def _warm_misses(spec, engines) -> int:
    """Plan-cache misses set-up is expected to cause (one per warmed plan)."""
    per_engine = GATEWAY_CONFIG["max_batch"] if spec.served else 1
    return per_engine * len(engines)


def main(argv: list[str] | None = None) -> int:
    entered = time.monotonic()
    parser = argparse.ArgumentParser(prog="bench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=entered)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)


    spec = BY_NAME[args.workload]
    result = run_traced(args, spec) if args.trace else run_untraced(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

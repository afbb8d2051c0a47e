"""The metric tables: what each name means, its unit, and what it should move.

``BENCHMARK.json`` carries name/unit/direction(/bound) only — its keys are
fixed by the driver's contract — so the prediction column ("which
end-to-end metric, on which workload") lives here and in the README.
``bench/tests/test_names.py`` keeps this file and ``BENCHMARK.json`` equal.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may get worse.  One
    #: bound serves every workload, so the noisiest hour of the noisiest one
    #: sets it: the time-like metrics spread 0.02-0.13 between runs depending
    #: on the workload and on what the host's other tenants do.  See the README.
    bound: float
    what: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: the end-to-end metric(s) this should move, and on which workload
    moves: str


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "process start (before `import repro`) to the first reply: imports, "
             "build, convert, engine/gateway start, plan compile, warm-up; "
             "quietest of five fresh processes"),
    EndToEnd("lat_p50_ms", "ms", "lower", 0.25,
             "per `run` call, per `run_many` call of eight, or per request from "
             "due time to resolved future; median within the quietest window "
             "(0.3 s worth of consecutive operations)"),
    EndToEnd("throughput_ips", "images/s", "higher", 0.25,
             "correct replies per second of measured wall time, in the quietest "
             "window (whole phase on the served workloads)"),
    EndToEnd("slo_attainment", "share", "higher", 0.10,
             "share of operations sent that got a correct reply within the "
             "workload's latency limit; shed, failed, late and mismatched miss; "
             "median over six equal slices of the phase"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "`ru_maxrss` of the workload's process"),
)

_SETUP = "setup_s on every workload, nothing else"
_BASE = "the baseline lat_p50_ms is judged against on single_224 and serve_steady_32"
_RUNTIME = ("lat_p50_ms/obs.cpu_ms_per_image on serve_steady_32, throughput_ips on "
            "offline_b8_64; predicted flat on single_224")
_OPS = "lat_p50_ms on single_224, throughput_ips on offline_b8_64"
_CORE = ("lat_p50_ms on single_224 through MAC throughput; on serve_steady_32 "
         "through per-call fixed cost only")
_SERVING = ("lat_p50_ms and slo_attainment on serve_steady_32, throughput_ips on "
            "serve_saturate_32; 0 on the two engine workloads")
_OBS = "obs.cpu_ms_per_image everywhere, peak_rss_mb on the serve workloads"

PER_LAYER: tuple[PerLayer, ...] = (
    PerLayer("zoo.build_s", "s", "lower", _SETUP),
    PerLayer("converter.convert_s", "s", "lower", _SETUP),
    PerLayer("converter.nodes", "count", "lower", _SETUP),
    PerLayer("runtime.compile_plan_s", "s", "lower", _SETUP),
    PerLayer("runtime.first_run_s", "s", "lower", _SETUP),
    PerLayer("graph.executor_run_ms", "ms", "lower", _BASE),
    PerLayer("runtime.engine_vs_executor", "ratio", "higher", _BASE),
    PerLayer("runtime.engine_call_ms", "ms", "lower", _RUNTIME),
    PerLayer("runtime.plan_execute_ms", "ms", "lower", _RUNTIME),
    PerLayer("runtime.engine_self_ms", "ms", "lower", _RUNTIME),
    PerLayer("runtime.plan_self_ms", "ms", "lower", _RUNTIME),
    PerLayer("runtime.coalesce_ms", "ms", "lower", _RUNTIME),
    PerLayer("runtime.plan_cache_misses", "count", "lower", _RUNTIME),
    PerLayer("runtime.workspace_mb", "MB", "lower", _RUNTIME),
    PerLayer("ops.bconv_ms", "ms", "lower", _OPS),
    PerLayer("ops.quantize_ms", "ms", "lower", _OPS),
    PerLayer("ops.fp_conv_ms", "ms", "lower", _OPS),
    PerLayer("ops.fp_add_ms", "ms", "lower", _OPS),
    PerLayer("ops.fp_other_ms", "ms", "lower", _OPS),
    PerLayer("ops.bconv_wrapper_ms", "ms", "lower", _OPS),
    PerLayer("core.bconv2d_ms", "ms", "lower", _CORE),
    PerLayer("core.im2col_ms", "ms", "lower", _CORE),
    PerLayer("core.bgemm_ms", "ms", "lower", _CORE),
    PerLayer("core.geometries", "count", "lower", _CORE),
    PerLayer("core.binary_macs", "count", "lower", _CORE),
    PerLayer("core.im2col_mb", "MB", "lower", _CORE),
    PerLayer("core.binary_gmacs_per_s", "GMAC/s", "higher", _CORE),
    PerLayer("core.peak_fraction", "share", "higher", _CORE),
    PerLayer("serving.overhead_ms", "ms", "lower", _SERVING),
    PerLayer("serving.submit_call_us", "us", "lower", _SERVING),
    PerLayer("serving.mean_batch", "images", "higher", _SERVING),
    PerLayer("serving.batches", "count", "lower", _SERVING),
    PerLayer("serving.replica_busy_share", "share", "lower", _SERVING),
    PerLayer("serving.shed", "count", "lower", _SERVING),
    PerLayer("serving.failed", "count", "lower", _SERVING),
    PerLayer("serving.lat_p95_ms", "ms", "lower", _SERVING),
    PerLayer("serving.lat_p99_ms", "ms", "lower", _SERVING),
    PerLayer("serving.gen_lateness_p99_ms", "ms", "lower", _SERVING),
    PerLayer("obs.cpu_ms_per_image", "ms", "lower",
             "itself a cost users pay: `time.process_time()` per correct reply over "
             "the untraced phase; sees overhead and busy-waiting that a 5 ms deadline "
             "hides in wall time.  Demoted from the end-to-end table: on "
             "serve_steady_32 it spreads 0.15-0.20 between runs of the same code"),
    PerLayer("obs.bench_trace_overhead", "ratio", "lower", _OBS),
    PerLayer("obs.tracer_on_overhead", "ratio", "lower", _OBS),
    PerLayer("obs.latency_hist_buckets", "count", "lower", _OBS),
    PerLayer("obs.rss_growth_mb", "MB", "lower", _OBS),
)

END_TO_END_BY_NAME = {m.name: m for m in END_TO_END}
PER_LAYER_BY_NAME = {m.name: m for m in PER_LAYER}


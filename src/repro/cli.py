"""Command-line interface: estimate, inspect, convert, demonstrate.

The deployment-side tooling a released inference engine ships with::

    python -m repro benchmark --model quicknet --device pixel1 --threads 4
    python -m repro profile   --model binarydensenet28 --device rpi4b
    python -m repro summarize --model quicknet_small
    python -m repro convert   --model quicknet --output model.lce
    python -m repro ops       [--op lce_bconv2d]
    python -m repro analyze   [--model quicknet | --source src] [--format json]
    python -m repro experiments [--appendix|--extensions]
    python -m repro trace     --model quicknet_small --out trace.json
    python -m repro stats     --model quicknet_small
    python -m repro serve     --models quicknet_small --requests 32 \
                              [--slo-p95-ms 50] [--trace-out trace.json]
    python -m repro calibrate --out profile.json --budget 15

``benchmark`` / ``profile`` are the analytical device model's *estimate*
and its Table-4 breakdown; ``--profile PATH`` prices them against a
trace-fitted :class:`repro.hw.DeviceProfile` artifact (from ``repro
calibrate``) instead of the builtin constants.  Measured numbers come
from ``python3 -m bench.run`` and, per span, from ``repro trace``.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from repro.analysis.summary import format_summary
from repro.converter import convert
from repro.graph.serialization import save_model
from repro.hw.device import DeviceModel, ProfileError, load_profile, save_profile
from repro.hw.latency import graph_latency
from repro.obs import format_snapshot, quantile_from_counts
from repro.zoo import MODEL_REGISTRY, build_model


def _bounded(kind, *, zero_ok: bool = False):
    """An argparse type: a finite ``kind`` that is > 0 (>= 0 with
    ``zero_ok``), so a bad count or deadline is a usage error (exit 2)
    before any model is built."""
    bound = ">= 0" if zero_ok else "> 0"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        in_range = value >= 0 if zero_ok else value > 0
        if not (in_range and math.isfinite(value)):
            raise argparse.ArgumentTypeError(
                f"must be a finite number {bound}, got {text!r}"
            )
        return value

    return parse


_POSITIVE_INT = _bounded(int)


def _add_model_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model", default="quicknet", choices=sorted(MODEL_REGISTRY),
        help="zoo model to operate on",
    )
    parser.add_argument(
        "--input-size", type=_POSITIVE_INT, default=224,
        help="spatial input resolution",
    )


def _add_device_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--device", default="pixel1", choices=("pixel1", "rpi4b"),
        help="calibrated device profile",
    )


def _add_profile_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", default=None, metavar="PATH",
        help="price against a trace-fitted device-profile artifact "
        "(JSON written by `repro calibrate`) instead of the builtin "
        "device constants",
    )


def _resolve_profile(args, command: str):
    """Load ``--profile`` if given, or fail with a typed non-zero exit.

    Returns ``(profile_or_None, exit_code)`` — a schema-invalid, missing
    or malformed artifact reports every problem on stderr and exits 2
    instead of surfacing a traceback.
    """
    if getattr(args, "profile", None) is None:
        return None, 0
    try:
        return load_profile(args.profile), 0
    except ProfileError as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return None, 2


def _build_converted(args):
    return convert(build_model(args.model, input_size=args.input_size))


def _engine_input(graph, batch: int) -> np.ndarray:
    spec = graph.tensors[graph.inputs[0]]
    shape = (spec.shape[0] * batch,) + tuple(spec.shape[1:])
    rng = np.random.default_rng(0)
    return rng.standard_normal(shape).astype(np.float32)


def cmd_benchmark(args) -> int:
    profile, rc = _resolve_profile(args, "benchmark")
    if rc:
        return rc
    model = _build_converted(args)
    device = profile if profile is not None else DeviceModel.by_name(args.device)
    latency = graph_latency(device, model.graph, threads=args.threads)
    pricing = (
        f"profile {profile.name!r}" if profile is not None else args.device
    )
    print(
        f"{args.model} on {pricing} ({args.threads} thread"
        f"{'s' if args.threads > 1 else ''}): {latency.total_ms:.1f} ms"
    )
    return 0


def cmd_profile(args) -> int:
    profile, rc = _resolve_profile(args, "profile")
    if rc:
        return rc
    from repro.experiments.table4 import quicknet_table4_rows

    graph = _build_converted(args).graph
    device = profile if profile is not None else DeviceModel.by_name(args.device)
    latency = graph_latency(device, graph)
    pricing = (
        f"profile {profile.name!r}" if profile is not None else args.device
    )
    print(f"{args.model} on {pricing}: {latency.total_ms:.1f} ms\n")
    for row in quicknet_table4_rows(graph, latency):
        print(f"  {row.op_class:<38} {row.share_percent:6.2f}%")
    return 0


def cmd_summarize(args) -> int:
    graph = build_model(args.model, input_size=args.input_size)
    if args.converted:
        graph = convert(graph).graph
    print(format_summary(graph))
    return 0


def cmd_convert(args) -> int:
    model = _build_converted(args)
    size = save_model(model.graph, args.output)
    r = model.report
    print(
        f"wrote {args.output}: {size / 1e6:.2f} MB "
        f"({r.nodes_before} -> {r.nodes_after} nodes, "
        f"{r.weight_compression:.1f}x parameter compression)"
    )
    return 0


def cmd_ops(args) -> int:
    """The canonical operator table, straight from the registry."""
    from repro.ops import all_specs

    specs = all_specs()
    if args.op is not None:
        specs = tuple(s for s in specs if s.name == args.op)
        if not specs:
            print(f"ops: unknown op {args.op!r}", file=sys.stderr)
            return 2
    for spec in specs:
        flags = []
        if spec.binary:
            flags.append("binary")
        if spec.mac_layer:
            flags.append("mac-layer")
        print(spec.name + (f"  [{', '.join(flags)}]" if flags else ""))
        if spec.doc:
            print(f"  {spec.doc}")
        print(f"  class:   {spec.op_class}")
        print(f"  attrs:   {spec.schema()}")
        print(f"  shape:   {_hook_doc(spec.infer)}")
        print("  latency: modeled")
        print()
    print(f"{len(specs)} ops registered")
    return 0


def _hook_doc(fn) -> str:
    doc = (fn.__doc__ or "").strip().splitlines()
    if doc:
        return doc[0]
    name = fn.__name__.lstrip("_")
    return name if name != "<lambda>" else "(see op doc)"


def cmd_analyze(args) -> int:
    """Run the static analyses: graph rules, repo lint, lock discipline.

    With no target flags, analyzes every zoo model (training and converted
    graphs), lints the repo source tree *and* runs the concurrency
    C-rules over ``src/`` — the full ``make analyze`` gate.  Exit status
    1 on any finding.
    """
    import dataclasses
    import pathlib

    from repro.analysis.concurrency import check_repo
    from repro.analysis.dataflow import analyze_graph
    from repro.analysis.diagnostics import format_json, format_text
    from repro.analysis.lint import lint_paths, lint_repo
    from repro.graph.ir import GraphError

    def _located(diags, prefix):
        return [
            dataclasses.replace(d, location=f"{prefix} {d.location}")
            for d in diags
        ]

    graphs_requested = args.all_models or args.model is not None
    source_requested = args.source is not None
    concurrency_requested = args.concurrency
    if not graphs_requested and not source_requested \
            and not concurrency_requested:
        # the full gate
        graphs_requested = source_requested = concurrency_requested = True

    diags = []
    models_analyzed: list[str] = []
    if graphs_requested:
        models = (
            [args.model]
            if args.model is not None and not args.all_models
            else sorted(MODEL_REGISTRY)
        )
        for name in models:
            graph = build_model(name, input_size=args.input_size)
            pre = analyze_graph(graph)
            diags.extend(_located(pre, f"{name} (training)"))
            try:
                graph = convert(graph).graph
            except GraphError as exc:
                # convert() enforces per-pass; report instead of crashing
                # only if the pre-pass analysis didn't already explain it.
                if not pre:
                    print(f"analyze: convert({name}) failed: {exc}",
                          file=sys.stderr)
                    return 1
                continue
            diags.extend(_located(analyze_graph(graph), f"{name} (converted)"))
            models_analyzed.append(name)

    files_linted = 0
    if source_requested:
        repo = pathlib.Path(__file__).resolve().parents[2]
        if args.source:  # explicit files/directories
            targets = [pathlib.Path(p) for p in args.source]
            from repro.analysis.lint import iter_python_files

            files_linted = len(iter_python_files(targets))
            diags.extend(lint_paths(targets))
        else:
            from repro.analysis.lint import ROOTS, iter_python_files

            files_linted = len(
                iter_python_files(repo / r for r in ROOTS if (repo / r).exists())
            )
            diags.extend(lint_repo(repo))

    concurrency_checked = 0
    if concurrency_requested:
        repo = pathlib.Path(__file__).resolve().parents[2]
        from repro.analysis.lint import iter_python_files

        src = repo / "src"
        concurrency_checked = len(
            iter_python_files([src] if src.exists() else [])
        )
        diags.extend(check_repo(repo))

    if args.format == "json":
        print(format_json(diags, models=models_analyzed, files=files_linted))
    else:
        if diags:
            print(format_text(diags))
        scope = []
        if models_analyzed:
            scope.append(f"{len(models_analyzed)} model(s)")
        if source_requested:
            scope.append(f"{files_linted} file(s)")
        if concurrency_requested:
            scope.append(
                f"{concurrency_checked} file(s) for lock discipline"
            )
        print(
            f"analyze: {len(diags)} error(s) "
            f"across {', '.join(scope) or 'nothing'}"
        )
    return 1 if diags else 0


def cmd_trace(args) -> int:
    """Record a traced engine run and export Chrome ``trace_event`` JSON."""
    from repro.obs import (
        Tracer,
        flamegraph_lines,
        validate_chrome_trace,
        write_chrome_trace,
    )
    from repro.runtime import Engine

    model = _build_converted(args)
    tracer = Tracer()
    with Engine(model, max_batch_size=args.batch, trace=tracer) as engine:
        x = _engine_input(engine.graph, args.batch)
        for _ in range(args.repeats):
            engine.run(x)
        plan = engine.plan(args.batch)
    obj = write_chrome_trace(tracer, args.out)
    problems = validate_chrome_trace(obj)
    if problems:
        for p in problems:
            print(f"trace: {p}", file=sys.stderr)
        return 1
    spans = tracer.spans()
    print(
        f"wrote {args.out}: {len(obj['traceEvents'])} events from "
        f"{len(spans)} spans ({tracer.dropped} dropped) — open in "
        f"chrome://tracing or https://ui.perfetto.dev"
    )
    for line in flamegraph_lines(spans):
        print(line)
    print(
        f"plan: {len(plan.nodes)} executed nodes cover "
        f"{len(plan.graph.nodes)} graph nodes, {plan.fused_blocks} fused"
    )
    for cn in plan.nodes:
        if len(cn.parts) > 1:
            print(f"  {cn.name} = " + " + ".join(name for name, _ in cn.parts))
    return 0


def cmd_stats(args) -> int:
    """Exercise an engine and print its stats fields."""
    import dataclasses

    from repro.obs.metrics import summarize
    from repro.runtime import Engine

    model = _build_converted(args)
    with Engine(model, max_batch_size=args.batch) as engine:
        x = _engine_input(engine.graph, 1)
        for _ in range(args.repeats):
            engine.run(x)
        # A coalesced run_many so the batch-size histogram has content.
        engine.run_many([x, x, x])
        stats = dataclasses.asdict(engine.stats())
    stats["batch_histogram"] = summarize(stats["batch_histogram"])
    print(f"{args.model}: engine stats")
    print(format_snapshot(stats, indent="  "))
    return 0


def _telemetry_burst(args, *, tracer):
    """Build the models, serve a request burst, return (gateway, replies).

    The caller owns the gateway and must close it.
    """
    from repro.serving import Gateway, GatewayConfig

    models = {}
    for name in args.models:
        # No name for the training graph: it would keep the last model's
        # float weights resident for the whole serve.
        models[name] = convert(build_model(name, input_size=args.input_size))
    rng = np.random.default_rng(args.seed)
    inputs = {}
    for name, model in models.items():
        spec = model.graph.tensors[model.graph.inputs[0]]
        inputs[name] = rng.standard_normal(tuple(spec.shape)).astype(np.float32)

    config = GatewayConfig(
        max_batch=args.max_batch,
        deadline_ms=args.deadline_ms,
        max_queue=args.max_queue,
        replicas=args.replicas,
    )
    gateway = Gateway(models, config, trace=tracer)
    try:
        gateway.warmup(factors=(1, args.max_batch))
        names = sorted(models)
        futures = [
            gateway.submit(names[i % len(names)], inputs[names[i % len(names)]])
            for i in range(args.requests)
        ]
        replies = [f.result(timeout=60) for f in futures]
    except BaseException:
        gateway.close()
        raise
    return gateway, replies


def _print_p95_verdicts(target_ms: float, models, snapshot) -> bool:
    """One line per model comparing its p95 latency over the burst to
    ``target_ms``; True when any model exceeds it."""
    breached = False
    for name in models:
        latency = snapshot[f"gateway.{name}.latency_ms"]
        p95 = quantile_from_counts(latency["counts"], 0.95)
        over = p95 > target_ms
        breached = breached or over
        print(
            f"{name}: {'breached' if over else 'healthy'} — p95 "
            f"{p95:.2f} ms {'>' if over else '<='} target {target_ms:g} ms "
            f"({latency['count']} completed)"
        )
    return breached


def _export_trace(path: str, tracer) -> list[str]:
    """Write the ``--trace-out`` Chrome trace, read it back and return the
    file's validation problems (request lifecycle included)."""
    import json
    import pathlib

    from repro.obs import validate_chrome_trace, write_chrome_trace

    written = write_chrome_trace(tracer, path)
    dropped = written["otherData"]["dropped"]
    print(f"wrote {path}: {len(written['traceEvents'])} events, {dropped} dropped")
    if dropped:
        print(
            "  request lifecycle check skipped: the trace dropped records, "
            "so terminal marks cannot be paired"
        )
    try:
        return validate_chrome_trace(json.loads(pathlib.Path(path).read_text()))
    except ValueError as exc:
        return [f"{path}: not valid JSON: {exc}"]


def cmd_serve(args) -> int:
    """Serve a demo burst through the gateway and print its stats.

    ``--slo-p95-ms T`` adds one line per model comparing its p95 to ``T``
    (exit 1 when any model exceeds it); ``--trace-out`` attaches a tracer,
    and the Chrome trace it writes — spans plus each request's lifecycle
    marks — is validated (exit 1 on a problem).
    """
    from repro.obs import Tracer
    from repro.serving import Rejected

    tracer = Tracer() if args.trace_out else None
    gateway, replies = _telemetry_burst(args, tracer=tracer)
    try:
        stats = gateway.stats()
        shed = sum(1 for r in replies if isinstance(r, Rejected))
        print(
            f"served {len(replies) - shed}/{len(replies)} requests across "
            f"{len(gateway.models)} model(s) ({shed} shed); batches: "
            f"{dict(sorted(stats.batch_histogram.items()))}, mean batch "
            f"{stats.mean_batch_size:.2f}"
        )
        print(
            f"  latency p50/p95/p99: {stats.p50_ms:.2f}/{stats.p95_ms:.2f}/"
            f"{stats.p99_ms:.2f} ms; verified: {str(stats.verified).lower()}"
        )
        snapshot = gateway.metrics_snapshot()
        print("  metrics snapshot:")
        print(format_snapshot(snapshot, indent="    "))
        breached = args.slo_p95_ms is not None and _print_p95_verdicts(
            args.slo_p95_ms, gateway.models, snapshot
        )
    finally:
        gateway.close()
    # Exported after close: every worker has exited, so the trace is whole.
    problems = _export_trace(args.trace_out, tracer) if tracer is not None else []
    for p in problems:
        print(f"serve: {p}", file=sys.stderr)
    return 1 if breached or problems else 0


def cmd_experiments(args) -> int:
    from repro.experiments import runner

    if args.appendix:
        runner.run_appendix()
    elif args.extensions:
        runner.run_extensions()
    else:
        runner.run_main_text()
    return 0


def cmd_calibrate(args) -> int:
    from repro.hw.calibrate import calibrate

    profile = calibrate(
        models=tuple(args.models),
        input_size=args.input_size,
        repeats=args.repeats,
        base=args.device,
        name=args.name,
        seed=args.seed,
    )
    path = save_profile(profile, args.out)
    fit = profile.fit
    print(
        f"calibrated {profile.name!r} against {profile.device.name}: "
        f"{fit.samples} samples from {', '.join(fit.models)} "
        f"(input {fit.input_size}, {fit.repeats} repeats)"
    )
    print(
        f"  |error| median {fit.median_abs_pct_error:.2f}%  "
        f"mean {fit.mean_abs_pct_error:.2f}%  max {fit.max_abs_pct_error:.2f}%"
    )
    print(f"  wrote {path}")
    if args.budget is not None and fit.median_abs_pct_error > args.budget:
        print(
            f"calibrate: median per-node error {fit.median_abs_pct_error:.2f}% "
            f"exceeds budget {args.budget:.2f}%",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Larq Compute Engine reproduction tooling"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("benchmark", help="estimate on-device latency of a zoo model")
    _add_model_arg(p)
    _add_device_arg(p)
    p.add_argument(
        "--threads", type=int, default=1,
        help="threads the device model prices",
    )
    _add_profile_arg(p)
    p.set_defaults(fn=cmd_benchmark)

    p = sub.add_parser("profile", help="per-operator latency breakdown")
    _add_model_arg(p)
    _add_device_arg(p)
    _add_profile_arg(p)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("summarize", help="per-layer shapes, params and MACs")
    _add_model_arg(p)
    p.add_argument(
        "--converted", action="store_true",
        help="summarize the converted inference graph instead of the training graph",
    )
    p.set_defaults(fn=cmd_summarize)

    p = sub.add_parser("convert", help="convert a zoo model and write the .lce file")
    _add_model_arg(p)
    p.add_argument("--output", default="model.lce")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser(
        "ops", help="list every registered operator with schema and model hooks"
    )
    p.add_argument("--op", default=None, help="show a single operator")
    p.set_defaults(fn=cmd_ops)

    p = sub.add_parser(
        "analyze",
        help="run the static analyses (graph dataflow rules + repo lint "
        "+ concurrency C-rules)",
    )
    p.add_argument(
        "--model", default=None, choices=sorted(MODEL_REGISTRY),
        help="analyze one zoo model's training and converted graphs",
    )
    p.add_argument(
        "--all-models", action="store_true",
        help="analyze every zoo model",
    )
    p.add_argument(
        "--input-size", type=_POSITIVE_INT, default=64,
        help="spatial input resolution for graph analysis (the rules are "
        "geometry-checked at any size; 64 keeps the gate fast)",
    )
    p.add_argument(
        "--source", nargs="*", default=None, metavar="PATH",
        help="lint these files/directories (bare --source lints the repo "
        "tree and cross-checks the op registry)",
    )
    p.add_argument(
        "--concurrency", action="store_true",
        help="run the lock-discipline rules (C001, C003-C005) over src/",
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format",
    )
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser(
        "trace",
        help="record a traced engine run and export Chrome trace_event JSON",
    )
    _add_model_arg(p)
    p.add_argument("--batch", type=_POSITIVE_INT, default=1)
    p.add_argument(
        "--repeats", type=_POSITIVE_INT, default=1,
        help="traced engine runs to record",
    )
    p.add_argument(
        "--out", default="trace.json", help="Chrome trace_event output path"
    )
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "stats", help="print an engine's stats fields for a model"
    )
    _add_model_arg(p)
    p.add_argument("--batch", type=_POSITIVE_INT, default=4)
    p.add_argument(
        "--repeats", type=_POSITIVE_INT, default=2,
        help="engine runs before the snapshot",
    )
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "serve",
        help="serve a demo request burst through the async gateway: stats, "
        "a p95 verdict per model (exit 1 on a breach), a validated trace",
    )
    p.add_argument(
        "--models", nargs="+", default=["quicknet_small"],
        choices=sorted(MODEL_REGISTRY), help="zoo models to serve",
    )
    p.add_argument("--input-size", type=_POSITIVE_INT, default=32)
    p.add_argument("--max-batch", type=_POSITIVE_INT, default=8)
    p.add_argument(
        "--deadline-ms", type=_bounded(float, zero_ok=True), default=5.0,
        help="longest a request is held for company: flush a forming "
        "batch this long after its oldest request (at once when recent "
        "arrivals come slower than one per deadline)",
    )
    p.add_argument(
        "--max-queue", type=_POSITIVE_INT, default=64,
        help="bounded per-model queue; admission sheds beyond it",
    )
    p.add_argument("--replicas", type=_POSITIVE_INT, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--requests", type=_POSITIVE_INT, default=32,
        help="demo requests to submit",
    )
    p.add_argument(
        "--slo-p95-ms", type=_bounded(float), default=None,
        help="target p95 end-to-end latency: print each model's p95 "
        "against it and exit 1 when one exceeds it",
    )
    p.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="attach a tracer; write the Chrome trace (spans and request "
        "lifecycle marks) here and validate it",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("experiments", help="regenerate the paper's tables/figures")
    p.add_argument("--appendix", action="store_true")
    p.add_argument("--extensions", action="store_true")
    p.set_defaults(fn=cmd_experiments)

    p = sub.add_parser(
        "calibrate",
        help="fit a device profile from traced engine runs of the zoo",
    )
    p.add_argument(
        "--models", nargs="+", default=["quicknet_small"],
        choices=sorted(MODEL_REGISTRY),
        help="calibration workload (traced engine runs)",
    )
    p.add_argument("--input-size", type=_POSITIVE_INT, default=32)
    p.add_argument(
        "--repeats", type=_POSITIVE_INT, default=15,
        help="recorded runs per model (first warm-up run is discarded)",
    )
    _add_device_arg(p)
    p.add_argument(
        "--name", default="calibrated", help="profile name for the artifact"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--out", default="profile.json", help="artifact output path"
    )
    p.add_argument(
        "--budget", type=float, default=None, metavar="PCT",
        help="fail (exit 1) when median per-node |error| exceeds this",
    )
    p.set_defaults(fn=cmd_calibrate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

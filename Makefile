# Convenience targets for the LCE reproduction.

# One BLAS thread per process, as `import repro` and bench/ default to: the
# engine is single-threaded and replicas are the unit of parallelism, so the
# smoke targets measure the engine the design describes.  An exported value
# wins.
export OPENBLAS_NUM_THREADS ?= 1
export OMP_NUM_THREADS ?= 1
export MKL_NUM_THREADS ?= 1

.PHONY: test test-fast test-slow test-serving bench-tests lint analyze check sanitize sanitize-smoke trace-smoke calibrate-smoke telemetry-smoke bench bench-fast experiments appendix extensions examples all

test:
	pytest tests/

# ruff when installed (config in pyproject.toml), AST fallback otherwise;
# the repro contract rules (L1xx) always run.
lint:
	python tools/lint.py

# Static analyses: dataflow rules over every zoo model (training and
# converted graphs), the repo lint engine and the concurrency C-rules
# over src/.  Fails on any finding.
analyze:
	PYTHONPATH=src python -m repro.cli analyze

# Runtime lock sanitizer over the whole suite, the slow cells included
# (pyproject's addopts deselect them; this -m selects every test): every
# lock acquisition is checked against the rank table in
# repro/concurrency/order.py, and a nesting whose rank does not strictly
# increase raises LockOrderError.
sanitize:
	REPRO_SANITIZE=1 pytest tests/ -m "slow or not slow"

# The cheap sanitizer tier for `make check`: the threaded surfaces
# (serving gateway + engine) under REPRO_SANITIZE=1, minus the slow cells.
# test_runtime_stress.py is the one suite where two threads contend for the
# arena lock a plan call holds.
sanitize-smoke:
	REPRO_SANITIZE=1 pytest tests/ -m "serving and not slow"
	REPRO_SANITIZE=1 pytest tests/test_runtime_engine.py tests/test_concurrency_locks.py
	REPRO_SANITIZE=1 pytest tests/test_runtime_stress.py -m "not slow"

check: lint analyze test-fast bench-tests test-serving sanitize-smoke trace-smoke calibrate-smoke telemetry-smoke examples

# End-to-end observability smoke: trace a QuickNet-small engine run,
# schema-validate the Chrome-trace export, and print the unified metrics
# registry.  ``cli trace`` exits non-zero on any validation problem.
trace-smoke:
	PYTHONPATH=src python -m repro.cli trace --model quicknet_small --input-size 32 \
		--batch 2 --out $${TMPDIR:-/tmp}/repro-trace-smoke.json
	PYTHONPATH=src python -m repro.cli stats --model quicknet_small \
		--input-size 32 --batch 2 --repeats 1

# Skip the opt-in slow grids, the threaded serving suites and the
# benchmark suite entirely.
test-fast:
	pytest tests/ -m "not slow and not serving"

# bench/'s own suite (~45 s).  A src/ change may not edit bench/ but can
# break it; test-fast's tests/test_bench_contract.py checks that its
# imports and calls still bind, this runs what they do.
bench-tests:
	python3 -m pytest bench/tests -q

# Only the expensive cells: full zoo parity grid, long stress runs.
test-slow:
	pytest tests/ -m slow

# The gateway smoke tier (a few seconds): deterministic FakeClock
# deadline/fault/conservation tests, minus the multi-seed stress cells.
test-serving:
	pytest tests/ -m "serving and not slow"

# Calibration gate: fit a device profile from traced QuickNet-small
# engine runs and fail when the fitted model's median per-node
# predicted-vs-measured error exceeds the 15% budget, then round-trip the
# artifact through ``benchmark --profile`` (load, validate, price).
calibrate-smoke:
	PYTHONPATH=src python -m repro.cli calibrate --models quicknet_small \
		--input-size 32 --repeats 15 --budget 15 \
		--out $${TMPDIR:-/tmp}/repro-profile-smoke.json
	PYTHONPATH=src python -m repro.cli benchmark --model quicknet_small \
		--profile $${TMPDIR:-/tmp}/repro-profile-smoke.json

# Telemetry smoke: one served burst on the real clock that answers the
# serving questions of docs/architecture.md section 9 — the metrics
# snapshot, the p95 verdict (against a generous target) and the Chrome
# trace, exported and validated with exactly one terminal lifecycle mark
# per request.  Exits non-zero on a validation problem or a breach.
telemetry-smoke:
	PYTHONPATH=src python -m repro.cli serve --models quicknet_small \
		--input-size 32 --requests 48 --slo-p95-ms 10000 \
		--trace-out $${TMPDIR:-/tmp}/repro-serve-trace-smoke.json

# The wall-clock benchmarks: engine vs executor (writes BENCH_engine.json),
# the kernel micro-benchmarks (BENCH_kernels.json), the real Figure 2
# kernels and the tiled-BGEMM ablation.  The paper's simulated tables and
# figures are ledger claims: `make experiments`, asserted in tier-1.
bench:
	pytest benchmarks/ --benchmark-only

# Kernel micro-benchmarks only; writes machine-readable BENCH_kernels.json
# (per-kernel ns/call and MACs/s, plus per-geometry dynamic/plan
# speedups).
bench-fast:
	pytest benchmarks/test_kernel_microbench.py --benchmark-only

# Rewrite EXPERIMENTS.md's generated tables from every experiment's
# claims; exits non-zero when a claim does not hold.
experiments:
	PYTHONPATH=src python -m repro.experiments.ledger

appendix:
	PYTHONPATH=src python -m repro.experiments.runner --appendix

extensions:
	PYTHONPATH=src python -m repro.experiments.runner --extensions

# Every runnable example, failing on the first that exits non-zero: they are
# the callers that keep names like Trainer public (tests/test_public_surface.py).
examples:
	for ex in examples/*.py; do echo "== $$ex"; PYTHONPATH=src python $$ex || exit 1; done

all: test bench experiments appendix extensions

"""Seeded-violation tests for the repo lint engine (L-rules).

Each rule in :mod:`repro.analysis.lint` is exercised against a fixture
tree of known-bad snippets written under ``tmp_path`` — contract rules
are path-scoped (``core/``, ``runtime/``, ``ops/``), so the fixtures
recreate those directory shapes.  The real repo tree must lint clean,
and the ``repro.cli analyze`` entry point must exit non-zero on a
seeded violation.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import textwrap

from repro.analysis.lint import (
    ROOTS,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_repo,
)

REPO = pathlib.Path(__file__).resolve().parent.parent


def _write(tmp_path, relpath, source):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def _lint(tmp_path, relpath, source, **kwargs):
    return lint_file(_write(tmp_path, relpath, source), **kwargs)


def _rules(diags):
    return {d.rule for d in diags}


# ------------------------------------------------------------- style rules


def test_l001_syntax_error(tmp_path):
    diags = _lint(tmp_path, "pkg/broken.py", "def f(:\n")
    assert _rules(diags) == {"L001"}


def test_l002_non_utf8_file_is_reported_not_skipped(tmp_path):
    path = tmp_path / "latin1.py"
    path.write_bytes(b"# caf\xe9\nx = 1\n")
    diags = lint_file(path)
    assert _rules(diags) == {"L002"}


def test_l003_unused_import_as_alias(tmp_path):
    diags = _lint(tmp_path, "m.py", """\
        from os import path as p
        from os import sep

        print(sep)
        """)
    assert [d.rule for d in diags] == ["L003"]
    assert "path as p" in diags[0].message


def test_l003_unused_dotted_submodule_import(tmp_path):
    diags = _lint(tmp_path, "m.py", """\
        import os.path
        import json

        print(json.dumps({}))
        """)
    assert [d.rule for d in diags] == ["L003"]
    assert "os.path" in diags[0].message


def test_l003_dotted_import_used_via_root_binding(tmp_path):
    # `import a.b` binds `a`; using `a` anywhere counts as a use.
    assert not _lint(tmp_path, "m.py", """\
        import os.path

        print(os.path.sep)
        """)


def test_l003_skips_underscore_and_reexported_names(tmp_path):
    assert not _lint(tmp_path, "m.py", """\
        import json as _json
        from os import sep

        __all__ = ["sep"]
        """)


def test_l004_trailing_whitespace(tmp_path):
    diags = _lint(tmp_path, "m.py", "x = 1  \n")
    assert _rules(diags) == {"L004"}


def test_style_rules_can_be_disabled(tmp_path):
    assert not _lint(tmp_path, "m.py", "import json\n", style=False)


# ------------------------------------------------------------- suppression


def _allow(spec):
    # Built at runtime so this test file's own source never contains a
    # malformed suppression for the repo-tree lint to trip over.
    return "# repro: " + f"allow{spec}"


def test_l005_suppression_without_justification(tmp_path):
    diags = _lint(tmp_path, "m.py", f"import json  {_allow('[L003]')}\n")
    # The malformed suppression is an error AND does not suppress L003.
    assert _rules(diags) == {"L005", "L003"}


def test_l005_suppression_without_rule_ids(tmp_path):
    diags = _lint(tmp_path, "m.py", f"import json  {_allow('[] why not')}\n")
    assert "L005" in _rules(diags)


def test_l005_suppression_naming_an_unknown_rule(tmp_path):
    # An allow[...] left behind by a deleted rule must not linger silently.
    diags = _lint(
        tmp_path, "m.py", "import json  # repro: allow[L003,L999] stale id\n"
    )
    assert _rules(diags) == {"L005", "L003"}
    (l005,) = [d for d in diags if d.rule == "L005"]
    assert "L999" in l005.message and "L003" not in l005.message


def test_suppression_syntax_quoted_in_strings_is_not_a_suppression(tmp_path):
    # Docstrings and hint strings quote the syntax; only comments count.
    diags = _lint(tmp_path, "m.py", """\
        \"\"\"Write ``# repro: allow[RULE] why`` or ``# repro: allow[]``.\"\"\"
        HINT = "write `# repro: allow[L999] <why>`"
        import json  # repro: allow[L003] re-exported for plugins
        """)
    assert not diags


def test_justified_suppression_hides_the_finding(tmp_path):
    assert not _lint(
        tmp_path, "m.py",
        "import json  # repro: allow[L003] re-exported for plugins\n",
    )


def test_suppression_only_hides_the_named_rule(tmp_path):
    diags = _lint(
        tmp_path, "m.py",
        "import json  # repro: allow[L004] wrong rule named\n",
    )
    assert _rules(diags) == {"L003"}


# ------------------------------------------------- L101: kernel allocations


_KERNEL_BAD = """\
    import numpy as np

    def bgemm(x, out, workspace):
        scratch = np.empty((4, 4), np.float32)
        out[:] = x @ scratch
"""

_KERNEL_GUARDED = """\
    import numpy as np

    def bgemm(x, out, workspace=None):
        if workspace is None:
            scratch = np.empty((4, 4), np.float32)
        else:
            scratch = workspace.take((4, 4), np.float32)
        out[:] = x @ scratch

    def bgemm2(x, out, workspace=None):
        if workspace is not None:
            scratch = workspace.take((4, 4), np.float32)
        else:
            scratch = np.zeros((4, 4), np.float32)
        out[:] = x @ scratch
"""


def test_l101_unguarded_allocation_in_core_kernel(tmp_path):
    diags = _lint(tmp_path, "src/repro/core/k.py", _KERNEL_BAD, style=False)
    assert _rules(diags) == {"L101"}
    assert "np.empty" in diags[0].message


def test_l101_allocating_fallback_branches_are_allowed(tmp_path):
    assert not _lint(
        tmp_path, "src/repro/core/k.py", _KERNEL_GUARDED, style=False
    )


def test_l101_only_applies_to_workspace_kernels(tmp_path):
    # No `workspace` parameter -> not a steady-state kernel.
    assert not _lint(tmp_path, "src/repro/core/k.py", """\
        import numpy as np

        def pack(x):
            return np.zeros_like(x)
        """, style=False)


def test_l101_scoped_to_core_paths(tmp_path):
    assert not _lint(tmp_path, "src/repro/zoo/k.py", _KERNEL_BAD, style=False)


def test_l101_covers_serving_paths(tmp_path):
    diags = _lint(tmp_path, "src/repro/serving/k.py", _KERNEL_BAD, style=False)
    assert _rules(diags) == {"L101"}


def test_l101_covers_tune_paths(tmp_path):
    # ``measure_config`` calls workspace kernels in a tight loop; an
    # unguarded allocation there would time the allocator, not the kernel.
    diags = _lint(tmp_path, "src/repro/tune/k.py", _KERNEL_BAD, style=False)
    assert _rules(diags) == {"L101"}


_BOUND_RUN_BAD = """\
    import numpy as np

    class BoundPool:
        def bind(self, workspace):
            rows = workspace.take("pool/rows", (4, 4), np.float32)

            def run(x):
                out = np.empty((4, 4), np.float32)
                np.maximum(x, rows, out=out)
                return out

            return run
"""


def test_l101_covers_the_bound_float_kernels(tmp_path):
    # A bound form's run is the steady state of a plan: an allocation
    # inside it would be paid on every call.
    diags = _lint(
        tmp_path, "src/repro/kernels/bound.py", _BOUND_RUN_BAD, style=False
    )
    assert _rules(diags) == {"L101"}
    assert "np.empty" in diags[0].message
    # ... and the real module is clean under it.
    real = lint_file(REPO / "src/repro/kernels/bound.py", root=REPO)
    assert not [d for d in real if d.rule == "L101"]


def test_l101_covers_obs_contract_files(tmp_path):
    # The tracer and its per-thread rings sit on the serving hot path;
    # they inherit the allocation discipline.
    diags = _lint(tmp_path, "src/repro/obs/trace.py", _KERNEL_BAD, style=False)
    assert _rules(diags) == {"L101"}


def test_l101_other_obs_files_stay_out_of_scope(tmp_path):
    # export.py etc. are cold-path formatting; the contract is scoped to
    # the one hot-path obs module only.
    assert not _lint(
        tmp_path, "src/repro/obs/export.py", _KERNEL_BAD, style=False
    )


def test_l101_suppression_with_reason(tmp_path):
    src = _KERNEL_BAD.replace(
        "np.empty((4, 4), np.float32)",
        "np.empty((4, 4), np.float32)  # repro: allow[L101] warmup only",
    )
    assert not _lint(tmp_path, "src/repro/core/k.py", src, style=False)


# ------------------------------------------------ L103: unguarded caches


_CACHE_BAD = """\
    _CACHE = {}

    def lookup(key):
        if key not in _CACHE:
            _CACHE[key] = compute(key)
        return _CACHE[key]
"""

_CACHE_GOOD = """\
    import threading

    _CACHE = {}
    _LOCK = threading.Lock()

    def lookup(key):
        with _LOCK:
            if key not in _CACHE:
                _CACHE[key] = compute(key)
            return _CACHE[key]
"""


def test_l103_cache_mutation_without_module_lock(tmp_path):
    diags = _lint(
        tmp_path, "src/repro/runtime/cache.py", _CACHE_BAD, style=False
    )
    assert _rules(diags) == {"L103"}


def test_l103_module_lock_satisfies_the_rule(tmp_path):
    assert not _lint(
        tmp_path, "src/repro/runtime/cache.py", _CACHE_GOOD, style=False
    )


def test_l103_scoped_to_core_and_runtime(tmp_path):
    assert not _lint(
        tmp_path, "src/repro/experiments/cache.py", _CACHE_BAD, style=False
    )


def test_l103_covers_serving_paths(tmp_path):
    diags = _lint(
        tmp_path, "src/repro/serving/cache.py", _CACHE_BAD, style=False
    )
    assert _rules(diags) == {"L103"}


def test_l103_covers_tune_paths(tmp_path):
    # tune/ sits on the plan path's side of the fence: a module cache
    # there can race across engine threads like any runtime module cache.
    diags = _lint(
        tmp_path, "src/repro/tune/memo.py", _CACHE_BAD, style=False
    )
    assert _rules(diags) == {"L103"}


def test_l103_covers_hw_calibrate(tmp_path):
    # The calibration recorder drives the engine; a module-level sample
    # cache mutated without a lock is the same hazard as in runtime/.
    diags = _lint(
        tmp_path, "src/repro/hw/calibrate.py", _CACHE_BAD, style=False
    )
    assert _rules(diags) == {"L103"}


def test_l103_rest_of_hw_stays_exempt(tmp_path):
    assert not _lint(
        tmp_path, "src/repro/hw/device.py", _CACHE_BAD, style=False
    )


# -------------------------------------------------- L104: nondeterminism


def test_l104_entropy_sources_in_plan_paths(tmp_path):
    diags = _lint(tmp_path, "src/repro/ops/noisy.py", """\
        import time

        import numpy as np

        def jitter():
            return np.random.default_rng().random() + time.time()
        """, style=False)
    assert _rules(diags) == {"L104"}
    messages = " ".join(d.message for d in diags)
    assert "np.random" in messages and "time.time" in messages


def test_l104_monotonic_timers_are_exempt(tmp_path):
    assert not _lint(tmp_path, "src/repro/runtime/timer.py", """\
        import time

        def tick():
            return time.perf_counter()
        """, style=False)


def test_l104_scoped_to_plan_paths(tmp_path):
    assert not _lint(tmp_path, "src/repro/zoo/init.py", """\
        import numpy as np

        def weights(shape):
            return np.random.default_rng(0).standard_normal(shape)
        """, style=False)


def test_l104_covers_serving_paths(tmp_path):
    # The serving layer inherits the determinism contract: wall-clock
    # reads or ambient entropy in the gateway would break FakeClock tests.
    diags = _lint(tmp_path, "src/repro/serving/sched.py", """\
        import time

        import numpy as np

        def jitter_deadline(ms):
            return ms + np.random.default_rng().random() + time.time()
        """, style=False)
    assert _rules(diags) == {"L104"}


def test_l104_covers_obs_paths(tmp_path):
    # A wall-clock read in the tracer would put marks and spans on a clock
    # that jumps; only monotonic timers are legal (the one anchor read at
    # the recording boundary carries a justified suppression).
    diags = _lint(tmp_path, "src/repro/obs/trace.py", """\
        import time

        def sample_ts():
            return time.time()
        """, style=False)
    assert _rules(diags) == {"L104"}


def test_l104_covers_tune_paths(tmp_path):
    # Wall-clock reads in tune/ must stay confined to the declared
    # microbench boundary (monotonic timer + justified suppression);
    # ambient entropy or time.time() anywhere else is an error.
    diags = _lint(tmp_path, "src/repro/tune/drift.py", """\
        import time

        import numpy as np

        def jitter():
            return np.random.default_rng().random() + time.time()
        """, style=False)
    assert _rules(diags) == {"L104"}


def test_l104_real_tune_search_module_is_clean():
    # The shipped harness passes its own gate: the monotonic perf_counter
    # timer is exempt by design and the single seeded RNG that builds
    # microbench inputs carries a justified allow[L104].
    import pathlib

    import repro.tune.search as search

    path = pathlib.Path(search.__file__)
    assert not [d for d in lint_file(path, style=False)
                if d.rule in {"L101", "L103", "L104"}]


def test_l104_covers_hw_calibrate(tmp_path):
    # Wall-clock reads outside the tracer's recording boundary would make
    # calibration fits unreproducible; the file is held to the plan-path
    # determinism contract even though the rest of hw/ is pure math.
    diags = _lint(tmp_path, "src/repro/hw/calibrate.py", """\
        import time

        import numpy as np

        def sample_now():
            return np.random.default_rng().random() + time.time()
        """, style=False)
    assert _rules(diags) == {"L104"}
    messages = " ".join(d.message for d in diags)
    assert "np.random" in messages and "time.time" in messages


def test_l104_rest_of_hw_stays_exempt(tmp_path):
    assert not _lint(tmp_path, "src/repro/hw/frameworks.py", """\
        import numpy as np

        def perturb(x):
            return x + np.random.default_rng(0).random()
        """, style=False)


def test_l104_real_calibrate_module_is_clean():
    # The shipped recorder passes its own gate: the single seeded RNG at
    # the recording boundary carries a justified allow[L104].
    import pathlib

    import repro.hw.calibrate as calibrate

    path = pathlib.Path(calibrate.__file__)
    assert not [d for d in lint_file(path, style=False)
                if d.rule in {"L103", "L104"}]


# ------------------------------------------------------------ tree drivers


def test_iter_python_files_walks_directories(tmp_path):
    a = _write(tmp_path, "pkg/a.py", "x = 1\n")
    b = _write(tmp_path, "pkg/sub/b.py", "y = 2\n")
    _write(tmp_path, "pkg/notes.txt", "not python\n")
    assert iter_python_files([tmp_path]) == [a, b]
    assert iter_python_files([a]) == [a]


def test_lint_paths_aggregates_and_relativizes(tmp_path):
    _write(tmp_path, "src/repro/core/bad.py", _KERNEL_BAD)
    _write(tmp_path, "src/repro/runtime/bad.py", _CACHE_BAD)
    diags = lint_paths([tmp_path / "src"], root=tmp_path, style=False)
    assert _rules(diags) == {"L101", "L103"}
    for d in diags:
        assert not pathlib.Path(d.location.rsplit(":", 1)[0]).is_absolute()


def test_repo_source_tree_lints_clean():
    """The gate `make analyze` enforces: our own tree has zero errors."""
    diags = lint_repo(REPO, style=True)
    assert not diags, "\n".join(d.format() for d in diags)


# -------------------------------------------------------- CLI entry point


def _run_cli(*argv, cwd=REPO):
    env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


def test_cli_analyze_clean_source_exits_zero(tmp_path):
    _write(tmp_path, "clean.py", "x = 1\n")
    proc = _run_cli("analyze", "--source", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 error(s)" in proc.stdout


def test_cli_analyze_seeded_violation_exits_nonzero(tmp_path):
    bad = _write(tmp_path, "src/repro/core/bad.py", _KERNEL_BAD)
    proc = _run_cli("analyze", "--source", str(bad))
    assert proc.returncode == 1
    assert "[L101]" in proc.stdout


def test_cli_analyze_json_format(tmp_path):
    bad = _write(tmp_path, "src/repro/core/bad.py", _KERNEL_BAD)
    proc = _run_cli("analyze", "--source", str(bad), "--format", "json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["errors"] == 1
    assert payload["diagnostics"][0]["rule"] == "L101"


def test_cli_analyze_model_gate(tmp_path):
    proc = _run_cli("analyze", "--model", "quicknet_small", "--input-size", "64")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 error(s)" in proc.stdout


def test_tools_lint_runs_clean():
    env = {"PATH": "/usr/bin:/bin"}
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "lint.py")],
        capture_output=True, text=True, cwd=REPO, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_roots_exist():
    for r in ROOTS:
        assert (REPO / r).exists(), r

"""Seeded-violation tests for the concurrency analysis engine (C-rules).

Mirrors ``tests/test_lint_rules.py``: each rule in
:mod:`repro.analysis.concurrency` is exercised against known-bad snippets
written under ``tmp_path`` (C004 is path-scoped to ``serving/``, so those
fixtures recreate the directory shape).  The real repo's ``src/`` tree
must check clean, and ``repro.cli analyze --concurrency`` must exit zero
on it.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys
import textwrap

from repro.analysis.concurrency import check_file, check_paths, check_repo
from repro.concurrency.order import LOCK_RANKS

REPO = pathlib.Path(__file__).resolve().parent.parent


def _write(tmp_path, relpath, source):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def _check(tmp_path, relpath, source):
    return check_file(_write(tmp_path, relpath, source))


def _rules(diags):
    return {d.rule for d in diags}


# ------------------------------------------------------ C001: lock inventory


def test_c001_raw_lock_construction(tmp_path):
    diags = _check(tmp_path, "src/repro/runtime/m.py", """\
        import threading

        _LOCK = threading.Lock()
        """)
    assert _rules(diags) == {"C001"}
    assert "raw threading.Lock" in diags[0].message


def test_c001_raw_rlock_and_bare_condition(tmp_path):
    diags = _check(tmp_path, "src/repro/obs/m.py", """\
        import threading

        A = threading.RLock()
        B = threading.Condition()
        """)
    assert [d.rule for d in diags] == ["C001", "C001"]


def test_c001_unregistered_name(tmp_path):
    diags = _check(tmp_path, "src/repro/core/m.py", """\
        from repro.concurrency.locks import ordered_lock

        L = ordered_lock("no.such.lock")
        """)
    assert _rules(diags) == {"C001"}
    assert "not registered" in diags[0].message


def test_c001_non_literal_name(tmp_path):
    diags = _check(tmp_path, "src/repro/core/m.py", """\
        from repro.concurrency.locks import ordered_lock

        def make(name):
            return ordered_lock(name)
        """)
    assert _rules(diags) == {"C001"}
    assert "string-literal" in diags[0].message


def test_c001_reentrancy_must_match_the_table(tmp_path):
    # The table registers no reentrant lock, so a reentrant one is refused
    # wherever it is built: as an instance attribute or under a Condition.
    diags = _check(tmp_path, "src/repro/obs/m.py", """\
        import threading

        class S:
            def __init__(self):
                self._lock = threading.RLock()
                self._cond = threading.Condition(threading.RLock())
        """)
    assert [d.rule for d in diags] == ["C001", "C001"]
    assert all("raw threading.RLock" in d.message for d in diags)


def test_c001_registered_factory_call_is_clean(tmp_path):
    assert not _check(tmp_path, "src/repro/obs/m.py", """\
        from repro.concurrency.locks import ordered_lock

        A = ordered_lock("obs.trace")
        B = ordered_lock("serving.gateway")
        """)


def test_c001_suppression_with_reason(tmp_path):
    assert not _check(tmp_path, "src/repro/runtime/m.py", """\
        import threading

        _MU = threading.Lock()  # repro: allow[C001] internal mutex of the checker itself
        """)


def test_c001_unused_rank_is_an_error(tmp_path):
    """The inventory is two-sided: a rank registered in the table with no
    construction site under ``src/`` fails the repo gate."""
    _write(tmp_path, "src/repro/obs/m.py", """\
        from repro.concurrency.locks import ordered_lock

        TRACE = ordered_lock("obs.trace")
        GATEWAY = ordered_lock("serving.gateway")
        """)
    # A construction site outside src/ does not count.
    _write(tmp_path, "tests/t.py", """\
        from repro.concurrency.locks import ordered_lock

        PLAN = ordered_lock("runtime.engine.plan")
        """)
    diags = check_repo(tmp_path)
    assert _rules(diags) == {"C001"}
    assert all("unused rank" in d.message for d in diags)
    assert all(d.location == "src/repro/concurrency/order.py" for d in diags)
    named = {name for name in LOCK_RANKS if any(repr(name) in d.message for d in diags)}
    assert named == set(LOCK_RANKS) - {"obs.trace", "serving.gateway"}


def test_c001_a_rank_left_behind_fails_the_repo_gate(monkeypatch):
    """Deleting a lock but not its table entry is caught: re-registering the
    retired engine-worker rank makes the otherwise clean repo fail."""
    from repro.analysis import concurrency
    from repro.concurrency.order import LOCK_ORDER, LockRank

    stale = LockRank("runtime.engine.worker", 40, "no lock uses this")
    monkeypatch.setattr(concurrency, "LOCK_ORDER", LOCK_ORDER + (stale,))
    diags = check_repo(REPO)
    assert [d.rule for d in diags] == ["C001"]
    assert "unused rank" in diags[0].message
    assert "'runtime.engine.worker'" in diags[0].message


# ------------------------------------------------- C003: blocking under lock


def test_c003_blocking_calls_under_a_lock(tmp_path):
    diags = _check(tmp_path, "src/repro/runtime/m.py", """\
        import time

        from repro.concurrency.locks import ordered_lock

        PLAN = ordered_lock("runtime.engine.plan")

        def bad(fut, q, worker):
            with PLAN:
                fut.result()
                q.get()
                worker.join()
                time.sleep(0.1)
        """)
    assert [d.rule for d in diags] == ["C003"] * 4


def test_c003_engine_run_and_queue_put_under_a_lock(tmp_path):
    diags = _check(tmp_path, "src/repro/serving/m.py", """\
        from repro.concurrency.locks import ordered_lock

        L = ordered_lock("serving.server")

        def bad(engine, work_queue, item):
            with L:
                engine.run(item)
                engine.run_many([item])
                work_queue.put(item)
        """)
    assert [d.rule for d in diags] == ["C003", "C003", "C003"]


def test_c003_timeouts_and_unlocked_calls_are_clean(tmp_path):
    assert not _check(tmp_path, "src/repro/runtime/m.py", """\
        from repro.concurrency.locks import ordered_lock

        PLAN = ordered_lock("runtime.engine.plan")

        def fine(fut, q, worker, item):
            with PLAN:
                snapshot = list(q.queue)
            fut.result(timeout=1.0)
            q.get(timeout=0.5)
            q.put(item, timeout=0.5)
            worker.join()
            return snapshot
        """)


def test_c003_condition_wait_is_exempt(tmp_path):
    # Condition.wait releases the lock while blocked — it is the correct
    # way to block, not a violation.
    assert not _check(tmp_path, "src/repro/serving/m.py", """\
        import threading

        from repro.concurrency.locks import ordered_lock

        class S:
            def __init__(self):
                self._lock = ordered_lock("serving.server")
                self._cond = threading.Condition(self._lock)

            def park(self):
                with self._cond:
                    self._cond.wait()
        """)


def test_c003_resolves_instance_attr_locks(tmp_path):
    diags = _check(tmp_path, "src/repro/serving/m.py", """\
        import time

        from repro.concurrency.locks import ordered_lock

        class S:
            def __init__(self):
                self._trace_lock = ordered_lock("obs.trace")

            def wrong(self):
                with self._trace_lock:
                    time.sleep(1)
        """)
    assert _rules(diags) == {"C003"}
    assert "'obs.trace'" in diags[0].message


def test_c003_nested_defs_do_not_inherit_the_lock(tmp_path):
    # A function *defined* under a lock does not *run* under it.
    assert not _check(tmp_path, "src/repro/runtime/m.py", """\
        from repro.concurrency.locks import ordered_lock

        PLAN = ordered_lock("runtime.engine.plan")

        def outer(fut):
            with PLAN:
                def callback():
                    return fut.result()
            return callback
        """)


# ----------------------------------------------- C004: future resolution


def test_c004_call_between_creation_and_handoff(tmp_path):
    diags = _check(tmp_path, "src/repro/serving/m.py", """\
        from concurrent.futures import Future

        def submit(server, inputs):
            fut = Future()
            request = server.normalize(inputs)
            server.enqueue(request, fut)
            return fut
        """)
    assert _rules(diags) == {"C004"}
    assert "may raise" in diags[0].message


def test_c004_raise_with_unresolved_future(tmp_path):
    diags = _check(tmp_path, "src/repro/serving/m.py", """\
        from concurrent.futures import Future

        def submit(closed):
            fut = Future()
            if closed:
                raise RuntimeError("closed")
            return fut
        """)
    assert "C004" in _rules(diags)


def test_c004_create_after_validation_is_clean(tmp_path):
    assert not _check(tmp_path, "src/repro/serving/m.py", """\
        from concurrent.futures import Future

        def submit(server, inputs):
            request = server.normalize(inputs)
            fut = Future()
            server.enqueue(request, fut)
            return fut
        """)


def test_c004_resolving_try_guard_is_clean(tmp_path):
    assert not _check(tmp_path, "src/repro/serving/m.py", """\
        from concurrent.futures import Future

        def submit(server, inputs):
            fut = Future()
            try:
                request = server.normalize(inputs)
            except Exception as exc:
                fut.set_exception(exc)
                return fut
            server.enqueue(request, fut)
            return fut
        """)


def test_c004_scoped_to_serving(tmp_path):
    source = """\
        from concurrent.futures import Future

        def submit(server, inputs):
            fut = Future()
            request = server.normalize(inputs)
            server.enqueue(request, fut)
            return fut
        """
    assert not _check(tmp_path, "src/repro/runtime/m.py", source)
    assert "C004" in _rules(_check(tmp_path, "src/repro/serving/m.py", source))


# ------------------------------------------------- C005: unlocked publish


_PUBLISH_BAD = """\
    from repro.concurrency.locks import ordered_lock

    class Server:
        def __init__(self):
            self._lock = ordered_lock("serving.server")
            self._closed = False

        def close(self):
            self._closed = True
"""


def test_c005_publish_outside_the_lock(tmp_path):
    diags = _check(tmp_path, "src/repro/serving/m.py", _PUBLISH_BAD)
    assert _rules(diags) == {"C005"}
    assert "_closed" in diags[0].message


def test_c005_publish_under_the_lock_is_clean(tmp_path):
    assert not _check(tmp_path, "src/repro/serving/m.py", """\
        from repro.concurrency.locks import ordered_lock

        class Server:
            def __init__(self):
                self._lock = ordered_lock("serving.server")
                self._closed = False

            def close(self):
                with self._lock:
                    self._closed = True
        """)


def test_c005_condition_wrapping_the_lock_counts(tmp_path):
    assert not _check(tmp_path, "src/repro/serving/m.py", """\
        import threading

        from repro.concurrency.locks import ordered_lock

        class Server:
            def __init__(self):
                self._lock = ordered_lock("serving.server")
                self._cond = threading.Condition(self._lock)
                self._closed = False

            def close(self):
                with self._cond:
                    self._closed = True
        """)


def test_c005_only_applies_to_lock_declaring_classes(tmp_path):
    assert not _check(tmp_path, "src/repro/serving/m.py", """\
        class Config:
            def __init__(self):
                self.max_batch = 8

            def widen(self):
                self.max_batch = 16
        """)


def test_c005_suppression_for_caller_holds_lock(tmp_path):
    src = _PUBLISH_BAD.replace(
        "self._closed = True",
        "self._closed = True  # repro: allow[C005] caller holds self._lock",
    )
    assert not _check(tmp_path, "src/repro/serving/m.py", src)


# ------------------------------------------------------------ tree drivers


def test_check_paths_aggregates(tmp_path):
    _write(tmp_path, "src/repro/runtime/a.py",
           "import threading\n\nL = threading.Lock()\n")
    _write(tmp_path, "src/repro/serving/b.py", textwrap.dedent("""\
        from concurrent.futures import Future

        def f(server, x):
            fut = Future()
            server.check(x)
            server.enqueue(fut)
        """))
    diags = check_paths([tmp_path / "src"], root=tmp_path)
    assert _rules(diags) == {"C001", "C004"}
    for d in diags:
        assert not pathlib.Path(d.location.rsplit(":", 1)[0]).is_absolute()


def test_repo_src_tree_checks_clean():
    """The gate `analyze --concurrency` enforces: src/ has zero errors."""
    diags = check_repo(REPO)
    assert not diags, "\n".join(d.format() for d in diags)


def test_check_repo_skips_tests_and_benchmarks():
    # Raw locks and rank overrides in tests/ are fixtures, not products.
    locations = [d.location for d in check_repo(REPO)]
    assert not [loc for loc in locations if not loc.startswith("src")]


# -------------------------------------------------------- CLI entry point


def _run_cli(*argv, cwd=REPO):
    env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


def test_cli_analyze_concurrency_exits_zero_on_repo():
    proc = _run_cli("analyze", "--concurrency")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 error(s)" in proc.stdout
    assert "lock discipline" in proc.stdout

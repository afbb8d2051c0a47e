"""The three disciplines against fake targets: what is timed, what is counted."""

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from bench import loadgen

POOL = [np.full((1, 2), float(i + 1), np.float32) for i in range(4)]
REFS = [x * 2 for x in POOL]


@dataclass
class Rejected:
    reason: str


def _answer_later(delay_s, reply_of=lambda x: x * 2):
    """A submit() whose future resolves on a timer thread after ``delay_s``."""

    def submit(x):
        future = Future()
        timer = threading.Timer(delay_s, lambda: future.set_result(reply_of(x)))
        timer.daemon = True
        timer.start()
        return future

    return submit


def test_closed_loop_checks_every_reply_and_stamps_its_ends():
    phase = loadgen.closed_loop(
        lambda inputs: [x * 2 for x in inputs], POOL, REFS,
        images_per_op=2, seconds=0.2,
    )
    assert phase.attempted == 2 * len(phase.status) and phase.failed == 0
    assert all(d >= t for t, d in zip(phase.due, phase.done))
    # (wall, CPU) when it began and ended, around every operation
    assert phase.began[0] <= phase.due[0] and phase.done[-1] <= phase.ended[0]
    assert 0.0 < phase.ended[1] - phase.began[1] <= phase.ended[0] - phase.began[0] + 0.05


def test_closed_loop_counts_a_wrong_or_wrong_dtype_reply_as_failed():
    wrong = loadgen.closed_loop(
        lambda inputs: [x * 3 for x in inputs], POOL, REFS, 1, 0.05
    )
    assert wrong.failed == wrong.attempted > 0
    assert set(wrong.status) == {loadgen.MISMATCH}
    widened = loadgen.closed_loop(
        lambda inputs: [(x * 2).astype(np.float64) for x in inputs],
        POOL, REFS, 1, 0.05,
    )
    assert set(widened.status) == {loadgen.MISMATCH}


def test_open_loop_times_from_the_due_time_not_from_submit():
    stall = 0.05

    def slow_submit(x):
        time.sleep(stall)  # the generator is held up: later requests go out late
        future = Future()
        future.set_result(x * 2)
        return future

    schedule = [0.0, 0.001, 0.002, 0.003]
    phase = loadgen.open_loop(
        slow_submit, schedule, POOL, REFS, seconds=0.05,
        rejected_type=Rejected, failed_reason="replica_error",
    )
    assert phase.failed == 0
    latencies = phase.latencies_ms()
    # request k was due at ~k ms but could only be handed over after k stalls
    assert latencies[3] >= 3 * stall * 1e3
    assert latencies == sorted(latencies)
    assert max(phase.lateness_ms()) >= 3 * stall * 1e3 - 5


def test_open_loop_counts_shed_and_failed_replies_apart():
    replies = iter([Rejected("queue_full"), Rejected("replica_error")])
    phase = loadgen.open_loop(
        _answer_later(0.0, lambda x: next(replies)), [0.0, 0.001], POOL, REFS,
        seconds=0.01,
        rejected_type=Rejected, failed_reason="replica_error",
    )
    assert phase.status == [loadgen.SHED, loadgen.FAILED]
    assert phase.failed == 2 and phase.latencies_ms() == []


def test_saturate_keeps_the_asked_number_in_flight():
    outstanding = peak = 0
    lock = threading.Lock()
    inner = _answer_later(0.005)

    def submit(x):
        nonlocal outstanding, peak
        with lock:
            outstanding += 1
            peak = max(peak, outstanding)
        future = inner(x)

        def done(_f):
            nonlocal outstanding
            with lock:
                outstanding -= 1

        future.add_done_callback(done)
        return future

    phase = loadgen.saturate(
        submit, 4, POOL, REFS, seconds=0.1,
        rejected_type=Rejected, failed_reason="replica_error",
    )
    assert peak == 4
    assert phase.failed == 0 and len(phase.status) > 4
    assert not any(np.isnan(phase.done))

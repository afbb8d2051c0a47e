"""The end-to-end estimators on hand-built phases: the quietest window."""

import pytest

from bench import loadgen
from bench.worker import summarise
from bench.workloads import BY_NAME


def _phase(second_latencies_ms, images_per_op=1, cpu_share=0.5):
    """One entry per second; each second holds back-to-back operations of
    that latency; the process is on a CPU for ``cpu_share`` of the time."""
    phase = loadgen.Phase(images_per_op)
    for k, lat_ms in enumerate(second_latencies_ms):
        for j in range(int(1000 // lat_ms)):
            phase.due.append(k + j * lat_ms / 1e3)
            phase.sent.append(phase.due[-1])
            phase.done.append(k + (j + 1) * lat_ms / 1e3)
            phase.status.append(loadgen.OK)
    seconds = float(len(second_latencies_ms))
    phase.ended = (seconds, cpu_share * seconds)
    return phase


def test_a_host_that_is_slow_most_of_the_run_moves_no_gating_number():
    steady = _phase([20.0] * 10)
    noisy = _phase([29.0, 29.0, 450.0, 20.0, 29.0, 29.0, 20.0, 29.0, 29.0, 29.0])
    a, _ = summarise(steady, BY_NAME["single_224"])
    b, detail = summarise(noisy, BY_NAME["single_224"])
    assert set(a) == {"lat_p50_ms", "throughput_ips", "slo_attainment"}
    for name in a:
        assert b[name] == pytest.approx(a[name], rel=0.01)
    assert a["lat_p50_ms"] == pytest.approx(20.0)
    assert a["throughput_ips"] == pytest.approx(50.0)
    assert a["slo_attainment"] == 1.0
    # ...but nothing is lost: the whole-phase numbers are kept next to them,
    # and there the stall misses the latency limit
    assert detail["whole_phase"]["lat_p50_ms"] == pytest.approx(29.0)
    assert detail["whole_phase"]["throughput_ips"] < 0.8 * b["throughput_ips"]
    assert detail["whole_phase"]["slo_attainment"] < 1.0
    assert detail["whole_phase"]["cpu_ms_per_image"] == pytest.approx(
        0.5 * 10.0 * 1e3 / detail["samples"])
    assert detail["window_ops"] == round(detail["samples"] * 0.3 / 10.0)


def test_a_program_that_is_late_in_every_slice_misses_the_limit():
    # one 250 ms operation in every second of twelve: no slice is clean
    phase = _phase([50.0] * 12)
    for k in range(0, len(phase.status), 20):
        phase.done[k] = phase.due[k] + 0.250
    metrics, detail = summarise(phase, BY_NAME["single_224"])
    assert metrics["slo_attainment"] == pytest.approx(0.95)
    assert detail["whole_phase"]["slo_attainment"] == pytest.approx(0.95)


def test_failed_operations_miss_the_limit_and_leave_the_timed_numbers():
    phase = _phase([20.0] * 6)
    phase.status[:50] = [loadgen.SHED] * 50  # the whole first second
    metrics, detail = summarise(phase, BY_NAME["single_224"])
    assert detail["whole_phase"]["slo_attainment"] == pytest.approx(250 / 300)
    assert metrics["slo_attainment"] == 1.0  # five of six slices are clean
    assert metrics["lat_p50_ms"] == pytest.approx(20.0)
    assert detail["status"]["shed"] == 50 and detail["samples"] == 250


def test_run_many_counts_images_not_calls():
    metrics = summarise(_phase([50.0] * 5, images_per_op=8), BY_NAME["offline_b8_64"])
    metrics, detail = metrics
    assert metrics["throughput_ips"] == pytest.approx(160.0)
    assert detail["whole_phase"]["cpu_ms_per_image"] == pytest.approx(25.0 / 8)


def test_open_loop_throughput_is_over_the_whole_phase():
    phase = _phase([20.0, 20.0, 40.0, 20.0, 20.0])
    metrics, detail = summarise(phase, BY_NAME["serve_steady_32"])
    assert metrics["throughput_ips"] == pytest.approx(len(phase.status) / 5.0)
    assert metrics["lat_p50_ms"] == pytest.approx(20.0)
    assert "gen_lateness_p99_ms" in detail


def test_tail_is_reported_only_with_enough_samples():
    _, few = summarise(_phase([100.0] * 5), BY_NAME["single_224"])       # 50 samples
    _, many = summarise(_phase([10.0] * 5), BY_NAME["single_224"])       # ~500 samples
    assert "tail" not in few
    assert many["tail"]["percentile"] == 95.0


class _LateOnceTarget:
    """A stand-in target whose first open-loop phase the generator ran late for."""

    def __init__(self, recorder):
        self.engines = []
        self.recorder = recorder
        self.schedules = []

    def measure(self, pool, refs, seconds, schedule, recorder):
        self.schedules.append(schedule)
        late_s = 0.050 if len(self.schedules) == 1 else 0.001
        phase = loadgen.Phase(1)
        for k, due in enumerate(schedule):
            phase.due.append(due)
            phase.sent.append(due + late_s)
            phase.done.append(due + late_s + 0.010)
            phase.status.append(loadgen.OK)
            recorder.add("request", due, phase.done[-1], rid=k)
        return phase


def test_a_late_open_loop_run_is_redone_once_and_leaves_no_spans_behind():
    from bench.trace import TraceRecorder
    from bench.worker import _phase_with_retry

    recorder = TraceRecorder()
    target = _LateOnceTarget(recorder)
    phase, notes = _phase_with_retry(
        target, BY_NAME["serve_steady_32"], 3, None, None, 2.0, recorder
    )
    assert len(target.schedules) == 2 and target.schedules[0] != target.schedules[1]
    assert len(notes) == 1 and notes[0].startswith("invalid: generator lateness")
    assert max(phase.lateness_ms()) < 10.0
    assert len(recorder.spans()) == len(phase.status)  # the first attempt's are gone

"""The four workloads and the inputs they are fed.

Few workloads, long runs: on this class of host a run has to be long
enough to hold a quiet stretch, so each workload has to earn its run time
by stressing a different layer (see ``why``).  Three are gated — named in
``BENCHMARK.json`` and run by the driver; the fourth is run by name.
"""

from __future__ import annotations

from dataclasses import dataclass

MODEL = "quicknet_small"

#: arrays in the seeded input pool; each has an ``Executor`` reference
POOL_SIZE = 16

#: the gating times are read in the quietest window of consecutive
#: operations; a window holds as many as complete in this long on average
#: (see ``bench.worker.summarise``).  Between runs of the same code 0.3 s
#: windows spread about a fifth less than 0.5 s ones on ``serve_steady_32``
#: and the same on the other workloads
QUIET_WINDOW_S = 0.3

#: ... and never fewer than this
MIN_WINDOW_OPS = 5

#: ``slo_attainment`` is the median over this many equal slices of the phase
SLO_SLICES = 6

#: a ``--trace 1`` run sizes its phases and probes for at most this long;
#: the per-layer numbers have no bound and the driver's time is better spent
#: on the measured phase
TRACED_SECONDS = 20.0

#: an open-loop run is invalid when more than a tenth of its requests were
#: handed over later than this
MAX_LATENESS_MS = 10.0

#: the committed serving configuration (``repro.serving.GatewayConfig`` fields)
GATEWAY_CONFIG = {"max_batch": 8, "deadline_ms": 5.0, "replicas": 2, "num_threads": 1}

#: the model's name inside the gateway
SERVED_NAME = "m"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    input_size: int
    #: ``run`` | ``run_many`` (closed loop on an Engine) |
    #: ``open`` | ``saturate`` (through the Gateway)
    mode: str
    #: images per operation (one ``run``/``run_many`` call or one request)
    images_per_op: int
    #: latency limit for ``slo_attainment``; about three times the seed's
    #: median so only stalls, sheds and failures miss it — except on
    #: ``serve_steady_32`` where 60 ms is the limit a caller would set
    slo_ms: float
    #: plan batch factor the layer probes are sized at
    probe_batch: int
    #: offered Poisson rate (``open`` only)
    rate_rps: float = 0.0
    #: futures kept in flight (``saturate`` only)
    in_flight: int = 0
    #: named in ``BENCHMARK.json``.  The driver's time limit covers 4 + 22 runs
    #: per workload: three workloads leave each run 34 s to measure, four 20 s,
    #: too short to hold a quiet stretch through this host's slow spells
    gated: bool = True

    @property
    def served(self) -> bool:
        return self.mode in ("open", "saturate")


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="single_224",
        why="closed loop, one caller, Engine.run on one 224x224 image: the paper's "
            "headline latency; binarized-conv MAC throughput does ~80% of the work, "
            "serving none",
        input_size=224, mode="run", images_per_op=1, slo_ms=200.0, probe_batch=1,
    ),
    Workload(
        name="offline_b8_64",
        why="closed loop, one caller, Engine.run_many on eight 64x64 requests per "
            "call: coalesce, concat, batch-8 plan, split; shows whether batching "
            "amortises per-call cost; bypasses serving",
        input_size=64, mode="run_many", images_per_op=8, slo_ms=150.0, probe_batch=8,
    ),
    Workload(
        name="serve_steady_32",
        why="open loop, seeded Poisson 30 rps through Gateway.submit at 32x32, timed "
            "from due time: every flush is a deadline flush near batch 1, so per-call "
            "fixed cost and the 5 ms wait dominate",
        input_size=32, mode="open", images_per_op=1, slo_ms=60.0, probe_batch=1,
        rate_rps=30.0,
    ),
    Workload(
        name="serve_saturate_32",
        why="closed loop through the same gateway, 16 futures in flight: every flush "
            "is a size flush at batch 8, so it measures capacity and exposes a change "
            "that helps deadline flushes at the cost of full batches",
        input_size=32, mode="saturate", images_per_op=1, slo_ms=400.0, probe_batch=8,
        in_flight=16,
        # Five busy threads on two cores measure the scheduler: over eight
        # runs of the same code its latency spread 0.38 and its throughput
        # 0.18 (see the README), so it is the one left ungated.
        gated=False,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
GATED = tuple(w for w in WORKLOADS if w.gated)


def iter_pool(seed: int, input_size: int):
    """Yield ``POOL_SIZE`` seeded float32 images of shape ``(1, size, size, 3)``."""
    import numpy as np

    rng = np.random.default_rng([seed, 0])
    for _ in range(POOL_SIZE):
        yield rng.standard_normal((1, input_size, input_size, 3)).astype(np.float32)


def make_pool(seed: int, input_size: int) -> list:
    return list(iter_pool(seed, input_size))


def poisson_schedule(seed: int, rate_rps: float, seconds: float) -> list[float]:
    """Seeded Poisson arrival offsets in ``[0, seconds)``, ascending.

    The process is conditioned on its count: exactly ``round(rate * seconds)``
    arrivals, placed as a Poisson process places them given that count
    (independent uniforms, sorted).  Every seed then offers the same load,
    so ``throughput_ips`` differs between runs only if the gateway does.
    """
    import numpy as np

    if rate_rps <= 0 or seconds <= 0:
        raise ValueError("rate and duration must be positive")
    rng = np.random.default_rng([seed, 1])
    count = max(1, round(rate_rps * seconds))
    return sorted(float(t) for t in rng.uniform(0.0, seconds, size=count))

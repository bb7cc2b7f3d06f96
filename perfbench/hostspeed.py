"""Host-speed calibration for a shared, noisy machine.

On a virtual machine that shares physical cores, the host's speed drifts for
stretches of tens of seconds: compute-bound Python runs up to ~1.7x faster
in some stretches than in others, and process CPU time tracks wall time, so
neither longer runs nor CPU-time clocks remove the swing.  The benchmark
therefore times a fixed pure-Python kernel between chunks of engine work and
rescales each chunk's raw times by (NOMINAL_NS / kernel time around the
chunk) ** SENSITIVITY: the reported times estimate what the chunk would have
taken at the host speed where the kernel takes NOMINAL_NS.

The kernel uses no dynmatch code, so an engine change cannot move it.  Its
mix (dict and set updates, compares, heap pushes and pops, small calls) is
the engine's instruction mix in miniature.
"""

from __future__ import annotations

import heapq
import time

#: Kernel time the figures are scaled to: its usual time between engine
#: chunks on a 2.1 GHz Xeon vCPU with CPython 3.11, so the factor is about 1
#: in the host's usual state.
NOMINAL_NS = 800_000
#: Kernel runs per sample; a sample is their minimum.
REPEATS = 2
#: How much of the kernel's speed change engine code shares, as an exponent
#: on the kernel's ratio.  When the host runs fast, the kernel gets ~1.7x
#: faster but the engine only 1.3-1.4x (it touches far more memory), which is
#: ln 1.35 / ln 1.7 ~ 0.6.  Over 5-seed batches on all three workloads, 0.6
#: gave the smallest worst-case run-to-run spread of the choices 0.5-1.
SENSITIVITY = 0.6


def _kernel(n: int = 800) -> int:
    # Only ints are created: the collector tracks none of them, so the
    # kernel neither triggers nor absorbs the engine's gc collections.
    counts: dict[int, int] = {}
    seen: set[int] = set()
    heap: list[int] = []
    for i in range(n):
        key = (i % 97) * 89 + i % 89
        counts[key] = counts.get(key, 0) + 1
        seen.add(key)
        if i % 3 == 0:
            seen.discard((i % 89) * 97 + i % 97)
        heapq.heappush(heap, (i * 7919 % 1000) << 16 | key)
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(counts) + len(seen)


def sample() -> int:
    """Nanoseconds of one kernel run, the fastest of REPEATS."""
    best = None
    for _ in range(REPEATS):
        t = time.perf_counter_ns()
        _kernel()
        dt = time.perf_counter_ns() - t
        best = dt if best is None else min(best, dt)
    return best


def factors(samples: list[int]) -> list[float]:
    """Scale factor for each interval between consecutive samples."""
    return [(2 * NOMINAL_NS / (a + b)) ** SENSITIVITY for a, b in zip(samples, samples[1:])]

"""Machine-speed sampler.

    python3 perfbench/sampler.py OUT CPU

The benchmark shares a small cloud machine whose speed swings by up to 2x
over tens of seconds as other tenants load it, and each virtual CPU swings
on its own.  While a benchmark run lasts, this process, pinned to CPU,
times a fixed half-millisecond piece of interpreter work every 50 ms
(about 1% of that CPU) and appends ``start duration`` to OUT, one flushed
line per sample, until it is terminated.  The command runs pinned to the
same CPUs as the samplers.  ``speed`` turns
the samples that fall in a command's time span into the factor that scales
the command's measured times to the reference speed:

    reported = measured * speed = measured * REFERENCE_S / mean(sample durations)

The sampled work does not touch the package, so a change to the package
moves the reported times exactly as it moves the measured ones.
"""

import math
import os
import statistics
import sys
import time

#: duration of one sample on an idle core of the 2-vCPU Intel Xeon machine
#: the benchmark was defined on
REFERENCE_S = 0.0005
INTERVAL_S = 0.05
#: samples this far outside a command's span still count for it
MARGIN_S = 0.5


class _Mark:
    __slots__ = ("t", "v")

    def __init__(self, t: float, v: float) -> None:
        self.t = t
        self.v = v


def sample() -> float:
    """Seconds taken by a fixed mix of arithmetic, object churn, dict
    stores and float formatting."""
    t0 = time.perf_counter()
    v, index, parts = 1.0, {}, []
    for k in range(1000):
        v = 1.0 + (v - 1.0) * math.exp(-0.01) + 1e-3 * (k % 7)
        index[k & 63] = _Mark(k, v)
        if k % 20 == 0:
            parts.append(format(v, ".17g"))
    ",".join(parts)
    return time.perf_counter() - t0


def speed(samples: list[tuple[float, float]], t0: float, t1: float) -> float:
    """REFERENCE_S over the mean duration of the samples taken between the
    ``time.monotonic()`` instants t0 and t1 (widened by MARGIN_S)."""
    inside = [d for start, d in samples if t0 - MARGIN_S <= start <= t1 + MARGIN_S]
    if not inside:
        raise ValueError(f"no speed samples between {t0:.3f} and {t1:.3f}")
    return REFERENCE_S / statistics.mean(inside)


def read_samples(path) -> list[tuple[float, float]]:
    with open(path) as fh:
        return [(float(a), float(b)) for a, b in (line.split() for line in fh if line.endswith("\n"))]


def main(out: str, cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    with open(out, "w", buffering=1) as fh:
        while True:
            start = time.monotonic()
            fh.write(f"{start!r} {sample()!r}\n")
            time.sleep(INTERVAL_S)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))

"""One timed command run in a fresh interpreter.

    python3 perfbench/child.py RESULT SRC COMMAND CONFIG SPAWNED CPUS [SPANS]

Imports ``supcogarch.cli`` from SRC, parses and validates CONFIG the way the
CLI does, calls ``cmd_<COMMAND>`` and writes its timings to RESULT as JSON,
with the ``time.monotonic()`` instants that bound set-up and the command
(see sampler.py).  SPAWNED is the parent's ``time.monotonic()`` just before
it started this process, so set-up time covers interpreter start-up too.
CPUS (comma-separated) are the CPUs the process is pinned to.  With SPANS the
package is traced (see tracer.py) and the spans are written there.  The
exit code is the command's.
"""

import os
import resource
import sys
import time


def main(argv: list[str]) -> int:
    result_path, src, command, config_path, spawned, cpus = argv[1:7]
    spans_path = argv[7] if len(argv) > 7 else None
    os.sched_setaffinity(0, {int(c) for c in cpus.split(",")})
    sys.path.insert(0, src)
    import supcogarch.cli as cli
    from supcogarch.config import parse_config

    recorder = missing = None
    if spans_path:
        import tracer

        recorder = tracer.Recorder()
        missing = tracer.install(recorder)

    with open(config_path) as fh:
        cfg = parse_config(fh.read()).with_overrides().validate()
    ready = time.monotonic()

    cpu0 = os.times()
    start = time.monotonic()
    rc = getattr(cli, f"cmd_{command}")(cfg)
    end = time.monotonic()
    cpu1 = os.times()

    import json

    import numpy
    import scipy

    result = {
        "rc": rc,
        "setup_s": ready - float(spawned),
        "wall_s": end - start,
        "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spawned": float(spawned),
        "ready": ready,
        "start": start,
        "end": end,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if recorder is not None:
        recorder.dump(spans_path, missing)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))

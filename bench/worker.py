"""One benchmark sample, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED [--trace]

Imports flatcert, builds the workload's inputs, prints `ready`, runs the
timed section once between two runs of a fixed calibration loop, and
prints one JSON line: the timed seconds, the calibration seconds, the
process's peak RSS, each operation's output or error, and with --trace
the tracer's counts and per-layer metrics.  The parent process measures
set-up time as spawn to `ready`.

The calibration loop does the kind of work flatcert's hot paths do
(tuple-keyed dicts, Fraction arithmetic, a max under a grevlex-style
key) without calling flatcert, so a change to flatcert leaves it alone.
On a shared machine the processor's speed drifts by up to 2x over
seconds; timed seconds over calibration seconds cancels most of that.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads


def calibration_seconds() -> float:
    """Time one fixed sparse product of two 120-term polynomials."""
    start = time.perf_counter()
    a = {(i, j, k): Fraction(i + 1, j + 2) for i in range(6) for j in range(5) for k in range(4)}
    b = {(i, j, k): Fraction(k - 3, i + 1) for i in range(4) for j in range(6) for k in range(5)}
    product: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            c = product.get(m, 0) + c1 * c2
            if c:
                product[m] = c
            else:
                product.pop(m, None)
    max(product, key=lambda m: (sum(m), tuple(-e for e in reversed(m))))
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    traced = "--trace" in argv[2:]
    import flatcert

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    inputs = workloads.plan(workload, seed)
    thunks = workloads.setup(workload, inputs)
    print("ready", flush=True)

    cal_before = calibration_seconds()
    results = []
    start = time.perf_counter()
    for op, thunk in thunks:
        try:
            results.append((op, thunk(), None))
        except Exception as exc:  # one failed operation must not end the sample
            results.append((op, None, f"{type(exc).__name__}: {exc}"))
    wall_s = time.perf_counter() - start
    cal_s = (cal_before + calibration_seconds()) / 2

    outputs = [
        {"op": op, "error": error}
        if error is not None
        else {"op": op, "output": workloads.serialize(workload, value)}
        for op, value, error in results
    ]
    record = {
        "wall_s": wall_s,
        "cal_s": cal_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "flatcert": str(Path(flatcert.__file__).resolve().parent),
        "outputs": outputs,
    }
    if tracer is not None:
        record["unwrapped"] = tracer.unwrapped_bindings()
        record["counts"] = tracer.counts()
        record["layers"] = tracer.layer_metrics()
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

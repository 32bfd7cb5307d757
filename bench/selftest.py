"""Self-tests of the benchmark's checks and tracer.

    python3 bench/selftest.py      # from the repository root, about a minute

1. Corruption: a real sample of each workload passes its check; the same
   outputs with one coefficient of each basis changed and each verdict
   flipped fail every operation, so fail_frac is 1.
2. Coverage: in one process, the tracer's call count for every span
   equals the number of times the profiler saw the original function's
   code run, so no binding site escaped the wrappers.
3. Determinism: traced counts are identical across two traced processes
   under each of two PYTHONHASHSEED values.

Exits 0 when all hold; prints one line per check.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def corruption(root: Path, references: dict) -> list[str]:
    errors = []
    for workload in workloads.WORKLOADS:
        outputs = run.run_sample(root, workload, SEED, traced=False)["outputs"]
        ops = workloads.operation_count(workload)
        clean = check.failures(workload, outputs, references)
        damaged = check.failures(workload, check.corrupt(workload, outputs), references)
        fail_frac = min(len(damaged), ops) / ops
        print(f"corruption {workload}: clean {len(clean)}/{ops} failed, corrupted fail_frac {fail_frac}")
        if clean or fail_frac != 1:
            errors.append(f"corruption check failed on {workload}")
    return errors


def coverage(root: Path) -> list[str]:
    sys.path.insert(0, str(root / "src"))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    codes = {fn.__code__: name for name, fn in tracer.originals.items()}
    seen: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            name = codes.get(frame.f_code)
            if name is not None:
                seen[name] += 1

    sys.setprofile(profile)
    try:
        for workload in workloads.WORKLOADS:
            for _, thunk in workloads.setup(workload, workloads.plan(workload, SEED)):
                thunk()
    finally:
        sys.setprofile(None)
    errors = [f"unwrapped binding {site}" for site in tracer.unwrapped_bindings()]
    errors += [
        f"span {name}: traced {tracer.calls[name]} calls, profiler saw {seen[name]}"
        for name in tracer.originals
        if tracer.calls[name] != seen[name]
    ]
    unused = sorted(name for name in tracer.originals if not seen[name])
    print(
        f"coverage: {sum(seen.values())} calls of {len(codes)} traced functions, "
        f"{len(errors)} mismatches; never called here: {', '.join(unused) or 'none'}"
    )
    return errors


def determinism(root: Path) -> list[str]:
    errors = []
    for workload in workloads.WORKLOADS:
        counts = [
            run.run_sample(root, workload, SEED, traced=True, hash_seed=h)["counts"]
            for h in run.HASH_SEEDS * 2
        ]
        same = all(c == counts[0] for c in counts)
        print(f"determinism {workload}: {len(counts)} traced processes, counts identical: {same}")
        if not same:
            errors.append(f"traced counts differ on {workload}")
    return errors


def main() -> int:
    root = Path.cwd()
    references = check.load_references(root)
    errors = corruption(root, references) + coverage(root) + determinism(root)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

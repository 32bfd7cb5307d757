"""flatcert benchmark: run one workload, check its outputs, print metrics.

    python3 bench/run.py --workload {repro,tor-deep,ideal-gb} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  One client in a closed loop: this process
starts one fresh worker process per sample (bench/worker.py), waits for
it, and starts the next, until S seconds have passed.  Every sample runs
in its own interpreter, so no module-level cache survives between
samples, as none survives between two `flatcert` CLI invocations; a
discarded warm-up sample first writes the bytecode caches.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
samples.  wall_s and setup_s are in nominal seconds: each sample's
measured seconds times NOMINAL_CAL_S over the seconds of a calibration
loop the same worker ran around its timed section (worker.py).  On a
shared machine whose speed drifts by up to 2x, this cancels most of the
drift; the raw medians are printed on the summary line.  --trace 1
alternates untraced and traced samples and reports the per-layer metrics
from the traced ones (medians, seconds again nominal; the counts must
repeat exactly across samples run under two PYTHONHASHSEED values) and
the tracing overhead.

Every output is checked against its reference (bench/check.py).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Earlier lines give the run context (git sha, Python, nproc, sympy,
/proc/loadavg before and after) and a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import workloads  # noqa: E402

MIN_SAMPLES = 3
# Traced samples run under these hash seeds in turn; their counts must agree.
HASH_SEEDS = ("1", "2")
# A sample that runs longer than this is killed and counted as failed, so
# a run still ends within its time limit.
SAMPLE_LIMIT_S = 120.0
# The calibration loop's time on the processor nominal seconds refer to.
NOMINAL_CAL_S = 0.1


class SampleError(Exception):
    """A worker died, hung, or printed no result."""


def run_sample(root: Path, workload: str, seed: int, traced: bool, hash_seed=None) -> dict:
    """Spawn one worker and return its record plus the measured set-up."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed)]
    if traced:
        cmd.append("--trace")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(SAMPLE_LIMIT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
        watchdog.cancel()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise SampleError(f"worker exited with status {proc.returncode}")
    try:
        record = json.loads(rest.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise SampleError("worker printed no result") from None
    if Path(record["flatcert"]) != (root / "src" / "flatcert").resolve():
        raise SampleError(f"worker imported flatcert from {record['flatcert']}")
    record["setup_s"] = setup_s
    return record


def run_context(root: Path) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    try:
        sympy = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy = "absent"
    return {
        "git_sha": sha or "unknown",
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "sympy": sympy,
    }


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def high_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any
    lies above the median."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < len(ordered) // 2:
        return ""
    return f", p{100 * (k + 1) // len(ordered)} {ordered[k]:.4f}"


def nominal(records: list[dict], key: str) -> float:
    """Median over samples of measured seconds scaled to a processor that
    runs the calibration loop in NOMINAL_CAL_S."""
    return statistics.median(r[key] * NOMINAL_CAL_S / r["cal_s"] for r in records)


def collect(root: Path, args, references: dict):
    """Run samples until the time is up; return the untraced and traced
    records, the operations attempted, and one message per failure."""
    ops = workloads.operation_count(args.workload)
    plain: list[dict] = []
    traced: list[dict] = []
    attempted = 0
    problems: list[str] = []
    try:
        run_sample(root, args.workload, args.seed, traced=False)  # warm-up, discarded
        start = time.perf_counter()
        while True:
            if args.trace and len(traced) < len(plain):
                hash_seed = HASH_SEEDS[len(traced) % len(HASH_SEEDS)]
                record = run_sample(root, args.workload, args.seed, True, hash_seed)
                traced.append(record)
            else:
                record = run_sample(root, args.workload, args.seed, False)
                plain.append(record)
            attempted += ops
            problems += check.failures(args.workload, record["outputs"], references)
            enough = len(plain) >= MIN_SAMPLES and (
                not args.trace or len(traced) >= len(HASH_SEEDS)
            )
            if enough and time.perf_counter() - start >= args.seconds:
                break
    except SampleError as exc:
        attempted += ops
        problems += [str(exc)] * ops
    return plain, traced, attempted, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    for needed in ("BENCHMARK.json", "src/flatcert/__init__.py", str(check.GOLDEN)):
        if not (root / needed).is_file():
            print(f"bench: {needed} not found; run from the repository root", file=sys.stderr)
            return 2
    spec = json.loads((root / "BENCHMARK.json").read_text("utf-8"))
    references = check.load_references(root)

    context = run_context(root)
    context["loadavg_before"] = loadavg()
    plain, traced, attempted, problems = collect(root, args, references)
    context["loadavg_after"] = loadavg()
    print("context " + json.dumps(context, sort_keys=True))

    # Correctness of the tracer itself: every binding wrapped, counts exact.
    for record in traced:
        if record["unwrapped"]:
            problems.append(f"tracer missed bindings: {record['unwrapped']}")
        if record["counts"] != traced[0]["counts"]:
            problems.append("traced counts differ between samples")

    failed = min(len(problems), attempted)
    for message in sorted(set(problems)):
        print(f"FAIL {message}")
    print(f"fail_frac {failed / attempted:.4f} ({failed}/{attempted} operations)")
    metrics = {}
    if plain:
        walls = [r["wall_s"] for r in plain]
        print(
            f"raw wall_s median {statistics.median(walls):.4f} over {len(walls)} "
            f"samples{high_percentile(walls)}; raw setup_s median "
            f"{statistics.median(r['setup_s'] for r in plain):.4f}; calibration "
            f"median {statistics.median(r['cal_s'] for r in plain):.4f}"
        )
        values = {
            "wall_s": nominal(plain, "wall_s"),
            "setup_s": nominal(plain, "setup_s"),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        if args.trace and traced:
            values["trace.traced_wall_s"] = nominal(traced, "wall_s")
            values["trace.overhead_ratio"] = values["trace.traced_wall_s"] / values["wall_s"]
            print(
                f"tracing overhead: traced wall_s {values['trace.traced_wall_s']:.4f} / "
                f"untraced {values['wall_s']:.4f} = {values['trace.overhead_ratio']:.3f}"
            )
            for name in traced[0]["layers"]:
                values[name] = statistics.median(
                    r["layers"][name] * (NOMINAL_CAL_S / r["cal_s"] if name.endswith("_s") else 1)
                    for r in traced
                )
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        for m in wanted:
            if m["name"] not in values:
                problems.append(f"metric {m['name']} not measured")
                continue
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

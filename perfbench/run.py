"""qhekit benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload catalog|qotp2|sweep --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

One workload runs in a fresh worker process (worker.py).  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics of
a traced run with --trace 1.  ``--workload all`` runs every workload untraced
and then traced, and prints a table of both and the tracing overhead
(traced minus untraced job_p50_s and job_min_s).  Full records with run metadata go to
.perfbench/results/.  The exit code is non-zero, with no result line, when a
worker cannot run, e.g. because src/qhekit is missing.

This file uses only the standard library, so this process never loads numpy.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench" / "results"
WORKLOADS = ("catalog", "qotp2", "sweep")
# Set-up is also timed in this many set-up-only processes before and after the
# measured one; setup_s is the median of all of them.
SETUP_PROBES_EACH_SIDE = 4
RUN_LIMIT_S = 170  # every worker of one run must end within this


class WorkerError(RuntimeError):
    """A worker process failed or printed no result."""


def git_commit(root: Path) -> str | None:
    """HEAD's commit id read from root/.git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(workload: str, seed: int, seconds: float, trace: int, timeout: float, setup_only=False):
    """Run worker.py to completion; return its result with setup_s added."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload}: worker did not finish within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload}: worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_at"] - started
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run of one workload: its JSON result plus a full record."""
    deadline = time.monotonic() + RUN_LIMIT_S

    def setup_probes() -> list[float]:
        if trace:
            return []
        return [
            spawn(workload, seed, 0, 0, deadline - time.monotonic(), setup_only=True)["setup_s"]
            for _ in range(SETUP_PROBES_EACH_SIDE)
        ]

    # Probes on both sides of the measured process spread set-up timing over the run.
    setups = setup_probes()
    raw = spawn(workload, seed, seconds, trace, deadline - time.monotonic())
    setups += [raw["setup_s"]] + setup_probes()

    times, parts = raw["job_times"], raw["job_parts"]
    attempted, failed = len(times), len(raw["failed_jobs"])
    # A failed job's time says nothing about the work; timings use verified jobs.
    verified = [j for j in range(attempted) if j not in raw["failed_jobs"]] or range(attempted)
    job_min_s = min(times[j] for j in verified)
    job_p50_s = statistics.median(times[j] for j in verified)
    # The bounded job time measures each part against the reference runs
    # next to it (reference.py); job times in seconds are recorded beside it.
    job_ref, job_cpu_ref = raw["job_in_refs"]
    if trace:
        values = {name: tuple(pair) for name, pair in raw["layers"].items()}
        values["trace.job_min_s"] = (job_min_s, "s")
        values["trace.job_p50_s"] = (job_p50_s, "s")
    else:
        values = {
            "setup_s": (statistics.median(setups), "s"),
            "job_ref": (job_ref, "ref"),
            "job_cpu_ref": (job_cpu_ref, "ref"),
            "peak_rss_mib": (raw["maxrss_kib"] / 1024, "MiB"),
        }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "meta": {**raw["meta"], "git_commit": git_commit(ROOT)},
        "job_min_s": job_min_s,
        "job_p50_s": job_p50_s,
        "reference": raw["reference"],
        "jobs_per_s": (attempted - failed) / raw["elapsed_s"],
        "cpu_s_per_job": raw["cpu_s"] / attempted,
        "fail_ratio": failed / attempted,
        "failures": raw["failures"],
        "setup_runs_s": setups,
        "job_times_s": times,
        "job_cpu_s": raw["job_cpu_s"],
        "job_parts": parts,
        **result,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    return record


def print_end_to_end(record: dict) -> None:
    """The bounded metrics, then the recorded metrics that have no bound."""
    print(f"{record['workload']}: {record['attempted']} jobs, seed {record['meta']['seed']}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<14} {metric['value']:.6g} {metric['unit']}")
    ref = record["reference"]
    ref_s, ref_cpu_s = ref["gauge"]
    print(f"  {'reference':<14} {ref_s:.6g} s wall, {ref_cpu_s:.6g} s CPU ({ref['kind']}, {len(ref['wall_s'])} runs)")
    print(f"  {'job_min_s':<14} {record['job_min_s']:.6g} s")
    print(f"  {'job_p50_s':<14} {record['job_p50_s']:.6g} s")
    print(f"  {'jobs_per_s':<14} {record['jobs_per_s']:.6g} 1/s")
    print(f"  {'cpu_s_per_job':<14} {record['cpu_s_per_job']:.6g} s")
    print(f"  {'fail_ratio':<14} {record['fail_ratio']:.6g} ({record['failed']}/{record['attempted']})")


def print_layers(record: dict) -> None:
    """Traced layers with calls, by self time, with shares of the traced job time."""
    metrics = {name: m["value"] for name, m in record["metrics"].items()}
    job_s = metrics["trace.job_p50_s"]
    print(f"{record['workload']} traced: {record['attempted']} jobs, job_p50_s {job_s:.4g} s")
    print(f"  {'layer':<42} {'calls/job':>10} {'total_s':>10} {'self_s':>10} {'self %':>7}")
    layers = sorted(
        {name.rsplit(".", 1)[0] for name in metrics if name.endswith(".self_s")},
        key=lambda layer: -metrics[f"{layer}.self_s"],
    )
    for layer in layers:
        calls = metrics[f"{layer}.calls"]
        if calls:
            total = metrics.get(f"{layer}.total_s", float("nan"))
            self_s = metrics[f"{layer}.self_s"]
            print(
                f"  {layer:<42} {calls:>10.6g} {total:>10.4g} {self_s:>10.4g} "
                f"{100 * self_s / job_s:>6.1f}%"
            )
    for name in ("localiser.refusal_ratio", "linalg.is_unitary.max_dim",
                 "linalg.is_unitary.gflop", "layout.embed_operator.mib"):
        print(f"  {name:<42} {metrics[name]:.6g} {record['metrics'][name]['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qhekit benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload != "all":
            record = run_workload(args.workload, args.seed, args.seconds, args.trace)
            (print_layers if args.trace else print_end_to_end)(record)
            print("meta: " + json.dumps(record["meta"], sort_keys=True))
            print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
            return 0
        ok = True
        for workload in WORKLOADS:
            plain = run_workload(workload, args.seed, args.seconds, 0)
            traced = run_workload(workload, args.seed, args.seconds, 1)
            print_end_to_end(plain)
            print_layers(traced)
            for stat in ("job_p50_s", "job_min_s"):
                overhead = traced[stat] - plain[stat]
                print(
                    f"  tracing overhead: {overhead:+.4g} s on {stat} "
                    f"({100 * overhead / plain[stat]:+.1f}%)"
                )
            ok = ok and plain["correct"] and traced["correct"]
        print("meta: " + json.dumps(plain["meta"], sort_keys=True))
        return 0 if ok else 1
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

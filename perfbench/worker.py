"""Run one workload in this process and print its raw measurements as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

BLAS and OpenMP thread counts are pinned to the CPUs this process may use
before numpy is imported.  qhekit is imported from the checkout's own
``src/``, never from an installed copy.  After set-up (imports and input
generation) the worker stamps ``ready_at`` on the system-wide monotonic
clock, so the parent can time set-up from the moment it started the process.
It then runs whole jobs until ``--seconds`` have passed (at least one),
timing each part of each job and running the reference computation
(reference.py) between parts.  It prints one JSON line: job and part times,
reference times, failures, CPU time, peak RSS and run metadata, plus
per-layer metrics and a span file when ``--trace 1``.
run.py turns this into the benchmark's metrics.
"""

import argparse
import ctypes
import json
import os
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
_OPENBLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def pin_threads() -> int:
    """Set every BLAS/OpenMP thread variable to the usable CPU count; return it."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def import_qhekit(root: Path):
    """Import qhekit from root/src; refuse a copy found anywhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import qhekit

    if src not in Path(qhekit.__file__).resolve().parents:
        raise ImportError(f"qhekit was imported from {qhekit.__file__}, not from {src}")
    return qhekit


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        fields = (line.split(maxsplit=5) for line in fh)
        libs = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in _OPENBLAS_THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.argtypes = []
                query.restype = ctypes.c_int
                return int(query())
    return None


def metadata(nproc: int, seed: int) -> dict:
    import numpy as np

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        openblas = None
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "openblas": openblas,
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
    }


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Parts:
    """Times the parts of one job; runs the reference between parts when it is due."""

    def __init__(self, ref):
        self.ref = ref
        self.times: dict = {}  # part key -> (wall s, CPU s, reference runs before it)

    @contextmanager
    def __call__(self, key):
        self.ref.maybe_run()
        runs = len(self.ref.wall_s)
        cpu, start = time.process_time(), time.perf_counter()
        try:
            yield
        finally:
            self.times[key] = (time.perf_counter() - start, time.process_time() - cpu, runs)


def measure(workload, seconds: float, tracer=None) -> dict:
    """Run whole jobs until seconds have passed, counting failed jobs.

    A job that misses an output check or raises counts as failed and the run
    goes on.  Job times leave out the reference runs made inside the job.
    With a tracer, its wrappers are installed for the jobs only.
    """
    job_times: list[float] = []
    job_cpu: list[float] = []
    job_parts: list[dict] = []
    failed_jobs: list[int] = []
    failures: list[str] = []
    from reference import Reference  # numpy; imported only after pin_threads()

    ref = Reference(workload.reference)
    if tracer is not None:
        tracer.install()
    try:
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        deadline = t0 + seconds
        job = 0
        while True:
            inputs = workload.job_input(job)
            parts = Parts(ref)
            ref.reset_spent()
            cpu_start = time.process_time()
            start = time.perf_counter()
            try:
                if tracer is None:
                    workload.run(inputs, parts)
                else:
                    tracer.run_job(job, workload.run, inputs, parts)
            except Exception as exc:  # a failed job is counted; the run goes on
                if not failures:
                    traceback.print_exc(file=sys.stderr)
                failed_jobs.append(job)
                failures.append(f"job {job}: {type(exc).__name__}: {exc}")
            end = time.perf_counter()
            job_times.append(end - start - ref.spent[0])
            job_cpu.append(time.process_time() - cpu_start - ref.spent[1])
            job_parts.append(parts.times)
            job += 1
            if end >= deadline:
                break
        ref.run_batch()  # the reference runs after the last part
        cpu_s = _cpu_s() - cpu0 - sum(ref.cpu_s)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # A failed job's time says nothing about the work; timings use verified jobs.
    verified = [j for j in range(len(job_times)) if j not in failed_jobs] or range(len(job_times))
    return {
        "job_times": job_times,
        "job_cpu_s": job_cpu,
        "job_parts": job_parts,
        "job_in_refs": ref.job_in_refs(job_parts, verified),
        "reference": {"kind": ref.kind, "wall_s": ref.wall_s, "cpu_s": ref.cpu_s, "gauge": ref.gauge()},
        "failed_jobs": failed_jobs,
        "failures": failures[:10],
        "elapsed_s": end - t0 - sum(ref.wall_s),
        "cpu_s": cpu_s,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = parser.parse_args(argv)

    nproc = pin_threads()
    try:
        import_qhekit(ROOT)
    except ImportError as exc:
        print(f"worker: cannot import qhekit from the checkout: {exc}", file=sys.stderr)
        return 2
    import workloads

    workdir = OUT / f"work-{args.workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.setup(args.workload, args.seed, str(workdir))
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    result = measure(workload, args.seconds, tracer)
    result["ready_at"] = ready_at
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["meta"] = metadata(nproc, args.seed)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(len(result["job_times"]))
        tracer.save(OUT / f"spans-{args.workload}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

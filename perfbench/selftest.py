"""Tests of the benchmark itself: repeatable counts, honest self times, checks that fail.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection; they start benchmark processes and take about half a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

worker.import_qhekit(worker.ROOT)

import spans  # noqa: E402
import workloads  # noqa: E402


def traced_run(workload: str, seed: int = 7) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] != "s"}


def self_times_by_job(path: Path) -> list[tuple[float, float]]:
    """(sum of layer self times, job span duration) for every job in a span file."""
    with np.load(path) as spans_file:
        data = {key: spans_file[key] for key in spans_file.files}
    duration = data["end"] - data["start"]
    assert (duration >= 0).all()
    child = np.zeros_like(duration)
    nested = data["parent"] >= 0
    np.add.at(child, data["parent"][nested], duration[nested])
    self_time = duration - child
    assert (self_time >= -1e-9).all()
    is_job = data["name"] == list(data["labels"]).index(spans.JOB)
    out = []
    for job in np.unique(data["job"]):
        in_job = data["job"] == job
        out.append((float(self_time[in_job & ~is_job].sum()), float(duration[in_job & is_job][0])))
    return out


def test_catalog_counts_repeat_and_self_times_fit_in_jobs():
    first, second = traced_run("catalog"), traced_run("catalog")
    assert first["correct"] and second["correct"]
    assert counts(first) == counts(second)
    assert counts(first)["scheme.run_pipeline.calls"] == 771
    assert counts(first)["layout.apply_operator.calls"] == 2361
    per_job = self_times_by_job(worker.OUT / "spans-catalog.npz")
    assert len(per_job) == second["attempted"]
    for layer_self, job_wall in per_job:
        assert 0 < layer_self <= job_wall


def test_sweep_counts_repeat():
    first, second = traced_run("sweep"), traced_run("sweep")
    assert first["correct"] and second["correct"]
    assert counts(first) == counts(second)
    assert counts(first)["localiser.localise.calls"] == 100
    assert counts(first)["localiser.refusal_ratio"] == 0.5


def workdir() -> str:
    path = worker.OUT / "selftest"
    path.mkdir(parents=True, exist_ok=True)
    return str(path)


def test_wrong_expected_verdict_fails_the_job():
    workload = workloads.setup("catalog", 3, workdir())
    workload.expected["qotp-1"]["theorem1"] = "pass"
    result = worker.measure(workload, seconds=0)
    assert len(result["job_times"]) == 1
    assert result["failed_jobs"] == [0]
    assert "qotp-1 theorem1" in result["failures"][0]


def test_only_traced_runs_install_wrappers():
    workload = workloads.setup("sweep", 3, workdir())
    assert worker.measure(workload, seconds=0)["failed_jobs"] == []
    assert spans.installed_wrappers() == []

    tracer = spans.Tracer()
    tracer.install()
    try:
        found = spans.installed_wrappers()
    finally:
        tracer.uninstall()
    # Every module that bound is_unitary by name gets the wrapper.
    for module in ("qhekit", "qhekit.linalg", "qhekit.scheme", "qhekit.localiser", "qhekit.checks"):
        assert f"{module}.is_unitary" in found
    assert "qhekit.layout.Layout.ordered" in found
    assert spans.installed_wrappers() == []

    tracer = spans.Tracer()
    assert worker.measure(workload, seconds=0, tracer=tracer)["failed_jobs"] == []
    assert tracer.calls[spans.NAMES.index("localiser.localise")] == 100
    assert spans.installed_wrappers() == []


def test_parts_cover_each_job_and_leave_out_the_reference():
    workload = workloads.setup("sweep", 3, workdir())
    result = worker.measure(workload, seconds=0)
    (parts,) = result["job_parts"]
    assert sorted(parts) == list(range(100))
    assert sum(wall for wall, _, _ in parts.values()) <= result["job_times"][0]
    assert result["reference"]["kind"] == "small"
    assert len(result["reference"]["wall_s"]) >= 1


def test_reference_gauges_each_part_by_the_runs_around_it():
    import reference

    ref = reference.Reference("small")
    ref.wall_s = [float(t) for t in range(1, 81)]
    ref.cpu_s = [2.0 * t for t in ref.wall_s]
    # the median of the 16 runs before the part and the 16 after it
    assert ref.gauge(32) == (32.5, 65.0)
    assert ref.gauge(2) == (9.5, 19.0)
    assert ref.gauge(80) == (72.5, 145.0)
    assert ref.gauge() == (40.5, 81.0)
    parts = [{"a": (65.0, 130.0, 32), "b": (1.0, 1.0, 0)}, {"a": (130.0, 130.0, 32), "b": (1.0, 3.0, 80)}]
    # each part's median ratio to its gauge over jobs, summed over parts
    assert ref.job_in_refs(parts, [0, 1]) == (3.0 + (1 / 8.5 + 1 / 72.5) / 2, 2.0 + (1 / 17 + 3 / 145) / 2)
    assert ref.job_in_refs(parts, [0]) == (2.0 + 1 / 8.5, 2.0 + 1 / 17)


def test_dense_reference_runs_eight_times_when_due():
    import reference

    ref = reference.Reference("dense")
    ref.run_batch()
    assert len(ref.wall_s) == len(ref.cpu_s) == 8

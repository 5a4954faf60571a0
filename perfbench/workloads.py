"""The benchmark's workloads: seeded inputs, one job each, and its output checks.

`setup(name, seed, workdir)` generates a workload's inputs and returns a
Workload.  `Workload.job_input(j)` derives job j's inputs from the seed
(outside the job's timing) and `Workload.run(inputs, part)` is the timed job;
it raises CheckFailed when an output misses its check.  Every statement of a
job runs inside a ``with part(key):`` block, so that the worker can time each
part of a job on its own; a key names the same work in every job.

qhekit functions are called through their module (``localiser.localise``),
never bound into this module's namespace, so that a traced run's wrappers
see every call.
"""

import json
import os
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable

import numpy as np

# The package re-exports a function named catalog, which hides the module of
# that name from `from qhekit import catalog`.
catalog, checks, cli, localiser, scheme, serialize = (
    import_module(f"qhekit.{name}")
    for name in ("catalog", "checks", "cli", "localiser", "scheme", "serialize")
)

NAMES = ("catalog", "qotp2", "sweep")

# Acceptance criterion 3 thresholds; criteria 1 and 2 share the residual,
# fidelity and leakage ones.
SECURITY_MAX = 1e-10
COMPLETENESS_MAX = 1e-9
RESIDUAL_MAX = 1e-8
FIDELITY_MIN = 1 - 1e-8
LEAK_DEVIATION_MIN = 0.99
THEOREM1_REASON = "message-correlated-with-retained-key"

CONSTRUCTED_DIMS = ((2, 2, 2), (2, 4, 2), (3, 2, 4), (2, 2, 8))
LEAKY_DIMS = ((2, 2, 2), (2, 4, 2), (2, 2, 8), (3, 2, 6))
SWEEP_PAIRS = 50


class CheckFailed(Exception):
    """A job's output missed its check."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Workload:
    job_input: Callable[[int], Any]
    run: Callable[[Any, Callable], None]
    reference: str  # the kind of reference.Reference that matches the job's work
    expected: dict | None = None  # catalog only: entry name -> checker -> verdict


def _rng(seed: int, job: int) -> np.random.Generator:
    return np.random.default_rng([seed, job])


def _haar_ket(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)) ** 2)


def _expected_exit(verdicts) -> int:
    """The CLI's documented exit code: 2 on any fail, 3 on inapplicable only."""
    if "fail" in verdicts:
        return 2
    return 3 if "inapplicable" in verdicts else 0


def _catalog(seed: int, workdir: str) -> Workload:
    """Each job runs `qhekit check` on all six catalog schemes, in a seeded order."""
    entries = catalog.catalog()
    paths = {}
    for entry in entries:
        paths[entry.name] = os.path.join(workdir, f"{entry.name}.json")
        built = catalog.build_scheme(entry.builder, **entry.params)
        with open(paths[entry.name], "w", encoding="utf-8") as fh:
            json.dump(serialize.scheme_to_json(built), fh)
    expected = {entry.name: dict(entry.expected) for entry in entries}
    names = sorted(expected)

    def job_input(j: int) -> list[str]:
        return [names[i] for i in _rng(seed, j).permutation(len(names))]

    def run(order: list[str], part) -> None:
        for name in order:
            with part(name):
                out = os.path.join(workdir, f"{name}.report.json")
                code = cli.main(["check", "--scheme", paths[name], "--format", "json", "--out", out])
                with open(out, encoding="utf-8") as fh:
                    reports = json.load(fh)["reports"]
                want = expected[name]
                for checker, verdict in want.items():
                    got = reports[checker]["verdict"]
                    require(got == verdict, f"{name} {checker}: expected {verdict}, got {got}")
                require(code == _expected_exit(want.values()), f"{name}: exit code {code}")

    return Workload(job_input, run, "small", expected)


def _qotp2(seed: int) -> Workload:
    """Each job is acceptance criterion 3 at n=2, extracting one seeded Haar plaintext."""
    zero = np.zeros(4, dtype=complex)
    zero[0] = 1.0

    def job_input(j: int) -> np.ndarray:
        return _haar_ket(_rng(seed, j), 4)

    def run(psi: np.ndarray, part) -> None:
        with part("build"):
            qotp = catalog.build_qotp_scheme(2)
        with part("security"):
            security = checks.check_security(qotp)
            require(
                security.verdict == "pass" and security.worst_metric <= SECURITY_MAX,
                f"security {security.verdict} {security.worst_metric:.3e}",
            )
        with part("completeness"):
            completeness = checks.check_completeness(qotp)
            require(
                completeness.verdict == "pass" and completeness.worst_metric <= COMPLETENESS_MAX,
                f"completeness {completeness.verdict} {completeness.worst_metric:.3e}",
            )
        with part("theorem1"):
            theorem1 = checks.check_theorem1(
                qotp, zero, security_report=security, completeness_report=completeness
            )
            require(
                theorem1.verdict == "inapplicable" and theorem1.reason == THEOREM1_REASON,
                f"theorem1 {theorem1.verdict} {theorem1.reason}",
            )
        with part("problem"):
            problem = scheme.localisation_problem_at_t1(qotp)
        with part("localise"):
            result = localiser.localise(problem)
            require(result.gram_residual <= RESIDUAL_MAX, f"gram {result.gram_residual:.3e}")
            require(
                result.reconstruction_residual <= RESIDUAL_MAX,
                f"reconstruction {result.reconstruction_residual:.3e}",
            )
        with part("extract"):
            recovered = localiser.extract_plaintext(result, problem.retained_reduced(psi))
            fid = _fidelity(psi, recovered)
            require(fid >= FIDELITY_MIN, f"extraction fidelity {fid!r}")

    return Workload(job_input, run, "dense")


def _sweep_problem(kind: str, dims: tuple, problem_seed: int, psi) -> None:
    """Localise one sweep problem and check it: refused if leaky, else round-tripped."""
    where = f"{kind}{dims} seed {problem_seed}"
    if kind == "leaky":
        problem = catalog.build_leaky_problem(dims, problem_seed)
        try:
            localiser.localise(problem)
        except localiser.LeakageDetected as exc:
            require(exc.deviation >= LEAK_DEVIATION_MIN, f"{where}: deviation {exc.deviation}")
            return
        raise CheckFailed(f"{where}: leaky problem was localised")
    problem = catalog.build_constructed_secure_problem(dims, problem_seed)
    result = localiser.localise(problem)
    require(result.gram_residual <= RESIDUAL_MAX, f"{where}: gram {result.gram_residual:.3e}")
    require(
        result.reconstruction_residual <= RESIDUAL_MAX,
        f"{where}: reconstruction {result.reconstruction_residual:.3e}",
    )
    recovered = localiser.extract_plaintext(result, problem.retained_reduced(psi))
    fid = _fidelity(psi, recovered)
    require(fid >= FIDELITY_MIN, f"{where}: extraction fidelity {fid!r}")


def _sweep(seed: int) -> Workload:
    """Each job is 50 constructed-secure and 50 leaky problems, interleaved."""

    def job_input(j: int) -> list[tuple]:
        rng = _rng(seed, j)
        items = []
        for i in range(SWEEP_PAIRS):
            dims = CONSTRUCTED_DIMS[i % len(CONSTRUCTED_DIMS)]
            items.append(("constructed", dims, int(rng.integers(2**31)), _haar_ket(rng, dims[0])))
            items.append(("leaky", LEAKY_DIMS[i % len(LEAKY_DIMS)], int(rng.integers(2**31)), None))
        return items

    def run(items: list[tuple], part) -> None:
        for i, (kind, dims, problem_seed, psi) in enumerate(items):
            with part(i):
                _sweep_problem(kind, dims, problem_seed, psi)

    return Workload(job_input, run, "small")


def setup(name: str, seed: int, workdir: str) -> Workload:
    if name == "catalog":
        return _catalog(seed, workdir)
    if name == "qotp2":
        return _qotp2(seed)
    if name == "sweep":
        return _sweep(seed)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")

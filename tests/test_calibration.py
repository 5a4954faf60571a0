"""Calibration: one-parameter families whose metrics cross the check thresholds.

Each family's metric has a closed form (derived in the family's docstring in
qhekit_reference), so the tests pin the metric to it over the family and
assert that the verdict flips where that value crosses the tolerance.  The
grids step by factors of about 3 and the tolerances sit between grid
values, so no verdict depends on the last bit of a metric at its threshold.
"""

import numpy as np
import pytest

from qhekit.checks import FAIL, PASS, check_completeness, check_security, run_checks
from qhekit_reference import biased_qotp_scheme, rotated_tag_scheme

GRID = (1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1)


def _expected(metric: float, tol: float) -> str:
    return PASS if metric <= tol else FAIL


@pytest.mark.parametrize("theta", GRID)
def test_rotated_tag_completeness_reads_sin_theta(theta):
    report = check_completeness(rotated_tag_scheme(theta), 1.0)
    assert report.worst_metric == pytest.approx(np.sin(theta), rel=1e-12, abs=0)
    assert dict(report.cases)["I/certificate"] == report.worst_metric


@pytest.mark.parametrize("tol", (2e-5, 5e-3))
def test_rotated_tag_completeness_flips_at_its_tolerance(tol):
    verdicts = [check_completeness(rotated_tag_scheme(t), tol).verdict for t in GRID]
    assert verdicts == [_expected(np.sin(t), tol) for t in GRID]
    assert PASS in verdicts and FAIL in verdicts


@pytest.mark.parametrize("theta", GRID)
def test_rotated_tag_message_overlap_reads_sin_squared_theta(theta):
    report = run_checks(rotated_tag_scheme(theta), ("theorem1",), {"completeness": 0.5})
    overlaps = {case: metric for case, metric in report["theorem1"].cases if "|" in case}
    assert overlaps["overlap/I|Z"] == pytest.approx(np.sin(theta) ** 2, rel=1e-12, abs=0)
    assert overlaps["overlap/I|X"] == overlaps["overlap/X|Z"] == 0.0


@pytest.mark.parametrize("tol", (1e-9, 3e-6))
def test_rotated_tag_theorem1_flips_at_its_tolerance_not_at_the_rank_cut(tol):
    # sin^2 theta crosses the rank cut 1e-10 between theta = 1e-5 and 3e-5;
    # the verdict must not change there, only where it crosses tol.
    tols = {"completeness": 0.5, "theorem1": tol}
    reports = [run_checks(rotated_tag_scheme(t), ("theorem1",), tols)["theorem1"] for t in GRID]
    assert [r.verdict for r in reports] == [_expected(np.sin(t) ** 2, tol) for t in GRID]


@pytest.mark.parametrize("eta", GRID)
def test_biased_key_security_reads_two_eta(eta):
    # Each sqrt(p_k)^2 rounds by about an ulp of 1/4, so the law holds to
    # an absolute 1e-15, not a relative bound, at the smallest eta.
    scheme = biased_qotp_scheme(eta)
    report = check_security(scheme, 1.0)
    assert abs(report.worst_metric - 2 * eta) <= 1e-15
    assert dict(report.cases)["block-0-1"] == report.worst_metric
    assert check_completeness(scheme).verdict == PASS


@pytest.mark.parametrize("tol", (1e-5, 1e-2))
def test_biased_key_security_flips_at_its_tolerance(tol):
    verdicts = [check_security(biased_qotp_scheme(eta), tol).verdict for eta in GRID]
    assert verdicts == [_expected(2 * eta, tol) for eta in GRID]
    assert PASS in verdicts and FAIL in verdicts

"""The catalog's report tables, pinned: a refactor keeps every case and verdict.

tests/data/catalog_reports.json holds run_checks on every catalog entry and
on QOTP n=2: each report's verdict and its (case id, metric) rows.  Case ids
and verdicts must match exactly and metrics within 1e-12.  A change that
moves a report on purpose regenerates the file and says so:

    PYTHONPATH=src python tests/test_catalog_reports.py > tests/data/catalog_reports.json
"""

import json
import sys
from pathlib import Path

import pytest

from qhekit.catalog import build_scheme, catalog
from qhekit.checks import run_checks

FIXTURE = Path(__file__).parent / "data" / "catalog_reports.json"
ENTRIES = {e.name: (e.builder, dict(e.params)) for e in catalog()} | {"qotp-2": ("qotp", {"n": 2})}


def _tables(name: str) -> dict:
    builder, params = ENTRIES[name]
    reports = run_checks(build_scheme(builder, **params))
    return {
        check: {"verdict": r.verdict, "cases": [[case, metric] for case, metric in r.cases]}
        for check, r in reports.items()
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_entry(pinned):
    assert list(pinned) == list(ENTRIES)


@pytest.mark.parametrize("name", ENTRIES)
def test_reports_match_the_pinned_tables(pinned, name):
    got, want = _tables(name), pinned[name]
    assert list(got) == list(want)
    for check in want:
        assert got[check]["verdict"] == want[check]["verdict"], check
        assert [c for c, _ in got[check]["cases"]] == [c for c, _ in want[check]["cases"]], check
        for (case, metric), (_, pinned_metric) in zip(got[check]["cases"], want[check]["cases"]):
            assert abs(metric - pinned_metric) <= 1e-12, (check, case, metric, pinned_metric)


def _dump(tables: dict) -> str:
    """JSON with one line per case row, so a diff of the fixture reads row by row."""
    lines = ["{"]
    for i, (name, reports) in enumerate(tables.items()):
        lines.append(f"  {json.dumps(name)}: {{")
        for j, (check, table) in enumerate(reports.items()):
            rows = ",\n".join(f"      {json.dumps(row)}" for row in table["cases"])
            verdict = json.dumps(table["verdict"])
            lines.append(f'    {json.dumps(check)}: {{"verdict": {verdict}, "cases": [')
            lines.append(rows)
            lines.append("    ]}" + ("," if j < len(reports) - 1 else ""))
        lines.append("  }" + ("," if i < len(tables) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.stdout.write(_dump({name: _tables(name) for name in ENTRIES}))

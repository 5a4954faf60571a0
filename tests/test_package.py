import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

import qhekit

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_targets():
    # Loaded from its file, not imported as a package, and never installed.
    spec = importlib.util.spec_from_file_location("_perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("module, attr", _traced_targets())
def test_every_traced_name_resolves(module, attr):
    # perfbench --trace 1 wraps these; a renamed or deleted one breaks it.
    owner = importlib.import_module(f"qhekit.{module}")
    assert callable(functools.reduce(getattr, attr.split("."), owner))


def test_every_exported_name_resolves():
    missing = [name for name in qhekit.__all__ if not hasattr(qhekit, name)]
    assert missing == []

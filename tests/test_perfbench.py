"""The benchmark's trace sites must exist in the package.

``perfbench/spans.py`` wraps cutprop functions under the module names it
lists; a refactor that drops or moves one of them breaks the traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.mark.parametrize("sites", ["SPAN_SITES", "LEAF_SITES"])
def test_trace_sites_resolve(sites):
    missing = [
        f"cutprop.{module_name}.{attr}"
        for module_name, names in getattr(SPANS, sites).items()
        for attr in names
        if not callable(getattr(importlib.import_module(f"cutprop.{module_name}"), attr, None))
    ]
    assert not missing

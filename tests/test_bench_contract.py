"""The names the benchmark's tracer wraps must exist where it looks them up.

``bench/spans.py`` replaces ``owner.__dict__[attr]`` for every target, so a
renamed or deleted function breaks only the benchmark unless this checks it.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for owner, attr, _ in SPANS.SPAN_TARGETS + SPANS.COUNT_TARGETS],
    ids=lambda x: x if isinstance(x, str) else getattr(x, "__name__", repr(x)),
)
def test_traced_name_is_defined_on_its_owner(owner, attr):
    assert attr in owner.__dict__

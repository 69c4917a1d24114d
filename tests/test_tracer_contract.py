"""The benchmark tracer (bench/spans.py) patches spanlab names in place.

Each name it patches must still be an attribute of its owner, or a traced
benchmark run fails at start-up; this test catches a deleted or renamed
name in the package.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    points = spans._entry_points()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in points
               if attr not in owner.__dict__]
    assert points and missing == []

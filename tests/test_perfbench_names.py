"""The benchmark's tracer wraps package functions by name; a refactor
that moves or renames one breaks every traced benchmark run."""

import sys
from pathlib import Path

from pmlang import quantum

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_name_the_tracer_wraps_is_found_at_each_owner(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    measure = quantum.measure
    try:
        import spans
        import worker

        # wrap() raises when a name is missing or differs between its
        # owners; the wrappers are registered but never installed
        worker.instrument(spans.Tracer())
    finally:
        sys.modules.pop("worker", None)
        sys.modules.pop("spans", None)
    assert quantum.measure is measure

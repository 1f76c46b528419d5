"""The benchmark's tracer wraps package functions by name, and every
round reads ``step``'s cache counters; a refactor that moves or renames
one, or drops the cache, breaks every benchmark run."""

import sys
from pathlib import Path

from pmlang import cli, quantum

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


def test_step_keeps_the_cache_counters_each_round_reads():
    """The worker reads ``cli.semantics.step.cache_info()`` before and
    after its first round."""
    info = cli.semantics.step.cache_info()
    assert info.hits + info.misses >= info.currsize > 0

"""The benchmark's tracer wraps filexlab at fixed module attributes; a
refactor that drops one of them would crash every traced benchmark run."""

import importlib.util
from pathlib import Path

from filexlab import cli, filex, sweep, toy_els

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_installs_and_removes():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    hooked = [(sweep, "filex_run"), (sweep, "toy_run"), (sweep, "shannon_entropy"),
              (cli, "execute_sweep"), (filex, "categorical_counts"), (toy_els, "categorical_counts"),
              (toy_els, "toy_update")]
    before = [getattr(m, name) for m, name in hooked]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert all(getattr(m, name) is not f for (m, name), f in zip(hooked, before))
    finally:
        tracer.remove()
    assert all(getattr(m, name) is f for (m, name), f in zip(hooked, before))

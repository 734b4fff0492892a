"""In-memory tracer for the benchmark's traced run.

The tracer wraps filexlab's public functions at the module attributes their
callers look up, so the program runs unchanged. A wrapped layer boundary
records a span (name, start, end, parent, request); a hot inner kernel
records only a call count and a total time, keyed by the layer of the span
it ran inside. Spans stay in memory until `dump` writes them.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# Kendall tau p-value regimes by sample size, as documented in filexlab.stats.
_EXACT_MAX_N = 8
_MC_MAX_N = 50

# Spans whose time is the work of one sweep grid point.
POINT_SPANS = ("filex.run", "toy_els.toy_run", "stats.shannon_entropy")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._kernel_time: defaultdict = defaultdict(float)
        self._open: list[tuple[int, str]] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, after=None):
        """`fn` recording one span per call; `after(args, result)` adds counts."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1][0] if self._open else -1
            self.spans.append((name, 0.0, 0.0, parent, self.request))
            self._open.append((index, layer_of(name)))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                self.spans[index] = (name, start, end, parent, self.request)
            if after is not None:
                after(args, result)
            return result

        return traced

    def kernel(self, name: str, fn):
        """`fn` adding to a call count and a total time, with no span."""
        calls = name + ".calls"

        def counted(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            enclosing = self._open[-1][1] if self._open else None
            self._kernel_time[(layer_of(name), enclosing)] += elapsed
            self.counts[calls] += 1
            return result

        return counted

    def patch(self, module, attr: str, wrapper) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def remove(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Per layer: span time not covered by child spans or by kernels of
        another layer; a kernel's time goes to its own layer."""
        covered: defaultdict = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: defaultdict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[layer_of(name)] += end - start - covered[i]
        for (layer, enclosing), elapsed in self._kernel_time.items():
            out[layer] += elapsed
            if enclosing is not None:
                out[enclosing] -= elapsed
        return dict(out)

    def total(self, names) -> float:
        return sum(end - start for name, start, end, _, _ in self.spans if name in names)

    def dump(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p, "request": r}
            for n, s, e, p, r in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows, "counts": dict(self.counts)}) + "\n")


def kernel_cost(calls: int = 100_000) -> float:
    """Seconds a kernel wrapper adds to each call, measured on a no-op."""

    def noop():
        return None

    counted = Tracer().kernel("calibrate.noop", noop)
    start = perf_counter()
    for _ in range(calls):
        counted()
    wrapped = perf_counter() - start
    start = perf_counter()
    for _ in range(calls):
        noop()
    return max(0.0, (wrapped - (perf_counter() - start)) / calls)


def install(tracer: Tracer) -> None:
    """Wrap filexlab at the names its callers bind."""
    from filexlab import analysis, cli, filex, records, svgplot, sweep, toy_els

    counts = tracer.counts

    def after_filex(args, result):
        params = args[0]
        counts["filex.draws"] += params.beta * params.n_iters

    def after_sweep(args, outcome):
        counts["sweep.points"] += len(outcome.records)
        counts["sweep.skipped"] += len(outcome.skipped)

    def after_write(args, result):
        path = Path(args[0])
        sidecar = records.metadata_path(path)
        counts["records.bytes_written"] += path.stat().st_size
        if sidecar.exists():
            counts["records.bytes_written"] += sidecar.stat().st_size

    def after_read(args, result):
        counts["records.bytes_read"] += Path(args[0]).stat().st_size

    def after_kendall(args, summary):
        if summary.n <= _EXACT_MAX_N:
            regime = "exact"
        elif summary.n <= _MC_MAX_N:
            regime = "mc"
        else:
            regime = "normal"
        counts[f"stats.kendall_tau.calls.{regime}"] += 1

    t = tracer
    t.patch(sweep, "filex_run", t.span("filex.run", sweep.filex_run, after_filex))
    t.patch(sweep, "toy_run", t.span("toy_els.toy_run", sweep.toy_run))
    t.patch(sweep, "shannon_entropy", t.span("stats.shannon_entropy", sweep.shannon_entropy))
    t.patch(cli, "execute_sweep", t.span("sweep.execute_sweep", cli.execute_sweep, after_sweep))
    t.patch(cli, "write_records", t.span("records.write_records", cli.write_records, after_write))
    t.patch(cli, "read_records", t.span("records.read_records", cli.read_records, after_read))
    t.patch(cli, "analyze_records", t.span("analysis.analyze_records", cli.analyze_records))
    t.patch(cli, "build_plot", t.span("svgplot.build_plot", cli.build_plot))
    t.patch(analysis, "kendall_tau", t.span("stats.kendall_tau", analysis.kendall_tau, after_kendall))
    t.patch(svgplot, "gaussian_smooth", t.span("stats.gaussian_smooth", svgplot.gaussian_smooth))
    t.patch(filex, "categorical_counts", t.kernel("sampling.categorical_counts", filex.categorical_counts))
    t.patch(toy_els, "categorical_counts", t.kernel("sampling.categorical_counts", toy_els.categorical_counts))
    t.patch(toy_els, "toy_update", t.kernel("toy_els.toy_update", toy_els.toy_update))

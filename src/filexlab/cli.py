"""Command-line surface: run, sweep, analyze, plot.

Exit codes: 0 success, 1 usage or parameter error, 2 I/O error. A plain
text config file (`key = value` lines, # comments) can set any flag;
command-line values override it.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import closing
from pathlib import Path

from .analysis import DEFAULT_STRONG_THRESHOLD, analyze_records, format_report, report_to_dict
from .records import read_metadata, read_records, write_records
from .stats import shannon_entropy
from .svgplot import build_plot
from .sweep import FILEX, TARGETS, SweepSpec, execute_sweeps
from .sweep import execute_sweep  # noqa: F401  (unused; the benchmark tracer wraps this name)

# every target's parameters, in table then field order, with their int/float kinds
_PARAM_KINDS = {name: kind for t in TARGETS.values() for name, kind in t.param_kinds().items()}


class _Parser(argparse.ArgumentParser):
    # usage errors are exit code 1; argparse's default of 2 is reserved for I/O
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="filexlab", description=__doc__)
    parser.add_argument("--config", help="plain-text config file with key = value lines")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    subs: dict[str, _Parser] = {}

    p_run = subs["run"] = sub.add_parser("run", help="single simulation, print distribution")
    p_run.add_argument("--target", choices=(*TARGETS,), default=FILEX)
    p_run.add_argument("--seed", type=int, default=0)
    for name, kind in _PARAM_KINDS.items():
        p_run.add_argument(f"--{name.replace('_', '-')}", dest=name, type=kind, default=None)

    p_sweep = subs["sweep"] = sub.add_parser("sweep", help="run sweep suites, write CSVs")
    p_sweep.add_argument("--target", choices=(*TARGETS, "all"), default="all")
    p_sweep.add_argument("--seed", type=int, default=0, help="root seed for the suite")
    p_sweep.add_argument("--steps", type=int, default=None, help="grid points per sweep")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--repeats", type=int, default=1)
    p_sweep.add_argument("--out", default=".", help="output directory")
    p_sweep.add_argument("--param", default=None, help="sweep one parameter instead of a suite")
    p_sweep.add_argument("--low", type=float, default=None)
    p_sweep.add_argument("--high", type=float, default=None)
    p_sweep.add_argument("--integer", action="store_true", help="floor grid values")

    p_an = subs["analyze"] = sub.add_parser("analyze", help="correlations and sign matches")
    p_an.add_argument("records", nargs="+", help="record CSV files from sweep")
    p_an.add_argument("--strong-threshold", type=float, default=DEFAULT_STRONG_THRESHOLD)
    p_an.add_argument("--out", default=None, help="write the report as JSON here")

    p_plot = subs["plot"] = sub.add_parser("plot", help="SVG scatter + trend for one sweep")
    p_plot.add_argument("records", help="record CSV file")
    p_plot.add_argument("--out", default=None, help="output SVG path (default: <stem>.svg)")
    p_plot.add_argument("--bandwidth", type=float, default=None)

    return parser, subs


def _coerce(text: str):
    s = text.strip()
    if s.lower() in ("true", "false"):
        return s.lower() == "true"
    for kind in (int, float):
        try:
            return kind(s)
        except ValueError:
            pass
    return s


def _read_config(path: str) -> dict:
    out = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = _coerce(value)
    return out


def _apply_config(parser: _Parser, subs: dict, argv: list[str]) -> None:
    # scan by hand: a real parse would trip on a missing subcommand first
    path = None
    for i, a in enumerate(argv):
        if a == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif a.startswith("--config="):
            path = a.split("=", 1)[1]
    if path is None:
        return
    config = _read_config(path)
    known = {a.dest for p in subs.values() for a in p._actions}
    for key, value in config.items():
        if key not in known:
            raise ValueError(f"{path}: unknown option {key!r}")
        for p in subs.values():
            if any(a.dest == key for a in p._actions):
                p.set_defaults(**{key: value})


def _cmd_run(args) -> int:
    target = TARGETS[args.target]
    given = {name: getattr(args, name) for name in _PARAM_KINDS if getattr(args, name) is not None}
    for name in given:
        if name not in target.param_kinds():
            raise ValueError(f"{name} is not a {args.target} parameter")
    dist = target.run(target.params_cls(**{**target.defaults, **given}), args.seed)
    print(" ".join(f"{v:.17g}" for v in dist))
    print(f"entropy_bits = {shannon_entropy(dist):.17g}")
    return 0


def _cmd_sweep(args) -> int:
    if args.param is not None:
        if args.target == "all":
            raise ValueError("--param needs an explicit --target")
        if args.low is None or args.high is None or args.steps is None:
            raise ValueError("--param needs --low, --high and --steps")
        specs = [
            SweepSpec(
                target=args.target,
                swept_param=args.param,
                low=args.low,
                high=args.high,
                steps=args.steps,
                integer_valued=args.integer,
                defaults={},
                base_seed=args.seed,
            )
        ]
    else:
        kw = {} if args.steps is None else {"steps": args.steps}
        names = TARGETS if args.target == "all" else (args.target,)
        specs = [spec for name in names for spec in TARGETS[name].suite(root_seed=args.seed, **kw)]

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # closing: a failed write cancels the specs still queued in the pool
    with closing(execute_sweeps(specs, workers=args.workers, repeats=args.repeats)) as outcomes:
        for spec, outcome in zip(specs, outcomes):
            path = out_dir / f"{spec.target}_{spec.swept_param}.csv"
            write_records(path, outcome.records, spec=spec, skipped=outcome.skipped)
            print(f"{path}: {len(outcome.records)} records, {len(outcome.skipped)} skipped")
    return 0


def _cmd_analyze(args) -> int:
    records = []
    versions = {}  # artifact_version -> first file carrying it
    for path in args.records:
        records.extend(read_records(path))
        metadata = read_metadata(path)
        if metadata is not None:
            versions.setdefault(metadata.get("artifact_version"), path)
    if len(versions) > 1:
        mixed = ", ".join(f"{v!r} ({path})" for v, path in versions.items())
        raise ValueError(f"input files mix artifact versions: {mixed}")
    report = analyze_records(records, strong_threshold=args.strong_threshold)
    sys.stdout.write(format_report(report))
    if args.out is not None:
        Path(args.out).write_text(
            json.dumps(report_to_dict(report), indent=2) + "\n", encoding="utf-8"
        )
        print(f"report written to {args.out}")
    return 0


def _cmd_plot(args) -> int:
    records = read_records(args.records)
    metadata = read_metadata(args.records)
    svg = build_plot(records, metadata=metadata, bandwidth=args.bandwidth)
    out = Path(args.out) if args.out else Path(args.records).with_suffix(".svg")
    out.write_text(svg, encoding="utf-8")
    print(f"plot written to {out}")
    return 0


_COMMANDS = {"run": _cmd_run, "sweep": _cmd_sweep, "analyze": _cmd_analyze, "plot": _cmd_plot}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser, subs = _build_parser()
    try:
        _apply_config(parser, subs, argv)
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""Command-line surface: run, sweep, analyze, plot.

Exit codes: 0 success, 1 usage or parameter error, 2 I/O error. A plain
text config file (`key = value` lines, # comments) can set any flag;
command-line values override it.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from contextlib import closing
from dataclasses import asdict, replace
from pathlib import Path

from .analysis import DEFAULT_STRONG_THRESHOLD, analyze_records, format_report
from .params import PARAMS
from .records import FILEX, read_metadata, read_records, write_records
from .stats import shannon_entropy
from .svgplot import build_plot
from .validation import param_kinds

# Each command loads only what it runs (this module's docstring is the
# --help text, so the detail lives here). The parser is built from
# `params`, so importing this module, --help, analyze and plot load
# `records`, `analysis`, `stats`, `svgplot`, `params` and `validation`, and
# never `sweep`, the models, `sampling`, `seeding`, `concurrent.futures` or
# `logging`. numpy loads with the first function that computes arrays,
# inside main(): plot's smoother, analyze's permutation route (both margins
# tied, n <= 50), and the simulators, which run and sweep import first.


def __getattr__(name: str):
    # the benchmark tracer wraps cli.execute_sweep: resolved on first access
    if name == "execute_sweep":
        from .sweep import execute_sweep

        return execute_sweep
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# every target's parameters, in table then field order, with their int/float kinds
_PARAM_KINDS = {k: v for cls in PARAMS.values() for k, v in param_kinds(cls).items()}


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
    p_run.add_argument("--target", choices=(*PARAMS,), default=FILEX)
    p_run.add_argument("--seed", type=int, default=0)
    for name, kind in _PARAM_KINDS.items():
        p_run.add_argument(f"--{name.replace('_', '-')}", dest=name, type=kind, default=None)

    p_sweep = subs["sweep"] = sub.add_parser("sweep", help="run sweep suites, write CSVs")
    p_sweep.add_argument("--target", choices=(*PARAMS, "all"), default="all")
    p_sweep.add_argument("--seed", type=int, default=0, help="root seed for the suite")
    p_sweep.add_argument("--steps", type=int, default=None, help="grid points per sweep")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--repeats", type=int, default=1)
    p_sweep.add_argument("--out", default=".", help="output directory")
    p_sweep.add_argument("--param", default=None, help="sweep one parameter instead of a suite")
    p_sweep.add_argument("--low", type=float, default=None)
    p_sweep.add_argument("--high", type=float, default=None)
    p_sweep.add_argument("--integer", action="store_true",
                         help="floor a float parameter's grid; an int parameter's is always floored")

    p_an = subs["analyze"] = sub.add_parser("analyze", help="correlations and sign matches")
    p_an.add_argument("records", nargs="+", help="record CSV files from sweep")
    p_an.add_argument("--strong-threshold", type=float, default=DEFAULT_STRONG_THRESHOLD)
    p_an.add_argument("--out", default=None, help="write the report as JSON here")

    p_plot = subs["plot"] = sub.add_parser("plot", help="SVG scatter + trend for one sweep")
    p_plot.add_argument("records", help="record CSV file")
    p_plot.add_argument("--out", default=None, help="output SVG path (default: <stem>.svg)")
    p_plot.add_argument("--bandwidth", type=float, default=None)

    return parser, subs


def _read_config(path: str) -> dict:
    out = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _config_value(action: argparse.Action, text: str, path: str):
    # a value means what the same flag means: the option's type converts
    # it, an untyped option keeps the text, and true/false are bools, for a
    # flag or for the parameter checks to reject
    if text.lower() in ("true", "false") and (action.type is not None or action.nargs == 0):
        return text.lower() == "true"
    if action.nargs == 0:
        raise ValueError(f"{path}: {action.dest} is a flag: true or false, got {text!r}")
    if action.type is None:
        return text
    try:
        return action.type(text)
    except ValueError:
        raise ValueError(f"{path}: {action.dest}: invalid {action.type.__name__} value {text!r}") from None


def _apply_config(subs: dict, path: str) -> None:
    for key, text in _read_config(path).items():
        actions = [(p, a) for p in subs.values() for a in p._actions if a.dest == key]
        if not actions:
            raise ValueError(f"{path}: unknown option {key!r}")
        for p, a in actions:
            p.set_defaults(**{key: _config_value(a, text, path)})


def _check_choices(sub: _Parser, args, path: str) -> None:
    # argparse checks choices on the command line, never in a default
    for a in sub._actions:
        value = getattr(args, a.dest, None)
        if a.choices is not None and value not in a.choices:
            raise ValueError(f"{path}: {a.dest} must be one of {', '.join(a.choices)}, got {value!r}")


def _cmd_run(args) -> int:
    from .sweep import TARGETS

    params_cls = PARAMS[args.target]
    given = {name: getattr(args, name) for name in _PARAM_KINDS if getattr(args, name) is not None}
    for name in given:
        if name not in param_kinds(params_cls):
            raise ValueError(f"{name} is not a {args.target} parameter")
    dist = TARGETS[args.target].run_many([params_cls(**given)], [args.seed])[0]
    print(" ".join(f"{v:.17g}" for v in dist))
    print(f"entropy_bits = {shannon_entropy(dist):.17g}")
    return 0


def _cmd_sweep(args) -> int:
    import logging

    from .sweep import TARGETS, SweepSpec, execute_sweeps

    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
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
    specs = [replace(spec, repeats=args.repeats) for spec in specs]

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # closing: a failed write cancels the specs still queued in the pool
    with closing(execute_sweeps(specs, workers=args.workers)) as outcomes:
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
        # strict JSON: a NaN or infinity in the report is an error, not a bare token
        text = json.dumps(asdict(report), indent=2, allow_nan=False)
        Path(args.out).write_text(text + "\n", encoding="utf-8")
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
    parser, subs = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # the file's values become defaults, and the command line is parsed again over them
            _apply_config(subs, args.config)
            args = parser.parse_args(argv)
            _check_choices(subs[args.command], args, args.config)
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    # every object loaded at import lives until exit: frozen, it is skipped
    # by the collections main() and the exit run. Frozen again after main(),
    # so are the modules the command loaded itself (numpy for plot, run and
    # sweep). Not in main(), which one process may call many times.
    gc.freeze()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()

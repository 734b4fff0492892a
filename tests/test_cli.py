import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from filexlab import filex
from filexlab.cli import main
from filexlab.params import FilexParams, ToyElsParams
from filexlab.records import format_rows, metadata_path, read_metadata, read_records, write_records
from filexlab.stats import shannon_entropy
from filexlab.sweep import FILEX, TOY_ELS, RunRecord, SweepSpec, execute_sweep
from filexlab.toy_els import toy_run


def synth_suite_files(tmp_path):
    # one tiny record file per (target, param) the analyzer needs
    rng = np.random.default_rng(0)
    layout = [
        (FILEX, "n_iters", -1.0),
        (FILEX, "lexicon_size", +1.0),
        (FILEX, "alpha", -1.0),
        (FILEX, "beta", +1.0),
        (TOY_ELS, "time_steps", -1.0),
        (TOY_ELS, "lexicon_size", +1.0),
        (TOY_ELS, "learning_rate", -1.0),
        (TOY_ELS, "buffer_size", +1.0),
        (TOY_ELS, "temperature", +1.0),
    ]
    paths = []
    for target, param, slope in layout:
        xs = np.logspace(0, 3, 60)
        ys = slope * np.log10(xs) + rng.normal(0, 0.2, 60) + 3.5
        rows = [
            RunRecord(target=target, swept_param=param, value=float(x), seed=i, entropy=float(y))
            for i, (x, y) in enumerate(zip(xs, ys))
        ]
        p = tmp_path / f"{target}_{param}.csv"
        write_records(p, rows)
        paths.append(str(p))
    return paths


def test_run_single_word_entropy_zero(capsys):
    assert main(["run", "--target", "filex", "--lexicon-size", "1"]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1] == "entropy_bits = 0"


def test_run_vanishing_alpha(capsys):
    assert main(["run", "--alpha", "1e-12"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert abs(float(last.split("=")[1]) - 6.0) < 1e-6


def test_run_is_byte_deterministic(capsys):
    main(["run", "--target", "toy_els", "--time-steps", "2048", "--eval-samples", "500"])
    first = capsys.readouterr().out
    main(["run", "--target", "toy_els", "--time-steps", "2048", "--eval-samples", "500"])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("flags, expected", [
    (["--target", "filex"], lambda seed: filex.run(FilexParams(), seed)),
    (["--target", "filex", "--beta", "3"], lambda seed: filex.run(FilexParams(beta=3), seed)),
    (["--target", "toy_els"], lambda seed: toy_run(ToyElsParams(), seed)),
    (["--target", "toy_els", "--temperature", "0.8"],
     lambda seed: toy_run(ToyElsParams(temperature=0.8), seed)),
], ids=["filex-defaults", "filex-beta", "toy-defaults", "toy-temperature"])
def test_run_prints_the_reference_run(capsys, flags, expected):
    # `run` goes through the target's run_many; it prints the digits of
    # the one-run reference at the parameter class's defaults
    assert main(["run", *flags, "--seed", "7"]) == 0
    dist = expected(7)
    text = " ".join(f"{v:.17g}" for v in dist) + f"\nentropy_bits = {shannon_entropy(dist):.17g}\n"
    assert capsys.readouterr().out == text


_SWEEP_SUITE = ["sweep", "--target", "filex", "--steps", "2"]
_SWEEP_PARAM = [*_SWEEP_SUITE, "--param", "alpha", "--low", "1", "--high", "2"]


@pytest.mark.parametrize("config, flags, rule", [
    ("seed = true\n", [], "must be a non-negative integer, got True"),
    ("", ["--seed", "-1"], "must be a non-negative integer, got -1"),
    ("", ["--seed", str(2**64)], f"must be below 2**64, got {2**64}"),
], ids=["config-bool", "negative", "above-range"])
def test_run_rejects_a_seed_sweep_would_reject(tmp_path, capsys, config, flags, rule):
    # one rule for a seed wherever it enters: run's seed, and a sweep's root
    # seed on both paths (a suite's mix64 base and a --param spec's base_seed)
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(config, encoding="utf-8")
    assert main(["--config", str(cfg), "run", *flags]) == 1
    assert capsys.readouterr().err == f"error: seed {rule}\n"
    for i, sweep in enumerate((_SWEEP_SUITE, _SWEEP_PARAM)):
        out = tmp_path / f"out{i}"
        assert main(["--config", str(cfg), *sweep, *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: base_seed {rule}\n"
        assert not list(out.glob("*.csv"))


def test_run_rejects_foreign_parameter(capsys):
    # a toy-agent knob is not valid for the urn process
    assert main(["run", "--target", "filex", "--temperature", "2.0"]) == 1


def test_run_rejects_invalid_value():
    assert main(["run", "--target", "filex", "--beta", "0"]) == 1


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as err:
        main(["run", "--target", "bogus"])
    assert err.value.code == 1


def test_run_flag_kinds_follow_params_fields():
    # beta is an int field of the urn process, alpha a float field
    with pytest.raises(SystemExit) as err:
        main(["run", "--target", "filex", "--beta", "2.5"])
    assert err.value.code == 1
    assert main(["run", "--target", "filex", "--alpha", "0.5", "--n-iters", "10"]) == 0


def test_sweep_single_param(tmp_path, capsys):
    rc = main([
        "sweep", "--target", "filex", "--param", "beta", "--low", "1", "--high", "8",
        "--steps", "4", "--integer", "--seed", "5", "--out", str(tmp_path),
    ])
    assert rc == 0
    csv = tmp_path / "filex_beta.csv"
    rows = read_records(csv)
    assert len(rows) == 4
    assert [r.value for r in rows] == [1.0, 2.0, 4.0, 8.0]
    meta = read_metadata(csv)
    assert meta["base_seed"] == 5 and meta["steps"] == 4


def test_sweep_sidecar_rebuilds_its_csv_with_repeats(tmp_path):
    # the sidecar names every input of its CSV: the spec it records, repeats
    # included, runs to the same bytes
    assert main(["sweep", "--target", "filex", "--param", "beta", "--low", "1", "--high", "8",
                 "--steps", "4", "--repeats", "3", "--seed", "5", "--out", str(tmp_path)]) == 0
    csv = tmp_path / "filex_beta.csv"
    meta = read_metadata(csv)
    assert meta["repeats"] == 3
    spec = SweepSpec(**{f.name: meta[f.name] for f in fields(SweepSpec)})
    assert format_rows(execute_sweep(spec).records) == csv.read_text(encoding="utf-8")


def test_sweep_int_param_is_floored_without_integer(tmp_path):
    # an int parameter's grid is floored with or without --integer
    written = []
    for flags in ([], ["--integer"]):
        out = tmp_path / str(len(flags))
        assert main(["sweep", "--target", "filex", "--param", "beta", "--low", "1", "--high",
                     "1000", "--steps", "4", "--seed", "3", "--out", str(out), *flags]) == 0
        written.append([(out / name).read_bytes()
                        for name in ("filex_beta.csv", "filex_beta.meta.json")])
    assert written[0] == written[1]


def test_sweep_skips_an_alpha_whose_final_mass_overflows(tmp_path, capsys):
    # 1 + alpha * n_iters passes the double range at the last grid point
    assert main(["sweep", "--target", "filex", "--param", "alpha", "--low", "1", "--high", "1e308",
                 "--steps", "3", "--out", str(tmp_path)]) == 0
    csv = tmp_path / "filex_alpha.csv"
    assert len(read_records(csv)) == 2
    [skip] = read_metadata(csv)["skipped"]
    assert skip["index"] == 2 and "final mass 1 + alpha * n_iters" in skip["reason"]
    assert "2 records, 1 skipped" in capsys.readouterr().out


def test_sweep_suite_and_plot_round_trip(tmp_path):
    rc = main([
        "sweep", "--target", "filex", "--steps", "6", "--seed", "1",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    made = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert made == [
        "filex_alpha.csv",
        "filex_beta.csv",
        "filex_lexicon_size.csv",
        "filex_n_iters.csv",
    ]
    for p in tmp_path.glob("*.csv"):
        assert len(read_records(p)) == 6
        assert read_metadata(p) is not None
    svg_path = tmp_path / "alpha.svg"
    assert main(["plot", str(tmp_path / "filex_alpha.csv"), "--out", str(svg_path)]) == 0
    svg = svg_path.read_text(encoding="utf-8")
    assert svg.count("<path") == 1
    assert svg.count("<circle") == 6


def test_sweep_is_byte_identical_across_runs_and_workers(tmp_path):
    args = ["sweep", "--target", "filex", "--param", "n_iters", "--low", "1",
            "--high", "100", "--steps", "5", "--integer", "--seed", "9"]
    main(args + ["--out", str(tmp_path / "a")])
    main(args + ["--out", str(tmp_path / "b"), "--workers", "2"])
    a = (tmp_path / "a" / "filex_n_iters.csv").read_bytes()
    b = (tmp_path / "b" / "filex_n_iters.csv").read_bytes()
    assert a == b


def test_sweep_write_failure_stops_the_pool(tmp_path):
    # the first spec (filex n_iters) is cheap and the toy specs dear: a
    # failed first write must cancel the queued specs, not run them out
    args = ["sweep", "--target", "all", "--steps", "2", "--workers", "2", "--seed", "5"]
    start = time.perf_counter()
    assert main(args + ["--out", str(tmp_path / "full")]) == 0
    full = time.perf_counter() - start
    (tmp_path / "cut" / "filex_n_iters.csv").mkdir(parents=True)
    start = time.perf_counter()
    assert main(args + ["--out", str(tmp_path / "cut")]) == 2
    cut = time.perf_counter() - start
    assert multiprocessing.active_children() == []
    assert [p.name for p in (tmp_path / "cut").iterdir()] == ["filex_n_iters.csv"]
    assert cut < full / 2, (cut, full)


def test_analyze_full_pipeline(tmp_path, capsys):
    paths = synth_suite_files(tmp_path)
    report_path = tmp_path / "report.json"
    rc = main(["analyze", *paths, "--out", str(report_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sign matches: 5/5" in out
    data = json.loads(report_path.read_text(encoding="utf-8"))
    assert data["binomial_p"] == 0.03125
    assert len(data["pairs"]) == 5


def test_analyze_strong_threshold_flag(tmp_path, capsys):
    paths = synth_suite_files(tmp_path)
    assert main(["analyze", *paths, "--strong-threshold", "0.99"]) == 0
    out = capsys.readouterr().out
    assert "|tau| >= 0.99" in out


def test_analyze_missing_counterpart_exits_one(tmp_path, capsys):
    paths = [p for p in synth_suite_files(tmp_path) if "temperature" not in p]
    assert main(["analyze", *paths]) == 1
    assert "Temperature" in capsys.readouterr().err


def test_analyze_duplicate_rows_exit_one(tmp_path, capsys):
    paths = synth_suite_files(tmp_path)
    assert main(["analyze", *paths, *paths]) == 1
    assert "duplicate record" in capsys.readouterr().err


def test_analyze_mixed_artifact_versions_exit_one(tmp_path, capsys):
    paths = synth_suite_files(tmp_path)
    # files without a sidecar are not compared
    metadata_path(paths[0]).write_text(json.dumps({"artifact_version": "0.1.0"}), encoding="utf-8")
    metadata_path(paths[1]).write_text(json.dumps({"artifact_version": "0.1.0"}), encoding="utf-8")
    assert main(["analyze", *paths]) == 0
    metadata_path(paths[2]).write_text(json.dumps({"artifact_version": "0.2.0"}), encoding="utf-8")
    assert main(["analyze", *paths]) == 1
    err = capsys.readouterr().err
    assert "mix artifact versions" in err
    assert "'0.1.0'" in err and "'0.2.0'" in err


@pytest.mark.parametrize("command, sidecar", [
    ("plot", [1, 2]),
    ("analyze", [1, 2]),
    ("analyze", "0.1.0"),
    ("plot", {"swept_param": "lexicon_size"}),
    ("plot", {"swept_param": "lexicon_size", "high": "256"}),
    ("plot", {"defaults": {"lexicon_size": "64"}}),
    ("plot", {"defaults": [64]}),
    ("analyze", {"artifact_version": ["0.1.0"]}),
    ("plot", {"artifact_version": ["0.1.0"]}),
], ids=["plot-list", "analyze-list", "analyze-string", "plot-no-high", "plot-string-high",
        "plot-string-lexicon-size", "plot-list-defaults", "analyze-list-version",
        "plot-list-version"])
def test_malformed_sidecar_exits_one(tmp_path, capsys, command, sidecar):
    paths = synth_suite_files(tmp_path)
    lexicon_csv = paths[1]  # filex lexicon_size
    metadata_path(lexicon_csv).write_text(json.dumps(sidecar), encoding="utf-8")
    args = ["plot", lexicon_csv] if command == "plot" else ["analyze", *paths]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_plot_lexicon_size_beyond_double_range_exits_one(tmp_path):
    # a 401-digit lexicon_size is not a finite number: one error line, not
    # an OverflowError traceback
    paths = synth_suite_files(tmp_path)
    metadata_path(paths[0]).write_text(json.dumps({"defaults": {"lexicon_size": 10**400}}),
                                       encoding="utf-8")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "filexlab.cli", "plot", paths[0]],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: metadata defaults.lexicon_size")


def test_plot_sidecar_int_beyond_the_digit_limit_names_the_sidecar(tmp_path, capsys):
    # json cannot convert an int of more than 4,300 digits: the error line
    # names the sidecar instead of only repeating Python's digit limit
    paths = synth_suite_files(tmp_path)
    sidecar = metadata_path(paths[0])
    sidecar.write_text('{"defaults": {"lexicon_size": 1' + "0" * 5000 + "}}", encoding="utf-8")
    assert main(["plot", paths[0]]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {sidecar}: ")
    assert "4300 digits" in lines[0]
    assert not Path(paths[0]).with_suffix(".svg").exists()


def test_analyze_missing_file_exits_two(tmp_path):
    assert main(["analyze", str(tmp_path / "absent.csv")]) == 2


def test_plot_empty_file_exits_one(tmp_path):
    empty = tmp_path / "empty.csv"
    write_records(empty, [])
    assert main(["plot", str(empty)]) == 1


@pytest.mark.parametrize("bandwidth", ["1e-300", "inf"])
def test_plot_bandwidth_without_a_finite_trend_exits_one(tmp_path, capsys, bandwidth):
    # at 1e-300 the squared log-distances overflow and the trend would be
    # NaN; inf is not a finite bandwidth
    rng = np.random.default_rng(5)
    rows = [RunRecord(target=FILEX, swept_param="alpha", value=float(x), seed=i, entropy=float(y))
            for i, (x, y) in enumerate(zip(np.logspace(-3, 3, 1000), rng.uniform(0, 6, 1000)))]
    csv = tmp_path / "filex_alpha.csv"
    write_records(csv, rows)
    assert main(["plot", str(csv), "--bandwidth", bandwidth]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not csv.with_suffix(".svg").exists()


def test_analyze_infinite_threshold_exits_one(tmp_path, capsys):
    paths = synth_suite_files(tmp_path)
    out = tmp_path / "r.json"
    assert main(["analyze", *paths, "--strong-threshold", "inf", "--out", str(out)]) == 1
    assert "strong_threshold" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_report_is_strict_json(tmp_path, capsys, monkeypatch):
    # a non-finite float in the report is an error, never a bare Infinity
    # or NaN token that strict JSON parsers reject
    from filexlab import cli

    analyze = cli.analyze_records
    monkeypatch.setattr(cli, "analyze_records",
                        lambda records, strong_threshold: replace(analyze(records), binomial_p=math.nan))
    paths = synth_suite_files(tmp_path)
    out = tmp_path / "r.json"
    assert main(["analyze", *paths, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_plot_default_output_path(tmp_path):
    paths = synth_suite_files(tmp_path)
    assert main(["plot", paths[0]]) == 0
    assert (tmp_path / "filex_n_iters.svg").exists()


def test_config_file_sets_defaults(tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("steps = 3\nseed = 2  # root seed\n", encoding="utf-8")
    rc = main([
        "--config", str(cfg), "sweep", "--target", "filex", "--param", "beta",
        "--low", "1", "--high", "4", "--integer", "--out", str(tmp_path),
    ])
    assert rc == 0
    rows = read_records(tmp_path / "filex_beta.csv")
    assert len(rows) == 3
    assert read_metadata(tmp_path / "filex_beta.csv")["base_seed"] == 2


def test_cli_overrides_config(tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("steps = 3\n", encoding="utf-8")
    rc = main([
        "--config", str(cfg), "sweep", "--target", "filex", "--param", "beta",
        "--low", "1", "--high", "4", "--steps", "2", "--integer",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    assert len(read_records(tmp_path / "filex_beta.csv")) == 2


@pytest.mark.parametrize("spelling", [["--config", "{}"], ["--config={}"], ["--conf", "{}"], ["--co={}"]],
                         ids=["config", "config=", "conf", "co="])
def test_config_is_read_in_every_spelling_argparse_accepts(tmp_path, capsys, spelling):
    # argparse takes any unambiguous prefix of --config, with the value
    # after a space or an '='; the file must apply in each
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("alpha = 2\n", encoding="utf-8")
    assert main(["run", "--n-iters", "2", "--alpha", "2"]) == 0
    expected = capsys.readouterr().out
    assert main([*(a.format(cfg) for a in spelling), "run", "--n-iters", "2"]) == 0
    assert capsys.readouterr().out == expected
    assert main(["run", "--n-iters", "2"]) == 0
    assert capsys.readouterr().out != expected


def test_config_unknown_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("not_a_flag = 1\n", encoding="utf-8")
    assert main(["--config", str(cfg), "run"]) == 1
    assert "unknown option" in capsys.readouterr().err


def test_config_malformed_line_exits_one(tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("steps\n", encoding="utf-8")
    assert main(["--config", str(cfg), "run"]) == 1


def test_config_bool_parameter_exits_one(tmp_path, capsys):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("beta = true\n", encoding="utf-8")
    assert main(["--config", str(cfg), "run"]) == 1
    assert "error: beta must be a positive integer" in capsys.readouterr().err


def test_config_bool_count_exits_one(tmp_path, capsys):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("steps = true\n", encoding="utf-8")
    rc = main([
        "--config", str(cfg), "sweep", "--target", "filex", "--param", "n_iters",
        "--low", "1", "--high", "10", "--integer", "--out", str(tmp_path),
    ])
    assert rc == 1
    assert "error: steps must be a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "filex_n_iters.csv").exists()


def test_config_bool_bound_exits_one(tmp_path, capsys):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("low = true\n", encoding="utf-8")
    rc = main([
        "--config", str(cfg), "sweep", "--target", "filex", "--param", "n_iters",
        "--high", "10", "--steps", "3", "--integer", "--out", str(tmp_path),
    ])
    assert rc == 1
    assert "error: bounds must be finite positive reals" in capsys.readouterr().err
    assert not (tmp_path / "filex_n_iters.csv").exists()


@pytest.mark.parametrize("target, command", [
    ("nope", ["run"]),
    ("nope", ["sweep", "--steps", "2"]),
    ("all", ["run"]),
], ids=["run-nope", "sweep-nope", "run-all"])
def test_config_target_outside_the_choices_exits_one(tmp_path, capsys, monkeypatch, target, command):
    # argparse checks choices only on the command line; a config value is
    # checked against the chosen command's choices too
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(f"target = {target}\n", encoding="utf-8")
    assert main(["--config", str(cfg), *command]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {cfg}: target must be one of ")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("out", ["123", "true"])
def test_config_untyped_value_keeps_its_text(tmp_path, monkeypatch, out):
    # --out has no type: its config value is a directory name, whatever it reads like
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lab.cfg").write_text(f"out = {out}\n", encoding="utf-8")
    rc = main(["--config", "lab.cfg", "sweep", "--target", "filex", "--param", "n_iters",
               "--low", "1", "--high", "10", "--steps", "2", "--integer"])
    assert rc == 0
    assert len(read_records(tmp_path / out / "filex_n_iters.csv")) == 2


def test_config_and_flags_write_the_same_sidecar(tmp_path):
    # low = 1 is converted by --low's own type, to 1.0, as on the command line
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("target = filex\nparam = beta\nlow = 1\nhigh = 4\nsteps = 3\n"
                   "integer = true\nseed = 2\n", encoding="utf-8")
    assert main(["--config", str(cfg), "sweep", "--out", str(tmp_path / "cfg")]) == 0
    assert main(["sweep", "--target", "filex", "--param", "beta", "--low", "1", "--high", "4",
                 "--steps", "3", "--integer", "--seed", "2", "--out", str(tmp_path / "flags")]) == 0
    for name in ("filex_beta.csv", "filex_beta.meta.json"):
        assert (tmp_path / "cfg" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()
    assert '"low": 1.0,' in (tmp_path / "cfg" / "filex_beta.meta.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("line, command, message", [
    ("seed = x", ["run"], "seed: invalid int value 'x'"),
    ("low = abc", ["sweep", "--target", "filex", "--param", "alpha", "--high", "10",
                   "--steps", "2"], "low: invalid float value 'abc'"),
], ids=["int", "float"])
def test_config_value_the_type_cannot_convert_names_the_file(tmp_path, capsys, monkeypatch,
                                                             line, command, message):
    # the error names the file and the key, with no usage line for a flag never typed
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    assert main(["--config", str(cfg), *command]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert not list(tmp_path.glob("*.csv"))


def test_config_flag_takes_true_or_false(tmp_path, capsys):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("integer = 0\n", encoding="utf-8")
    rc = main(["--config", str(cfg), "sweep", "--target", "filex", "--steps", "1",
               "--out", str(tmp_path)])
    assert rc == 1
    assert f"error: {cfg}: integer is a flag: true or false" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command, field, message", [
    ("plot", "seed", "invalid literal for int() with base 10: 'abc'"),
    ("analyze", "entropy", "could not convert string to float: 'x'"),
    ("plot", "value-nan", "value must be finite, got nan"),
    ("analyze", "entropy-inf", "entropy must be finite, got -inf"),
    ("plot", "seed-negative", "seed must be a non-negative integer, got -6"),
    ("analyze", "seed-negative", "seed must be a non-negative integer, got -6"),
    ("plot", "seed-2**70", f"seed must be below 2**64, got {2**70}"),
    ("analyze", "seed-2**70", f"seed must be below 2**64, got {2**70}"),
])
def test_unparsable_record_field_names_file_and_line(tmp_path, capsys, command, field, message):
    csv = tmp_path / "filex_alpha.csv"
    row = {"seed": "filex,alpha,1.0,abc,2.0", "entropy": "filex,alpha,1.0,3,x",
           "value-nan": "filex,alpha,nan,3,2.0", "entropy-inf": "filex,alpha,1.0,3,-inf",
           "seed-negative": "filex,alpha,1.0,-6,2.0",
           "seed-2**70": f"filex,alpha,1.0,{2**70},2.0"}[field]
    csv.write_text(f"target,param,value,seed,entropy\n{row}\n", encoding="utf-8")
    assert main([command, str(csv)]) == 1
    assert capsys.readouterr().err == f"error: {csv}:2: {message}\n"

import json
import multiprocessing
import time

import numpy as np
import pytest

from filexlab.cli import main
from filexlab.records import metadata_path, read_metadata, read_records, write_records
from filexlab.sweep import FILEX, TOY_ELS, RunRecord


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


def test_analyze_missing_file_exits_two(tmp_path):
    assert main(["analyze", str(tmp_path / "absent.csv")]) == 2


def test_plot_empty_file_exits_one(tmp_path):
    empty = tmp_path / "empty.csv"
    write_records(empty, [])
    assert main(["plot", str(empty)]) == 1


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

"""Exact bytes of the artifacts: the `analyze --out` report, a sweep sidecar
and `plot`'s SVG.

The expected files under tests/golden/ pin these formats byte for byte: a
change to these bytes is a format change, to be re-recorded on purpose and
said so, never an accident of refactoring a serializer or the smoother.
"""

from pathlib import Path

import pytest

from filexlab.cli import main
from filexlab.records import metadata_path, write_records
from filexlab.sweep import FILEX, TOY_ELS, RunRecord, SweepSpec

GOLDEN = Path(__file__).parent / "golden"

# (target, param, n points, trend sign): n = 8 takes the exact Kendall
# p-value, n = 60 the normal approximation
_LAYOUT = [
    (FILEX, "n_iters", 8, -1),
    (FILEX, "lexicon_size", 60, +1),
    (FILEX, "alpha", 8, -1),
    (FILEX, "beta", 60, +1),
    (TOY_ELS, "time_steps", 60, -1),
    (TOY_ELS, "lexicon_size", 8, +1),
    (TOY_ELS, "learning_rate", 60, +1),
    (TOY_ELS, "buffer_size", 8, +1),
    (TOY_ELS, "temperature", 8, -1),
]


def _records(target, param, n, sign):
    # a fixed trend plus a fixed zig-zag, so the data holds ties and
    # discordant pairs without depending on any random stream
    return [
        RunRecord(
            target=target,
            swept_param=param,
            value=2.0**i,
            seed=i,
            entropy=3.0 + sign * 0.05 * i + 0.25 * ((3 * i) % 5 - 2),
        )
        for i in range(n)
    ]


def test_analyze_report_bytes(tmp_path):
    paths = []
    for target, param, n, sign in _LAYOUT:
        path = tmp_path / f"{target}_{param}.csv"
        write_records(path, _records(target, param, n, sign))
        paths.append(str(path))
    out = tmp_path / "report.json"
    assert main(["analyze", *paths, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "analyze_report.json").read_bytes()


def test_sweep_sidecar_bytes(tmp_path):
    # time_steps 100 is below the default buffer of 256: one skipped point
    args = ["sweep", "--target", TOY_ELS, "--param", "time_steps", "--low", "100",
            "--high", "1000", "--steps", "2", "--integer", "--seed", "3", "--out", str(tmp_path)]
    assert main(args) == 0
    sidecar = metadata_path(tmp_path / f"{TOY_ELS}_time_steps.csv")
    assert sidecar.read_bytes() == (GOLDEN / "toy_els_time_steps.meta.json").read_bytes()


def _plot_floored(path):
    # a floored quadratic grid 1..89 (ties among the small values) with a
    # sidecar, whose lexicon_size of 64 puts the y axis at 6 bits
    records = [
        RunRecord(FILEX, "beta", float(1 + i * i // 40), i, 3.0 + 0.02 * i + 0.25 * ((3 * i) % 5 - 2))
        for i in range(60)
    ]
    spec = SweepSpec(target=FILEX, swept_param="beta", low=1, high=89, steps=60,
                     integer_valued=True, defaults={"lexicon_size": 64}, base_seed=0)
    write_records(path, records, spec=spec)


def _plot_single_x(path):
    # every record at one x: the trend is the single point at their mean
    records = [RunRecord(TOY_ELS, "temperature", 2.0, i, 1.5 + 0.75 * (i % 3)) for i in range(5)]
    write_records(path, records)


@pytest.mark.parametrize("name, make", [("plot_floored_sweep", _plot_floored),
                                        ("plot_single_x", _plot_single_x)])
def test_plot_svg_bytes(tmp_path, name, make):
    csv = tmp_path / f"{name}.csv"
    make(csv)
    out = tmp_path / f"{name}.svg"
    assert main(["plot", str(csv), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.svg").read_bytes()

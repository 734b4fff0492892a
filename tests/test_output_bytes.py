"""Exact bytes of the JSON artifacts: the `analyze --out` report and a sweep sidecar.

The expected files under tests/golden/ pin both formats byte for byte: a
change to these bytes is a format change, to be re-recorded on purpose and
said so, never an accident of refactoring a serializer.
"""

from pathlib import Path

from filexlab.cli import main
from filexlab.records import metadata_path, write_records
from filexlab.sweep import FILEX, TOY_ELS, RunRecord

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

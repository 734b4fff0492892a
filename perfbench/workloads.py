"""The benchmark's workloads: the CLI commands each one runs, the inputs it
generates from the workload seed, and the checks on its outputs.

Every check is counted as one attempted operation; a failed check, a
nonzero exit or an unexpected skipped grid point is a failed operation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from filexlab.records import write_records
from filexlab.seeding import mix64
from filexlab.sweep import (
    FILEX,
    TOY_ELS,
    RunRecord,
    SkippedPoint,
    SweepSpec,
    default_filex_suite,
    default_toy_els_suite,
)

# Shannon entropy may exceed log2(S) by rounding when the output is uniform.
_ENTROPY_SLACK = 1e-9


@dataclass
class Tally:
    """Attempted and failed operations, with a note for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def digests(directory: Path) -> dict[str, str]:
    """sha256 of every regular file in `directory`, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


def csv_name(spec: SweepSpec) -> str:
    return f"{spec.target}_{spec.swept_param}.csv"


def lexicon_size(spec: SweepSpec, value: float) -> int:
    """The lexicon size a grid point runs with."""
    if spec.swept_param == "lexicon_size":
        return int(value)
    return int(spec.defaults["lexicon_size"])


class SweepWorkload:
    """One `filexlab sweep` command over a known set of specs.

    `specs(seed)` lists what the command is expected to run, and
    `expected_skips` the (csv name, grid value) points it must skip.
    """

    def __init__(self, name, argv, specs, workers, expected_skips=frozenset()):
        self.name = name
        self._argv = list(argv)
        self._specs = specs
        self.workers = workers
        self._expected_skips = set(expected_skips)
        self.points = 0

    def prepare(self, work: Path, seed: int) -> None:
        specs = self._specs(seed)
        self.points = sum(len(s.grid()) for s in specs) - len(self._expected_skips)

    def commands(self, out: Path, seed: int, workers: int) -> list[list[str]]:
        return [
            self._argv
            + ["--seed", str(seed), "--workers", str(workers), "--out", str(out)]
        ]

    def check(self, out: Path, seed: int, codes: list[int], tally: Tally) -> None:
        for code in codes:
            tally.check(code == 0, f"sweep exited {code}")
        for spec in self._specs(seed):
            name = csv_name(spec)
            rows = _read_rows(out / name)
            meta_path = out / (Path(name).stem + ".meta.json")
            meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
            skipped = [s["value"] for s in meta.get("skipped", [])]
            expected = []
            for value in spec.grid():
                if (name, value) in self._expected_skips:
                    tally.check(value in skipped, f"{name}: {value:g} was not skipped")
                else:
                    expected.append(value)
            for j, value in enumerate(expected):
                row = rows[j] if j < len(rows) else None
                ok = (
                    row is not None
                    and row[0] == value
                    and 0.0 <= row[1] <= math.log2(lexicon_size(spec, value)) + _ENTROPY_SLACK
                )
                tally.check(ok, f"{name}: grid point {value:g} missing or out of range ({row})")
            extra = len(rows) - len(expected)
            if extra > 0:
                tally.check(False, f"{name}: {extra} unexpected rows")


def _read_rows(path: Path) -> list[tuple[float, float]]:
    """(value, entropy) per CSV row, in file order; [] when the file is absent."""
    if not path.exists():
        return []
    with path.open(newline="", encoding="utf-8") as f:
        return [(float(r["value"]), float(r["entropy"])) for r in csv.DictReader(f)]


# The generated trend sign of each swept parameter. Paired parameters share
# a sign, so the analysis must find a sign match on every one of its pairs.
_SIGN_GROUPS = (
    (FILEX, "n_iters", (TOY_ELS, "time_steps")),
    (FILEX, "lexicon_size", (TOY_ELS, "lexicon_size")),
    (FILEX, "alpha", (TOY_ELS, "learning_rate")),
    (FILEX, "beta", (TOY_ELS, "buffer_size"), (TOY_ELS, "temperature")),
)
_SIGN_MATCHES = sum(len(group) - 2 for group in _SIGN_GROUPS)


class AnalyzePlotWorkload:
    """`filexlab analyze` over nine generated sweep CSVs, then one
    `filexlab plot` per CSV.

    The inputs use the default suites' grids: FiLex sweeps with
    `filex_steps` points (normal-regime Kendall tau, tied x), toy sweeps
    with `toy_steps` points (Monte Carlo regime; lexicon_size has tied x)
    and a temperature sweep of `exact_steps` <= 8 points (exact regime).
    Entropies follow a seeded log-linear trend of known sign plus noise.
    """

    name = "analyze_plot"
    workers = 1

    def __init__(self, filex_steps: int, toy_steps: int, exact_steps: int):
        self._steps = (filex_steps, toy_steps, exact_steps)
        self.points = 0
        self._inputs: list[Path] = []
        self._signs: dict[tuple[str, str], str] = {}

    def specs(self, seed: int) -> list[SweepSpec]:
        filex_steps, toy_steps, exact_steps = self._steps
        toy = [
            replace(s, steps=exact_steps if s.swept_param == "temperature" else toy_steps)
            for s in default_toy_els_suite(root_seed=seed)
        ]
        return default_filex_suite(root_seed=seed, steps=filex_steps) + toy

    def generate(self, seed: int):
        """(spec, records, skipped) per sweep, and the sign of each trend."""
        rng = np.random.default_rng(seed)
        signs = {}
        for group in _SIGN_GROUPS:
            sign = 1.0 if rng.random() < 0.5 else -1.0
            for key in ((group[0], group[1]),) + group[2:]:
                signs[key] = sign
        sweeps = [
            (spec, *_synthetic_records(spec, signs[(spec.target, spec.swept_param)], rng))
            for spec in self.specs(seed)
        ]
        return sweeps, {k: "positive" if s > 0 else "negative" for k, s in signs.items()}

    def prepare(self, work: Path, seed: int) -> None:
        sweeps, self._signs = self.generate(seed)
        inputs = work / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self._inputs, self.points = [], 0
        for spec, records, skipped in sweeps:
            path = inputs / csv_name(spec)
            write_records(path, records, spec=spec, skipped=skipped)
            self._inputs.append(path)
            self.points += len(records)

    def commands(self, out: Path, seed: int, workers: int) -> list[list[str]]:
        cmds = [["analyze", *map(str, self._inputs), "--out", str(out / "report.json")]]
        for path in self._inputs:
            cmds.append(["plot", str(path), "--out", str(out / (path.stem + ".svg"))])
        return cmds

    def check(self, out: Path, seed: int, codes: list[int], tally: Tally) -> None:
        for code in codes:
            tally.check(code == 0, f"analyze/plot exited {code}")
        report_path = out / "report.json"
        report = json.loads(report_path.read_text()) if report_path.exists() else {}
        tally.check(
            report.get("sign_match_count") == _SIGN_MATCHES
            and report.get("trials") == _SIGN_MATCHES,
            f"sign matches {report.get('sign_match_count')}/{report.get('trials')}, "
            f"generated truth {_SIGN_MATCHES}/{_SIGN_MATCHES}",
        )
        for pair in report.get("pairs", []):
            want_f = self._signs.get((FILEX, pair["filex_param"]))
            want_t = self._signs.get((TOY_ELS, pair["toy_param"]))
            tally.check(
                pair["filex"]["sign"] == want_f and pair["toy_els"]["sign"] == want_t,
                f"{pair['label']}: signs {pair['filex']['sign']}/{pair['toy_els']['sign']}, "
                f"generated {want_f}/{want_t}",
            )
        for path in self._inputs:
            svg = out / (path.stem + ".svg")
            ok = svg.exists() and svg.read_text().count("<path ") == 1
            tally.check(ok, f"{svg.name}: missing or without exactly one trend path")


def _synthetic_records(spec: SweepSpec, sign: float, rng: np.random.Generator):
    """Records on the spec's grid with entropy = 1.5 + 0.8 * sign * t + noise,
    t the log-value scaled to [-0.5, 0.5].

    Toy time_steps points below the default buffer size are skipped, as a
    real sweep skips them. The entropies stay inside [0.5, 2.5] bits, below
    log2(8), the smallest lexicon any default sweep runs.
    """
    grid = spec.grid()
    skipped = []
    kept = []
    for i, value in enumerate(grid):
        if spec.swept_param == "time_steps" and value < spec.defaults["buffer_size"]:
            skipped.append(SkippedPoint(index=i, value=value, reason="buffer_size exceeds time_steps"))
        else:
            kept.append((i, value))
    lx = np.log([v for _, v in kept])
    t = (lx - (lx.max() + lx.min()) / 2) / (lx.max() - lx.min())
    entropy = 1.5 + 0.8 * sign * t + rng.normal(0.0, 0.05, len(kept))
    records = [
        RunRecord(
            target=spec.target,
            swept_param=spec.swept_param,
            value=value,
            seed=mix64(spec.base_seed, i),
            entropy=float(e),
        )
        for (i, value), e in zip(kept, entropy)
    ]
    return records, skipped


def make_workloads(tiny: bool) -> dict:
    """The three workloads by name; `tiny` shrinks each for the self-check."""
    filex_steps = 2 if tiny else 200
    filex = SweepWorkload(
        "filex_suite",
        ["sweep", "--target", FILEX, "--steps", str(filex_steps)],
        lambda seed: default_filex_suite(root_seed=seed, steps=filex_steps),
        workers=1,
    )
    if tiny:
        # one time_steps sweep of 3 points; 100 is skipped as in the suite
        toy_argv = ["sweep", "--target", TOY_ELS, "--param", "time_steps",
                    "--low", "100", "--high", "2560", "--steps", "3", "--integer"]

        def toy_specs(seed):
            return [SweepSpec(TOY_ELS, "time_steps", 100.0, 2560.0, 3, True,
                              {"lexicon_size": 64}, seed)]
    else:
        toy_argv = ["sweep", "--target", TOY_ELS, "--steps", "5"]

        def toy_specs(seed):
            return default_toy_els_suite(root_seed=seed, steps=5)
    toy = SweepWorkload(
        "toy_suite_w2", toy_argv, toy_specs, workers=2,
        expected_skips={("toy_els_time_steps.csv", 100.0)},
    )
    analyze = AnalyzePlotWorkload(*((60, 10, 8) if tiny else (1000, 40, 8)))
    return {w.name: w for w in (filex, toy, analyze)}

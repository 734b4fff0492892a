"""Correlation matrix and sign-match protocol over sweep records.

Five hyperparameter pairs are compared. The urn process has no buffer and
temperature knobs of its own: its trial count beta plays both roles, so
the beta column is paired against the toy agent's buffer_size AND its
temperature.
"""

from __future__ import annotations

from dataclasses import dataclass

from .stats import CorrelationSummary, binomial_sign_test, kendall_tau
from .records import FILEX, TOY_ELS
from .validation import is_real, shown

# (label, urn-process param, toy-agent param)
PAIRINGS = (
    ("Time Steps", "n_iters", "time_steps"),
    ("Lexicon Size", "lexicon_size", "lexicon_size"),
    ("Learning Rate", "alpha", "learning_rate"),
    ("Buffer Size", "beta", "buffer_size"),
    ("Temperature", "beta", "temperature"),
)

DEFAULT_STRONG_THRESHOLD = 0.2


class MissingRecordsError(ValueError):
    """Raised when a compared hyperparameter lacks records on either side."""


@dataclass(frozen=True)
class PairResult:
    """One row of the comparison: both correlations and the match verdicts."""

    label: str
    filex_param: str
    toy_param: str
    filex: CorrelationSummary
    toy_els: CorrelationSummary
    sign_match: bool
    strong_match: bool


@dataclass(frozen=True)
class AnalysisReport:
    pairs: list[PairResult]
    sign_match_count: int
    trials: int
    binomial_p: float
    strong_match_count: int
    strong_binomial_p: float
    strong_threshold: float


def group_points(records) -> dict[tuple[str, str], list[tuple[float, float]]]:
    """(target, param) -> [(value, entropy), ...] in input order."""
    groups: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for r in records:
        groups.setdefault((r.target, r.swept_param), []).append((r.value, r.entropy))
    return groups


def analyze_records(records, strong_threshold: float = DEFAULT_STRONG_THRESHOLD) -> AnalysisReport:
    """Correlate every pairing and count plain and strong sign matches.

    A pair matches when both correlations have the same nonzero sign; a
    strong match additionally needs |tau| >= strong_threshold on BOTH
    sides, the threshold being a finite real >= 0. Each match count gets
    an exact one-sided binomial test against fair coin flips. A repeated
    (target, param, seed) row is an error: it would count one run twice.
    """
    if not (is_real(strong_threshold) and strong_threshold >= 0):
        raise ValueError(
            f"strong_threshold must be a finite real >= 0, got {shown(strong_threshold)}"
        )
    seen = set()
    for r in records:
        key = (r.target, r.swept_param, r.seed)
        if key in seen:
            raise ValueError(f"duplicate record: {r.target} {r.swept_param} seed {r.seed}")
        seen.add(key)
    groups = group_points(records)

    missing = []
    for label, f_param, t_param in PAIRINGS:
        if (FILEX, f_param) not in groups:
            missing.append(f"{label}: no {FILEX} records for {f_param}")
        if (TOY_ELS, t_param) not in groups:
            missing.append(f"{label}: no {TOY_ELS} records for {t_param}")
    if missing:
        raise MissingRecordsError("; ".join(missing))

    # one correlation per sweep, in pairing order: FiLex beta serves two pairings
    sweeps = dict.fromkeys(k for _, f, t in PAIRINGS for k in ((FILEX, f), (TOY_ELS, t)))
    summaries = {key: kendall_tau(groups[key]) for key in sweeps}
    pairs = []
    for label, f_param, t_param in PAIRINGS:
        cf, ct = summaries[(FILEX, f_param)], summaries[(TOY_ELS, t_param)]
        match = cf.sign == ct.sign and cf.sign != "zero"
        strong = (
            match
            and abs(cf.tau) >= strong_threshold
            and abs(ct.tau) >= strong_threshold
        )
        pairs.append(
            PairResult(
                label=label,
                filex_param=f_param,
                toy_param=t_param,
                filex=cf,
                toy_els=ct,
                sign_match=match,
                strong_match=strong,
            )
        )

    n_match = sum(p.sign_match for p in pairs)
    n_strong = sum(p.strong_match for p in pairs)
    trials = len(pairs)
    return AnalysisReport(
        pairs=pairs,
        sign_match_count=n_match,
        trials=trials,
        binomial_p=binomial_sign_test(n_match, trials),
        strong_match_count=n_strong,
        strong_binomial_p=binomial_sign_test(n_strong, trials),
        strong_threshold=strong_threshold,
    )


def _p_text(summary: CorrelationSummary) -> str:
    # 9 characters either way: a Monte Carlo floor is printed as the bound it is
    return f"<={summary.p_value:.1e}" if summary.p_is_bound else f"{summary.p_value:>9.2e}"


def format_report(report: AnalysisReport) -> str:
    """Human-readable table plus the two binomial summaries."""
    head = f"{'pair':<14} {'urn tau':>9} {'p':>9} {'toy tau':>9} {'p':>9}  match strong"
    lines = [head, "-" * len(head)]
    for pr in report.pairs:
        lines.append(
            f"{pr.label:<14} {pr.filex.tau:>+9.3f} {_p_text(pr.filex)} "
            f"{pr.toy_els.tau:>+9.3f} {_p_text(pr.toy_els)}  "
            f"{'yes' if pr.sign_match else 'no':<5} {'yes' if pr.strong_match else 'no'}"
        )
    lines.append("")
    lines.append(
        f"sign matches: {report.sign_match_count}/{report.trials} "
        f"(binomial p = {report.binomial_p:.6g})"
    )
    lines.append(
        f"strong matches (|tau| >= {report.strong_threshold:g}): "
        f"{report.strong_match_count}/{report.trials} "
        f"(binomial p = {report.strong_binomial_p:.6g})"
    )
    return "\n".join(lines) + "\n"

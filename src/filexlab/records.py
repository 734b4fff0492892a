"""Record files: CSV rows plus a JSON metadata sidecar per sweep.

CSV format: header `target,param,value,seed,entropy`, UTF-8, '.' decimal,
value and entropy printed with 17 significant digits so doubles round-trip
exactly. The sidecar `<stem>.meta.json` holds the fields of the SweepSpec
that produced the file, in field order, then its skipped grid points and
the artifact version.

This module owns the row type and the target names, so reading and
analysing records loads no simulation module.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path

from .validation import check_seed, shown

FILEX = "filex"
TOY_ELS = "toy_els"

CSV_HEADER = "target,param,value,seed,entropy"

_VERSION = "0.2.0"


@dataclass(frozen=True)
class RunRecord:
    """One sweep point: the installed value, its seed, and the entropy measured."""

    target: str
    swept_param: str
    value: float
    seed: int
    entropy: float


def metadata_path(csv_path) -> Path:
    p = Path(csv_path)
    return p.with_name(p.stem + ".meta.json")


def format_rows(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(f"{r.target},{r.swept_param},{r.value:.17g},{r.seed},{r.entropy:.17g}")
    return "\n".join(lines) + "\n"


def _write_atomic(path: Path, text: str) -> None:
    # a temp file in the same directory, then one rename: a reader sees the
    # old file or the whole new one, never a truncated write; the temp file
    # is removed on any failure, interrupts included
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_records(csv_path, records, spec=None, skipped=()) -> None:
    """Write the CSV; when a spec (a SweepSpec) is given, write the metadata
    sidecar too.
    Each file is replaced atomically: a failed write leaves the old one whole."""
    p = Path(csv_path)
    _write_atomic(p, format_rows(records))
    if spec is None:
        return
    meta = {**asdict(spec), "skipped": [asdict(s) for s in skipped], "artifact_version": _VERSION}
    _write_atomic(metadata_path(p), json.dumps(meta, indent=2) + "\n")


def read_records(csv_path) -> list[RunRecord]:
    text = Path(csv_path).read_text(encoding="utf-8")
    # (line number, text) of each non-blank line
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ValueError(f"{csv_path}: missing record header {CSV_HEADER!r}")
    out = []
    for i, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"{csv_path}:{i}: expected 5 fields, got {len(parts)}")
        target, param, value, seed, entropy = parts
        try:
            record = RunRecord(target, param, float(value), int(seed), float(entropy))
            check_seed("seed", record.seed)
        except ValueError as exc:
            raise ValueError(f"{csv_path}:{i}: {exc}") from None
        for name, x in (("value", record.value), ("entropy", record.entropy)):
            if not math.isfinite(x):
                raise ValueError(f"{csv_path}:{i}: {name} must be finite, got {x!r}")
        out.append(record)
    return out


def read_metadata(csv_path) -> dict | None:
    """The sidecar contents, or None when no sidecar exists.

    A sidecar that is not a JSON object is a ValueError, and so are one
    json cannot read (malformed, or an int of more digits than Python
    converts) and one whose artifact_version is not a string, null or absent;
    each names the sidecar. The other fields are checked by the readers
    that read them.
    """
    p = metadata_path(csv_path)
    if not p.exists():
        return None
    try:
        meta = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{p}: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{p}: expected a JSON object, got {type(meta).__name__}")
    version = meta.get("artifact_version")
    if not isinstance(version, (str, type(None))):
        raise ValueError(f"{p}: artifact_version must be a string, got {shown(version)}")
    return meta

"""Record files: CSV rows plus a JSON metadata sidecar per sweep.

CSV format: header `target,param,value,seed,entropy`, UTF-8, '.' decimal,
value and entropy printed with 17 significant digits so doubles round-trip
exactly. The sidecar `<stem>.meta.json` holds the fields of the SweepSpec
that produced the file, in field order, then its skipped grid points and
the artifact version.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from .sweep import RunRecord, SweepSpec

CSV_HEADER = "target,param,value,seed,entropy"

_VERSION = "0.1.0"


def metadata_path(csv_path) -> Path:
    p = Path(csv_path)
    return p.with_name(p.stem + ".meta.json")


def format_rows(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(f"{r.target},{r.swept_param},{r.value:.17g},{r.seed},{r.entropy:.17g}")
    return "\n".join(lines) + "\n"


def write_records(csv_path, records, spec: SweepSpec | None = None, skipped=()) -> None:
    """Write the CSV; when a spec is given, write the metadata sidecar too."""
    p = Path(csv_path)
    p.write_text(format_rows(records), encoding="utf-8")
    if spec is None:
        return
    meta = {**asdict(spec), "skipped": [asdict(s) for s in skipped], "artifact_version": _VERSION}
    metadata_path(p).write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")


def read_records(csv_path) -> list[RunRecord]:
    text = Path(csv_path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{csv_path}: missing record header {CSV_HEADER!r}")
    out = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"{csv_path}:{i}: expected 5 fields, got {len(parts)}")
        target, param, value, seed, entropy = parts
        out.append(
            RunRecord(
                target=target,
                swept_param=param,
                value=float(value),
                seed=int(seed),
                entropy=float(entropy),
            )
        )
    return out


def read_metadata(csv_path) -> dict | None:
    """The sidecar contents, or None when no sidecar exists.

    A sidecar that is not a JSON object is a ValueError. The fields are
    not checked here: each reader checks the ones it reads.
    """
    p = metadata_path(csv_path)
    if not p.exists():
        return None
    meta = json.loads(p.read_text(encoding="utf-8"))
    if not isinstance(meta, dict):
        raise ValueError(f"{p}: expected a JSON object, got {type(meta).__name__}")
    return meta

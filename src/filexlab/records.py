"""Record files: CSV rows plus a JSON metadata sidecar per sweep.

CSV format: header `target,param,value,seed,entropy`, UTF-8, '.' decimal,
value and entropy printed with 17 significant digits so doubles round-trip
exactly. The sidecar `<stem>.meta.json` holds the fields of the SweepSpec
that produced the file, in field order, then its skipped grid points and
the artifact version.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path

from .sweep import RunRecord, SweepSpec

CSV_HEADER = "target,param,value,seed,entropy"

_VERSION = "0.2.0"


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


def write_records(csv_path, records, spec: SweepSpec | None = None, skipped=()) -> None:
    """Write the CSV; when a spec is given, write the metadata sidecar too.
    Each file is replaced atomically: a failed write leaves the old one whole."""
    p = Path(csv_path)
    _write_atomic(p, format_rows(records))
    if spec is None:
        return
    meta = {**asdict(spec), "skipped": [asdict(s) for s in skipped], "artifact_version": _VERSION}
    _write_atomic(metadata_path(p), json.dumps(meta, indent=2) + "\n")


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

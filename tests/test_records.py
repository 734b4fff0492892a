import json
import os
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from filexlab.records import (
    CSV_HEADER,
    format_rows,
    metadata_path,
    read_metadata,
    read_records,
    write_records,
)
from filexlab.sweep import FILEX, TARGETS, RunRecord, SkippedPoint, SweepSpec


def sample_records():
    return [
        RunRecord(target=FILEX, swept_param="alpha", value=0.001, seed=42, entropy=5.9977568131),
        RunRecord(target=FILEX, swept_param="alpha", value=1 / 3, seed=7, entropy=0.1234567890123456),
        RunRecord(target=FILEX, swept_param="alpha", value=1000.0, seed=2**63, entropy=0.0),
    ]


def sample_spec():
    return SweepSpec(
        target=FILEX,
        swept_param="alpha",
        low=1e-3,
        high=1e3,
        steps=3,
        integer_valued=False,
        defaults={"alpha": 1.0, "beta": 8, "lexicon_size": 64, "n_iters": 1000},
        base_seed=5,
    )


def test_round_trip_is_exact(tmp_path):
    path = tmp_path / "recs.csv"
    records = sample_records()
    write_records(path, records)
    back = read_records(path)
    assert back == records  # float64 round-trip must be bit-exact


_finite = st.floats(allow_nan=False, allow_infinity=False)
_records = st.lists(
    st.builds(
        RunRecord,
        target=st.sampled_from(list(TARGETS)),
        swept_param=st.sampled_from(["alpha", "n_iters", "time_steps"]),
        value=_finite,
        seed=st.integers(0, 2**64 - 1),
        entropy=_finite,
    ),
    max_size=20,
)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(derandomize=True, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_records)
def test_round_trip_property_is_bit_exact(tmp_path, records):
    # bit-exact: -0.0, subnormals and the largest doubles come back unchanged
    path = tmp_path / "recs.csv"
    write_records(path, records)
    back = read_records(path)
    assert back == records
    for r, b in zip(records, back):
        assert (_bits(b.value), _bits(b.entropy)) == (_bits(r.value), _bits(r.entropy))


def test_header_and_formatting(tmp_path):
    path = tmp_path / "recs.csv"
    write_records(path, sample_records())
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER == "target,param,value,seed,entropy"
    assert len(lines) == 4
    # 17 significant digits preserve every double exactly
    assert lines[2].split(",")[2] == f"{1 / 3:.17g}"


def test_write_with_sidecar(tmp_path):
    path = tmp_path / "swp.csv"
    spec = sample_spec()
    skipped = [SkippedPoint(index=0, value=0.001, reason="synthetic")]
    write_records(path, sample_records(), spec=spec, skipped=skipped)
    meta = json.loads(metadata_path(path).read_text(encoding="utf-8"))
    assert meta["target"] == "filex"
    assert meta["swept_param"] == "alpha"
    assert meta["low"] == 1e-3 and meta["high"] == 1e3
    assert meta["steps"] == 3
    assert meta["integer_valued"] is False
    assert meta["defaults"]["lexicon_size"] == 64
    assert meta["base_seed"] == 5
    assert meta["skipped"] == [{"index": 0, "value": 0.001, "reason": "synthetic"}]
    assert "artifact_version" in meta


def test_failed_replace_keeps_earlier_files(tmp_path, monkeypatch):
    # the rename is the only step that touches the target: when it fails,
    # the earlier CSV and sidecar stay whole and no temp file is left
    path = tmp_path / "swp.csv"
    write_records(path, sample_records(), spec=sample_spec())
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        write_records(path, sample_records()[:1], spec=sample_spec())
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_read_metadata_roundtrip(tmp_path):
    path = tmp_path / "swp.csv"
    write_records(path, sample_records(), spec=sample_spec())
    meta = read_metadata(path)
    assert meta is not None and meta["steps"] == 3


def test_read_metadata_absent(tmp_path):
    path = tmp_path / "bare.csv"
    write_records(path, sample_records())
    assert read_metadata(path) is None


def test_empty_record_list(tmp_path):
    path = tmp_path / "empty.csv"
    write_records(path, [])
    assert read_records(path) == []


def test_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_records(path)


def test_rejects_malformed_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(CSV_HEADER + "\nfilex,alpha,1.0,42\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_records(path)


@pytest.mark.parametrize("row, message", [
    ("filex,alpha,1.0,abc,2.0", "invalid literal for int() with base 10: 'abc'"),
    ("filex,alpha,1.0,42,x", "could not convert string to float: 'x'"),
    ("filex,alpha,one,42,2.0", "could not convert string to float: 'one'"),
    ("filex,alpha,inf,42,2.0", "value must be finite, got inf"),
    ("filex,alpha,1.0,42,nan", "entropy must be finite, got nan"),
    ("filex,alpha,1.0,-6,2.0", "seed must be a non-negative integer, got -6"),
    (f"filex,alpha,1.0,{2**70},2.0", f"seed must be below 2**64, got {2**70}"),
], ids=["seed", "entropy", "value", "value-inf", "entropy-nan", "seed-negative", "seed-2**70"])
def test_unparsable_field_names_file_and_line(tmp_path, row, message):
    # the blank line still counts: the bad row is line 4 of the file. A sweep
    # never writes a NaN, an infinity or a seed outside [0, 2**64), so one is
    # a damaged file, named where it is
    path = tmp_path / "bad.csv"
    path.write_text(f"{CSV_HEADER}\nfilex,alpha,1.0,7,2.0\n\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_records(path)
    assert str(err.value) == f"{path}:4: {message}"


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_records(tmp_path / "nope.csv")


def test_format_rows_pure():
    text = format_rows(sample_records())
    assert text.startswith(CSV_HEADER + "\n")
    assert text.endswith("\n")
    assert format_rows(sample_records()) == text

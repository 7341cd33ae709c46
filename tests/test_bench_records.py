"""Every benchmark record at the repository root keeps the common form."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED = ("title", "machine", "method", "end_to_end")


def test_records_are_found():
    assert RECORDS, f"no BENCH_*.json under {ROOT}"


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_has_the_common_fields(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    missing = [key for key in REQUIRED if key not in record]
    assert not missing, f"{path.name} lacks {missing}"

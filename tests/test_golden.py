"""Every entry of the golden table (see `tests/golden.py`) gives the same
exit code, stdout, stderr and ``--out`` bytes as when it was recorded."""

from __future__ import annotations

import pytest

import golden

ENTRIES = golden.load()


def test_table_covers_every_case():
    assert [e["argv"] for e in ENTRIES] == golden.cases()


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_entry(entry):
    assert golden.run(entry["argv"]) == entry

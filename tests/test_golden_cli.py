"""Byte-for-byte replay of recorded CLI outputs.

Every file under tests/golden/cli/ and every figure CSV under
perfbench/reference/ carries its own command and parameters in its header.
Replaying it must reproduce the file exactly.  The figure CSVs are read in
place: they are already the byte reference of the sweep figures.
"""

from pathlib import Path

import pytest

from biasforge import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = sorted(p for p in (ROOT / "tests" / "golden" / "cli").iterdir() if p.suffix in (".json", ".csv"))
REFERENCE = sorted((ROOT / "perfbench" / "reference").glob("*.csv"))


def test_corpus_is_complete():
    assert len(GOLDEN) == 8 and len(REFERENCE) == 7


@pytest.mark.parametrize("path", GOLDEN + REFERENCE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_replay_is_byte_identical(path, tmp_path):
    out = tmp_path / path.name
    assert cli.main(["replay", str(path), "--out", str(out)]) == 0
    assert out.read_bytes() == path.read_bytes()

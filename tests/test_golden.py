"""Golden reports: the full JSON report of every expressible fixture, byte for byte.

Each file under tests/golden/ is the stdout of

    ontogen generate --tmr src/ontogen/data/tmr/<fixture>.json \
        --format json --trace --dump-solutions --top 1000000

so sentences, totals, terms, ledgers, exclusions, counts, messages and
constituent trees are all pinned. After a deliberate output change,
regenerate them with that command and review the diff.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from conftest import TMR_DIR, fixture_path
from ontogen.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INEXPRESSIBLE = {"empty"}


def test_every_expressible_fixture_has_a_golden():
    fixtures = {path.stem for path in TMR_DIR.glob("*.json")} - INEXPRESSIBLE
    assert {path.stem for path in GOLDEN.glob("*.json")} == fixtures


@pytest.mark.parametrize("name", sorted(path.stem for path in GOLDEN.glob("*.json")))
def test_report_matches_the_golden_bytes(name, tmp_path):
    out = tmp_path / f"{name}.json"
    assert main(["generate", "--tmr", str(fixture_path(name)), "--format", "json",
                 "--trace", "--dump-solutions", "--top", "1000000",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()

"""Golden reports: the full JSON report of every expressible fixture, byte for byte.

Each file under tests/golden/ is the stdout of the `ontogen` command
that `test_genscen_golden.golden_argv` spells out for its fixture, so
sentences, totals, terms, ledgers, exclusions, counts, messages and
constituent trees are all pinned. After a deliberate output change,
regenerate them with that command and review the diff. Each report is
checked twice: from main() in-process, and from the stdout of a
`python -m ontogen.cli` process.
"""
from __future__ import annotations

import pytest

from conftest import TMR_DIR, run_cli
from ontogen.cli import main
from test_genscen_golden import GOLDEN, golden_argv

INEXPRESSIBLE = {"empty"}


def test_every_expressible_fixture_has_a_golden():
    fixtures = {path.stem for path in TMR_DIR.glob("*.json")} - INEXPRESSIBLE
    assert {path.stem for path in GOLDEN.glob("*.json")} == fixtures


GOLDENS = sorted(path.stem for path in GOLDEN.glob("*.json"))


@pytest.mark.parametrize("name", GOLDENS)
def test_report_matches_the_golden_bytes(name, tmp_path):
    out = tmp_path / f"{name}.json"
    assert main(golden_argv(name) + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", GOLDENS)
def test_a_process_prints_the_golden_bytes(name):
    # the process ends in os._exit: its report must be flushed before that
    proc = run_cli(*golden_argv(name), text=False)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / f"{name}.json").read_bytes()


def test_a_process_writes_the_largest_golden_to_its_out_file(tmp_path):
    golden = max(GOLDEN.glob("*.json"), key=lambda path: path.stat().st_size)
    out = tmp_path / golden.name
    proc = run_cli(*golden_argv(golden.stem), "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert out.read_bytes() == golden.read_bytes()

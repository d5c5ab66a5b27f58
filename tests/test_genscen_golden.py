"""Golden digests of the 300 `tests/genscen.py` scenarios.

For every seed in 0-299, each scenario is generated twice: plain, and with
a one-line discourse history. The full JSON report
(``cli._render_json(report, every sentence, trace=True, dump=True)``) is
hashed with SHA-256; a scenario that cannot be expressed is hashed as its
error type and message. Genscen KBs hold no proper names, so the history
variant pins that a history without the sentence's names changes nothing.
No report names the temporary directory a scenario's KB is written to.
So sentences, totals, terms, signatures, ledgers,
trees, counts, messages and trace are all pinned for 600 reports without
committing them.

After a deliberate output change, regenerate the digests from the
repository root with

    PYTHONPATH=src python tests/test_genscen_golden.py

and say in the change which seeds moved and why. With ``--check`` the
script compares instead of rewriting: it prints each moved key, then each
fixture golden under ``tests/golden/*.json`` whose report, written by
``ontogen.cli.main([... "--out", path])``, moved from the committed bytes,
then the discourse golden (see tests/test_discourse.py) if it moved, then
each sentence that fails tests/test_rank_exactness.py's check, then each
case where generate() ranks otherwise than ``genscen.rank_every_set`` (every
fixture, seeds 0-299 and the attached family n = 1..6, under
``genscen.REFERENCE_CONFIGS``, with the number of sentences compared), and
exits 1 if anything moved or failed. It imports no pytest, so one command
per interpreter covers all five checks:

    PYTHONPATH=src:tests python tests/test_genscen_golden.py --check
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import test_discourse
from genscen import build_scenario, reference_mismatches
from ontogen import OntogenError, generate
from ontogen.cli import _render_json, main
from test_rank_exactness import exactness_failures

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "genscen" / "digests.json"
TMR_DIR = Path(__file__).resolve().parents[1] / "src" / "ontogen" / "data" / "tmr"
SEEDS = range(300)
HISTORY = ("Tom met a person and a box.",)
VARIANTS = {"plain": (), "history": HISTORY}


def report_text(seed: int, history: tuple[str, ...]) -> str:
    """The seed's full JSON report, or its error type and message."""
    kb, tmr = build_scenario(seed)
    try:
        report = generate(tmr, kb, history=history)
    except OntogenError as exc:
        return f"{type(exc).__name__}: {exc}"
    return _render_json(report, len(report.sentences), trace=True, dump=True)


def digests() -> dict[str, str]:
    return {f"{seed}/{variant}": hashlib.sha256(
                report_text(seed, history).encode("utf-8")).hexdigest()
            for seed in SEEDS for variant, history in VARIANTS.items()}


def moved_keys() -> list[str]:
    """Every key whose digest differs from the committed one, or is on one side only."""
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = digests()
    return [key for key in {**expected, **actual} if actual.get(key) != expected.get(key)]


def golden_argv(name: str) -> list[str]:
    """The arguments whose stdout is the fixture golden golden/<name>.json:

        ontogen generate --tmr src/ontogen/data/tmr/<name>.json \\
            --format json --trace --dump-solutions --top 1000000
    """
    return ["generate", "--tmr", str(TMR_DIR / f"{name}.json"), "--format", "json",
            "--trace", "--dump-solutions", "--top", "1000000"]


def moved_fixture_goldens() -> list[str]:
    """Every fixture golden whose report, as the golden's command writes it
    to a file, differs from the committed bytes (see tests/test_golden.py)."""
    moved = []
    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stderr(io.StringIO()):
        for golden in sorted(GOLDEN.glob("*.json")):
            out = Path(scratch) / golden.name
            argv = golden_argv(golden.stem) + ["--out", str(out)]
            if main(argv) != 0 or out.read_bytes() != golden.read_bytes():
                moved.append(f"golden/{golden.name}")
    return moved


def moved_discourse_golden() -> list[str]:
    """The discourse golden, if its report differs from the committed bytes."""
    golden = test_discourse.GOLDEN
    text = test_discourse.discourse_text(test_discourse.bundled_kb())
    return [] if text == golden.read_text(encoding="utf-8") else [
        str(golden.relative_to(GOLDEN.parent))]


def test_every_genscen_report_matches_its_digest():
    moved = moved_keys()
    assert not moved, f"{len(moved)} genscen reports moved: {', '.join(moved)}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        moved = moved_keys()
        goldens = moved_fixture_goldens()
        discourse = moved_discourse_golden()
        checked, inexact = exactness_failures()
        compared, differ = reference_mismatches()
        print("\n".join(moved + goldens + discourse + inexact + differ + [
            f"{len(moved)} of {2 * len(SEEDS)} digests moved",
            f"{len(goldens)} of {len(list(GOLDEN.glob('*.json')))} fixture goldens moved",
            f"{len(discourse)} of 1 discourse golden moved",
            f"{len(inexact)} of {checked} sentences failed the exactness check",
            f"{len(differ)} cases ranked otherwise than the reference "
            f"({compared} sentences compared)"]))
        sys.exit(1 if moved or goldens or discourse or inexact or differ else 0)
    DIGESTS.parent.mkdir(parents=True, exist_ok=True)
    DIGESTS.write_text(json.dumps(digests(), indent=1, sort_keys=False) + "\n", encoding="utf-8")

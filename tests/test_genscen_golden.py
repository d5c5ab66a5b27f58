"""Golden digests of the 300 `tests/genscen.py` scenarios and of 2,041
role mutations of the bundled fixtures.

For every seed in 0-299, each scenario is generated twice: plain, and with
a one-line discourse history. The full JSON report
(``cli._render_json(report, every sentence, trace=True, dump=True)``) is
hashed with SHA-256; a scenario that cannot be expressed is hashed as its
error type and message. Genscen KBs hold no proper names, so the history
variant pins that a history without the sentence's names changes nothing.
No report names the temporary directory a scenario's KB is written to.
So sentences, totals, terms, signatures, ledgers,
trees, counts, messages and trace are all pinned for 600 reports without
committing them. The role mutations (role_mutations) are hashed the same
way on the bundled KB into ``golden/mutations/digests.json``; every one of
them must end in a report or an OntogenError, and match its digest. In the
trees both sets of reports dump, every verb-phrase node holds a main verb.

After a deliberate output change, regenerate the digests from the
repository root with

    PYTHONPATH=src python tests/test_genscen_golden.py

and say in the change which seeds or mutations moved and why. With
``--check`` the script compares instead of rewriting: it prints each moved
key, then each fixture golden under ``tests/golden/*.json`` whose report,
written by ``ontogen.cli.main([... "--out", path])``, moved from the
committed bytes, then the discourse golden (see tests/test_discourse.py)
if it moved, then each sentence that fails tests/test_rank_exactness.py's
check, then each case where generate() ranks otherwise than
``genscen.rank_every_set`` (every fixture, seeds 0-299 and the attached
family n = 1..6, under ``genscen.REFERENCE_CONFIGS``, with the number of
sentences compared), then each role mutation whose report moved from its
committed digest, then each scale case (scale_cases) that did not exit 0
within SCALE_SECONDS in a child process limited to SCALE_BYTES of address
space, and exits 1 if anything moved or failed. It imports no pytest, so
one command per interpreter covers all seven checks:

    PYTHONPATH=src:tests python tests/test_genscen_golden.py --check
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import ontogen
import test_discourse
from genscen import build_scenario, nested_requests, reference_mismatches, shared_participant
from ontogen import OntogenError, generate, parse_tmr
from ontogen.cli import _render_json, main
from ontogen.tmr import CASE_ROLES
from test_rank_exactness import exactness_failures

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "genscen" / "digests.json"
MUTATION_DIGESTS = GOLDEN / "mutations" / "digests.json"
TMR_DIR = Path(__file__).resolve().parents[1] / "src" / "ontogen" / "data" / "tmr"
SEEDS = range(300)
HISTORY = ("Tom met a person and a box.",)
VARIANTS = {"plain": (), "history": HISTORY}


def _rendered(run) -> str:
    """The full JSON report run() returns, or its error type and message."""
    try:
        report = run()
    except OntogenError as exc:
        return f"{type(exc).__name__}: {exc}"
    return _render_json(report, len(report.sentences), trace=True, dump=True)


def report_text(seed: int, history: tuple[str, ...]) -> str:
    """The seed's full JSON report, or its error type and message."""
    kb, tmr = build_scenario(seed)
    return _rendered(lambda: generate(tmr, kb, history=history))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reports() -> dict[str, str]:
    """Each seed's report, plain and with the history, by key."""
    return {f"{seed}/{variant}": report_text(seed, history)
            for seed in SEEDS for variant, history in VARIANTS.items()}


def digests() -> dict[str, str]:
    return {key: _digest(text) for key, text in reports().items()}


def role_mutations():
    """(key, TMR text) for each bundled fixture, frame and case role: the
    role removed when present, then set to the concept PICTURE, the literal
    home, the outside id HUMAN-999 and each frame id of the TMR."""
    for path in sorted(TMR_DIR.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        frames = doc["frames"]
        for frame_id, slots in frames.items():
            for role in CASE_ROLES:
                for value in ([None] if role in slots else []) + [
                        "PICTURE", "home", "HUMAN-999", *frames]:
                    edited = {key: v for key, v in slots.items() if key != role or value}
                    if value:
                        edited[role] = value
                    yield f"{path.stem}/{frame_id}/{role}={value or '-'}", json.dumps(
                        {**doc, "frames": {**frames, frame_id: edited}})


def mutation_reports() -> dict[str, str]:
    """Each role mutation's report on the bundled KB, by key."""
    kb = test_discourse.bundled_kb()
    return {key: _rendered(lambda: generate(parse_tmr(text), kb))
            for key, text in role_mutations()}


def mutation_digests() -> dict[str, str]:
    return {key: _digest(text) for key, text in mutation_reports().items()}


def verbless_verb_phrases(reports: dict[str, str]) -> tuple[int, list[str]]:
    """The number of trees the reports dump, and the key of each report
    whose trees hold a verb-phrase node with no main-verb child: a "v" slot
    says its frame as a verb phrase."""
    trees, keys = 0, []
    for key, text in reports.items():
        if not text.startswith("{"):
            continue  # an error type and message
        stack = [solution["tree"] for solution in json.loads(text)["solutions"]]
        trees += len(stack)
        while stack:
            node = stack.pop()
            children = node.get("children", [])
            if node["function"] == "verb-phrase" and \
                    all(child["function"] != "main-verb" for child in children):
                keys.append(key)
                break
            stack.extend(children)
    return trees, keys


def moved(path: Path, actual: dict[str, str]) -> list[str]:
    """Every key whose digest differs from the one committed at path, or is on one side only."""
    expected = json.loads(path.read_text(encoding="utf-8"))
    return [key for key in {**expected, **actual} if actual.get(key) != expected.get(key)]


def moved_keys() -> list[str]:
    return moved(DIGESTS, digests())


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


# each scale case takes under 0.5 s and 140 MB of address space on 3.10-3.13
SCALE_SECONDS = 5
SCALE_BYTES = 512 * 2 ** 20
_LIMITED_RUN = ("import resource, sys; "
                f"resource.setrlimit(resource.RLIMIT_AS, ({SCALE_BYTES}, {SCALE_BYTES})); "
                "from ontogen.cli import run; run()")


def scale_cases() -> list[tuple[str, dict, list[str]]]:
    """(name, TMR document, generate's other arguments) for each input at
    the scale generation reaches: a tree 600 verb phrases deep dumped in
    either format, and one participant of 4,001 events."""
    deep = nested_requests(600, "PREPARE-FOOD-1")
    return [("nested 600 --dump-solutions", deep, ["--dump-solutions"]),
            ("nested 600 --dump-solutions --format json", deep,
             ["--dump-solutions", "--format", "json"]),
            ("shared participant 4000", shared_participant(4000), [])]


def scale_failures() -> tuple[int, list[str]]:
    """The number of scale cases, and each that did not exit 0 within
    SCALE_SECONDS as `ontogen generate` in a child process, whose address
    space alone is limited to SCALE_BYTES."""
    paths = (str(Path(ontogen.__file__).parents[1]), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    cases, failed = scale_cases(), []
    with tempfile.TemporaryDirectory() as scratch:
        for name, doc, flags in cases:
            path = Path(scratch) / "tmr.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            argv = [sys.executable, "-c", _LIMITED_RUN, "generate", "--tmr", str(path), *flags]
            try:
                proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                      text=True, env=env, timeout=SCALE_SECONDS)
            except subprocess.TimeoutExpired:
                failed.append(f"scale {name}: no exit within {SCALE_SECONDS} s")
                continue
            if proc.returncode != 0:
                last = (proc.stderr.strip().splitlines() or [""])[-1]
                failed.append(f"scale {name}: exit {proc.returncode}: {last}")
    return len(cases), failed


def test_every_genscen_report_matches_its_digest():
    texts = reports()
    assert verbless_verb_phrases(texts) == (2532, [])
    shifted = moved(DIGESTS, {key: _digest(text) for key, text in texts.items()})
    assert not shifted, f"{len(shifted)} genscen reports moved: {', '.join(shifted)}"


def test_every_role_mutation_ends_in_a_report_or_an_ontogen_error():
    # an exception other than an OntogenError escapes mutation_reports
    texts = mutation_reports()
    assert len(texts) == 2041
    assert verbless_verb_phrases(texts) == (15453, [])
    shifted = moved(MUTATION_DIGESTS, {key: _digest(text) for key, text in texts.items()})
    assert not shifted, f"{len(shifted)} mutation reports moved: {', '.join(shifted)}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        moved_digests = moved_keys()
        goldens = moved_fixture_goldens()
        discourse = moved_discourse_golden()
        checked, inexact = exactness_failures()
        compared, differ = reference_mismatches()
        mutations = moved(MUTATION_DIGESTS, mutation_digests())
        scaled, slow = scale_failures()
        moved_lines = moved_digests + goldens + discourse + inexact + differ + mutations + slow
        print("\n".join(moved_lines + [
            f"{len(moved_digests)} of {2 * len(SEEDS)} digests moved",
            f"{len(goldens)} of {len(list(GOLDEN.glob('*.json')))} fixture goldens moved",
            f"{len(discourse)} of 1 discourse golden moved",
            f"{len(inexact)} of {checked} sentences failed the exactness check",
            f"{len(differ)} cases ranked otherwise than the reference "
            f"({compared} sentences compared)",
            f"{len(mutations)} of {len(list(role_mutations()))} mutation digests moved",
            f"{len(slow)} of {scaled} scale cases failed to exit 0 within {SCALE_SECONDS} s "
            f"and {SCALE_BYTES // 2 ** 20} MiB"]))
        sys.exit(1 if moved_lines else 0)
    for path, written in ((DIGESTS, digests()), (MUTATION_DIGESTS, mutation_digests())):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(written, indent=1, sort_keys=False) + "\n", encoding="utf-8")

"""End-to-end command line behavior via subprocess."""
from __future__ import annotations

import contextlib
import errno
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DATA, KB_DIR, cli_env, fixture_path, run_cli
from genscen import nested_requests
from ontogen import (
    generate,
    parse_tmr,
    parse_tmr_file,
    serialize_tmr,
    strip_metadata,
    tmr_isomorphic,
)
from ontogen import cli
from ontogen.cli import main
from ontogen.solution import Constituent, _nodes
from ontogen.strictjson import encode


def test_generate_prints_ranked_sentences():
    proc = run_cli("generate", "--tmr", str(fixture_path("fasten_painting")))
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "1. Tom secured a painting to the wall."
    for index, line in enumerate(lines, start=1):
        assert line.startswith(f"{index}. ")


def test_generate_top_limits_the_report():
    proc = run_cli("generate", "--tmr", str(fixture_path("moor_ship")), "--top", "1")
    assert proc.returncode == 0
    assert proc.stdout == "1. They moored the ship.\n"


def test_timing_goes_to_stderr_only():
    proc = run_cli("generate", "--tmr", str(fixture_path("moor_ship")), "--top", "1")
    assert "timing:" not in proc.stdout
    assert any(line.startswith("timing: generate ") and line.endswith(" ms")
               for line in proc.stderr.splitlines())


def test_trace_shows_ledgers_and_exclusions():
    proc = run_cli("generate", "--tmr", str(fixture_path("fasten_painting")),
                   "--top", "1", "--trace")
    assert proc.returncode == 0
    out = proc.stdout
    assert "ledger 1 (total " in out
    assert "  term pipeline " in out
    assert "excluded:" in out
    assert ("  trace: semantic FASTEN-18/moor-v1 argument-mismatch "
            "THEME PICTURE violates SURFACE-WATER-VEHICLE") in out.splitlines()


def test_dump_solutions_prints_the_tree():
    proc = run_cli("generate", "--tmr", str(fixture_path("moor_ship")),
                   "--top", "1", "--dump-solutions")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert "solution 1:" in lines
    start = lines.index("solution 1:")
    assert lines[start + 1].strip().startswith("clause")
    assert any("main-verb moor" in line for line in lines[start:])


def test_json_format_is_parseable_and_byte_stable():
    args = ("generate", "--tmr", str(fixture_path("fasten_painting")),
            "--format", "json", "--trace")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["sentences"][0]["sentence"] == "Tom secured a painting to the wall."
    assert doc["sentences"][0]["rank"] == 1
    assert set(doc["sentences"][0]["terms"]) == {"pipeline", "frequency",
                                                 "repetition", "length"}
    assert doc["counts"]["units"] == 4
    assert any(r["rule"] == "argument-mismatch" for r in doc["trace"])


# what a report can hold: str keys; text, numbers, booleans, null, lists, objects
_report_values = st.recursive(
    st.none() | st.booleans() | st.text()
    | st.integers() | st.integers(min_value=-2 ** 200, max_value=2 ** 200) | st.floats(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_report_values)
@example({"sentence": "caf\u00e9 \u2028\u2029 \x00\x1f\x7f \"\\ \U0001f600", "total": -0.0,
          "big": [10 ** 40, -(10 ** 40), 1e308, -1.5e-300, 5e-324, float("inf")],
          "empty": [[], {}, [[]], {"": {}}, [{}]]})
def test_the_report_writer_matches_json_dumps(value):
    assert encode(value) == json.dumps(value, indent=2, ensure_ascii=False)


def test_the_report_writer_writes_a_value_deeper_than_the_stack():
    depth = 3 * sys.getrecursionlimit()
    value = 1
    for level in range(depth):
        value = {"k": value} if level % 2 else [value]
    opens = ["{\n" + "  " * (d + 1) + '"k": ' if (depth - 1 - d) % 2 else "[\n" + "  " * (d + 1)
             for d in range(depth)]
    closes = ["\n" + "  " * d + ("}" if (depth - 1 - d) % 2 else "]")
              for d in reversed(range(depth))]
    assert encode(value) == "".join(opens) + "1" + "".join(closes)


def test_a_tree_deeper_than_the_stack_is_built_and_written():
    depth = 3 * sys.getrecursionlimit()
    pieces = [("go", Constituent("main-verb", lemma="go"))]
    for _ in range(depth):
        pieces = [("ask", Constituent("main-verb", lemma="ask")), ("embedded", pieces)]
    root = Constituent("clause", children=_nodes(pieces))
    walked = list(cli._preorder(root))
    assert [d for d, node in walked if node.function == "verb-phrase"] == \
        list(range(1, depth + 1))
    assert [node.lemma for _, node in walked if node.is_leaf] == ["ask"] * depth + ["go"]
    text = encode(cli._tree_json(root))
    assert text.count('"function": "verb-phrase"') == depth
    # a node at depth k writes its fields indented by 4k + 2
    assert " " * (4 * depth + 6) + '"lemma": "go"' in text.splitlines()


def test_out_writes_the_report_to_a_file(tmp_path):
    target = tmp_path / "report.txt"
    proc = run_cli("generate", "--tmr", str(fixture_path("moor_ship")),
                   "--top", "1", "--out", str(target))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert target.read_text() == "1. They moored the ship.\n"


# --- exit codes -----------------------------------------------------------------

def test_inexpressible_meaning_exits_2():
    proc = run_cli("generate", "--tmr", str(fixture_path("empty")))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")


def test_silent_frames_past_the_cap_exit_0(tmp_path):
    doc = json.loads(fixture_path("fasten_painting").read_text())
    for ident in range(101, 106):
        doc["frames"][f"PICTURE-{ident}"] = {}
    path = tmp_path / "silent.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("generate", "--tmr", str(path), "--top", "20")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert len(lines) == 10
    assert lines[0] == "1. Tom secured a painting to the wall."
    assert proc.stderr.splitlines()[0] == ("note: PICTURE-101, PICTURE-102, PICTURE-103, "
                                           "PICTURE-104, PICTURE-105 not expressed: "
                                           "nothing attaches them to FASTEN-18")


def test_a_frame_part_of_another_is_the_root(tmp_path):
    """PART-OF is a relation, not an inverse: the frame that holds it is
    the root, and the slot is uncovered when its sense does not say it."""
    path = tmp_path / "part.json"
    path.write_text(json.dumps({"schema": "ontogen-tmr/1", "frames": {
        "WALL-40": {"PART-OF": "PICTURE-1"}, "PICTURE-1": {}}}))
    proc = run_cli("generate", "--tmr", str(path), "--top", "1")
    assert proc.returncode == 0
    assert proc.stdout == "1. The wall.\n"
    assert "not expressed" not in proc.stderr
    proc = run_cli("generate", "--tmr", str(path), "--top", "1", "--trace")
    assert "  WALL-40 uncovered-slot -5 PART-OF is not expressed by wall-n1\n" in proc.stdout


_MAX = 1.7976931348623157e308


@pytest.mark.parametrize("fixture, values, field", [
    ("fasten_painting", {"pipeline-weight": 1e308}, "pipeline-weight"),
    ("fasten_painting", {"length-tie-break": -1e308}, "length-tie-break"),
    ("fasten_painting", {"pipeline-weight": 1e308, "uncovered-penalty": 1e308},
     "uncovered-penalty"),
    ("request_blunt", {"feature-bonus": _MAX, "exact-bonus": _MAX}, "exact-bonus"),
], ids=["pipeline-weight", "length-tie-break", "uncovered-penalty", "feature-bonus"])
@pytest.mark.parametrize("flags", [[], ["--format", "json"], ["--trace"]],
                         ids=["human", "json", "trace"])
def test_a_config_too_large_for_the_score_arithmetic_is_a_one_line_error(
        tmp_path, capsys, fixture, values, field, flags):
    """A config past the bound on its fields is refused when it loads, with
    the first such field in field order named."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema": "ontogen-config/1", **values}))
    argv = ["generate", "--tmr", str(fixture_path(fixture)), "--config", str(path), *flags]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(rf"error: {re.escape(str(path))}: {field} must be at most 1e\+100 "
                        r"in magnitude, got -?[0-9.e+]+\n", err)


def test_a_set_cap_past_the_product_is_no_cap(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema": "ontogen-config/1", "set-cap": 10 ** 20}))
    argv = ["generate", "--tmr", str(fixture_path("moor_ship")), "--format", "json", "--trace"]
    assert main(argv) == 0
    default, _ = capsys.readouterr()
    assert main(argv + ["--config", str(path)]) == 0
    assert capsys.readouterr().out == default


def test_pruned_meaning_exits_2_with_trace_on_stderr(tmp_path):
    doc = {"schema": "ontogen-tmr/1", "speaker": "HUMAN-1", "hearer": "HUMAN-2",
           "frames": {
               "REQUEST-ACTION-1": {"AGENT": "HUMAN-1", "BENEFICIARY": "HUMAN-3",
                                    "THEME": "PREPARE-FOOD-1",
                                    "POLITENESS": 0.8, "REFUSAL-OPPORTUNITY": 0.8},
               "PREPARE-FOOD-1": {"AGENT": "HUMAN-3", "THEME": "DINNER-1"},
               "HUMAN-1": {}, "HUMAN-3": {}, "DINNER-1": {}}}
    path = tmp_path / "wrong_beneficiary.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("generate", "--tmr", str(path))
    assert proc.returncode == 2
    assert any(line.startswith("trace: syntactic") and "participant-mismatch" in line
               for line in proc.stderr.splitlines())


@pytest.mark.parametrize("role, filler, dropped, node", [
    ("THEME", "PICTURE", "PICTURE-7", "directobject $var2"),
    ("DESTINATION", "home", "WALL-40", "n $var4"),
], ids=["concept", "literal"])
def test_a_case_role_no_instance_fills_exits_2(tmp_path, capsys, role, filler, dropped, node):
    """A concept or a literal in a role the construction says as a phrase
    would leave the role unsaid, so every sense that binds it is
    unfillable."""
    doc = json.loads(fixture_path("fasten_painting").read_text())
    doc["frames"]["FASTEN-18"][role] = filler
    del doc["frames"][dropped]
    path = tmp_path / "role.json"
    path.write_text(json.dumps(doc))
    assert main(["generate", "--tmr", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("trace: syntactic")] == [
        f"trace: syntactic FASTEN-18/{sense} unfillable {node} needs an instance for {role}, "
        f"got {filler!r}" for sense in ("affix-v1", "fix-v2")]


@pytest.mark.parametrize("agent", ["HUMAN", "HUMAN-2"], ids=["concept", "instance"])
def test_an_embedded_event_never_says_its_subject(tmp_path, capsys, agent):
    """Only the root says its word-less subject, so an embedded event's
    AGENT is not checked: a concept there leaves the request as it is with
    the hearer."""
    doc = json.loads(fixture_path("request_polite").read_text())
    doc["frames"]["PREPARE-FOOD-1"]["AGENT"] = agent
    path = tmp_path / "embedded.json"
    path.write_text(json.dumps(doc))
    assert main(["generate", "--tmr", str(path)]) == 0
    out, _ = capsys.readouterr()
    assert out.splitlines() == ["1. I would really appreciate it if you would make dinner.",
                                "2. I request that you make dinner.",
                                "3. Could you please make dinner?"]


def test_a_request_inside_a_request_says_only_embeddable_constructions(tmp_path, capsys):
    """An embedded frame is a base-form verb phrase: a construction with an
    aux node (appreciate-v8, could-v9) cannot stand there, so only
    request-v2 is said inside the outer request."""
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(nested_requests(2, "PREPARE-FOOD-1")))
    assert main(["generate", "--tmr", str(path), "--top", "20"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "1. I would really appreciate it if you would request that you make dinner.",
        "2. I request that you request that you make dinner.",
        "3. Could you please request that you make dinner?"]
    assert main(["generate", "--tmr", str(path), "--format", "json", "--trace"]) == 0
    syntactic = [record for record in json.loads(capsys.readouterr().out)["trace"]
                 if record["stage"] == "syntactic"]
    assert syntactic == [
        {"stage": "syntactic", "subject": f"REQUEST-ACTION-2/{sense}", "rule": "unembeddable",
         "note": f"{sense} cannot stand as an embedded verb phrase"}
        for sense in ("appreciate-v8", "could-v9")]


def _verb_slot_lines(err: str) -> list[str]:
    return [line for line in err.splitlines() if " verb-slot " in line]


_UNSAID = "said as a verb phrase, and no candidate left for it takes arguments"


def test_a_v_slot_whose_frame_takes_no_arguments_exits_2(tmp_path, capsys):
    """A "v" node says its frame as a verb phrase: with DINNER-1 in the
    request's THEME, no sense of the request can stand, where it printed
    "I would really appreciate it if you would dinner."."""
    path = tmp_path / "dinner.json"
    path.write_text(json.dumps(nested_requests(1, "DINNER-1")))
    assert main(["generate", "--tmr", str(path), "--trace"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert _verb_slot_lines(err) == [
        f"trace: syntactic REQUEST-ACTION-1/{sense} verb-slot v needs DINNER-1 {_UNSAID}"
        for sense in ("appreciate-v8", "could-v9", "request-v2")]


def test_a_v_slot_excluded_inside_a_request_excludes_the_request_around_it(tmp_path, capsys):
    """The exclusion climbs a nesting: the inner request cannot say DINNER-1
    as a verb phrase, so the outer one has no verb phrase for its THEME."""
    path = tmp_path / "nested_dinner.json"
    path.write_text(json.dumps(nested_requests(2, "DINNER-1")))
    assert main(["generate", "--tmr", str(path), "--trace"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert _verb_slot_lines(err) == [
        f"trace: syntactic REQUEST-ACTION-2/request-v2 verb-slot v needs DINNER-1 {_UNSAID}",
        *(f"trace: syntactic REQUEST-ACTION-1/{sense} verb-slot v needs REQUEST-ACTION-2 "
          f"{_UNSAID}" for sense in ("appreciate-v8", "could-v9", "request-v2"))]


def test_a_human_no_referring_expression_fits_exits_2(tmp_path):
    """A HUMAN frame with no name that memory does not know is described,
    and a lexicon whose only HUMAN senses are pronouns cannot describe it."""
    lexicon = json.loads((KB_DIR / "lexicon.json").read_text())
    lexicon["senses"] = [sense for sense in lexicon["senses"]
                         if sense["sem-struc"]["head"] != "HUMAN" or "reference" in sense]
    lexicon_path, tmr_path = tmp_path / "lexicon.json", tmp_path / "human.json"
    lexicon_path.write_text(json.dumps(lexicon))
    tmr_path.write_text(json.dumps({"schema": "ontogen-tmr/1", "frames": {"HUMAN-1": {}}}))
    proc = run_cli("generate", "--lexicon", str(lexicon_path), "--tmr", str(tmr_path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[0] == "error: no referring expression fits: HUMAN-1"


_ANN_WALKS = {"WALK-3": {"AGENT": "HUMAN-9"}, "HUMAN-9": {"HAS-NAME": "Ann"}}


@pytest.mark.parametrize("first, sentence, note", [
    (False, "1. Tom secured a painting to the wall.",
     "WALK-3, HUMAN-9 not expressed: nothing attaches them to FASTEN-18"),
    (True, "1. Ann walks.",
     "FASTEN-18, HUMAN-104, PICTURE-7, WALL-40 not expressed: nothing attaches them to WALK-3"),
], ids=["appended", "prepended"])
def test_the_root_is_the_first_frame_nothing_points_at(tmp_path, capsys, first, sentence, note):
    """Two unconnected events: the first frame in document order with no
    -OF filler inside the TMR is said, and one note names the rest."""
    doc = json.loads(fixture_path("fasten_painting").read_text())
    frames = doc["frames"]
    doc["frames"] = {**_ANN_WALKS, **frames} if first else {**frames, **_ANN_WALKS}
    path = tmp_path / "two_events.json"
    path.write_text(json.dumps(doc))
    assert main(["generate", "--tmr", str(path), "--top", "1"]) == 0
    out, err = capsys.readouterr()
    assert out == sentence + "\n"
    assert [line for line in err.splitlines() if line.startswith("note: ")] == [f"note: {note}"]
    assert main(["generate", "--tmr", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["messages"] == [note]


@pytest.mark.parametrize("animal", [{"COLOR": "blue"}, {}], ids=["modified", "bare"])
def test_an_adjective_never_heads_a_frame(tmp_path, animal):
    """ANIMAL and its ancestors below OBJECT have no noun, and the bundled
    adjectives have head OBJECT: no sense covers the frame."""
    path = tmp_path / "animal.json"
    path.write_text(json.dumps({"schema": "ontogen-tmr/1", "frames": {
        "WALK-1": {"AGENT": "ANIMAL-2"}, "ANIMAL-2": animal}}))
    proc = run_cli("generate", "--tmr", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == \
        "error: no lexical sense covers ANIMAL-2 (concept ANIMAL or any ancestor)"


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_a_frame_of_an_unknown_concept_names_the_file_and_the_frame(tmp_path, capsys, fmt):
    path = tmp_path / "blorp.json"
    path.write_text(json.dumps({"schema": "ontogen-tmr/1", "frames": {"BLORP-1": {}}}))
    assert main(["generate", "--tmr", str(path), "--format", fmt]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}: BLORP-1: concept BLORP is not in the ontology\n"


_REQUEST = {"POLITENESS": 0, "REFUSAL-OPPORTUNITY": 0}
# a request that embeds (request-v2) needs a speaker and a hearer to ask
_POLITE = {"AGENT": "HUMAN-1", "BENEFICIARY": "HUMAN-2", "POLITENESS": 0.8,
           "REFUSAL-OPPORTUNITY": 0.8}


@pytest.mark.parametrize("doc, shown", [
    ({"speaker": "HUMAN-1", "hearer": "HUMAN-2", "frames": {
        "REQUEST-ACTION-1": {"THEME": "REQUEST-ACTION-2", **_POLITE},
        "REQUEST-ACTION-2": {"THEME": "REQUEST-ACTION-1", **_POLITE},
        "HUMAN-1": {}, "HUMAN-2": {}}},
     "REQUEST-ACTION-1 -> REQUEST-ACTION-2 -> REQUEST-ACTION-1"),
    ({"frames": {"REQUEST-ACTION-1": {"THEME": "REQUEST-ACTION-1", **_REQUEST}}},
     "REQUEST-ACTION-1 -> REQUEST-ACTION-1"),
], ids=["through-another-frame", "directly"])
@pytest.mark.parametrize("fmt", ["human", "json"])
def test_a_frame_that_embeds_itself_names_the_file_and_the_path(tmp_path, capsys, doc,
                                                                  shown, fmt):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"schema": "ontogen-tmr/1", **doc}))
    assert main(["generate", "--tmr", str(path), "--format", fmt]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}: a frame embeds itself: {shown}\n"


@pytest.mark.parametrize("flags", [[], ["--format", "json"], ["--dump-solutions"],
                                   ["--format", "json", "--dump-solutions"]],
                         ids=["human", "json", "human-dump", "json-dump"])
def test_requests_nested_past_the_stack_exit_1_with_one_error_line(tmp_path, capsys, flags):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(nested_requests(2000, "PREPARE-FOOD-1")))
    assert main(["generate", "--tmr", str(path), *flags]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}: verb phrases nested too deeply\n"


@pytest.mark.parametrize("flags, lines", [([], 1800), (["--format", "json", "--top", "1"], 600)],
                         ids=["human", "json"])
def test_a_chain_of_600_nested_requests_dumps_in_either_format(tmp_path, flags, lines):
    path, out = tmp_path / "deep.json", tmp_path / "report"
    path.write_text(json.dumps(nested_requests(600, "PREPARE-FOOD-1")))
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["generate", "--tmr", str(path), "--dump-solutions", "--out", str(out),
                     *flags]) == 0
    assert out.read_text().count("verb-phrase") == lines


def _walk_with_an_agent_cycle() -> dict:
    return {"schema": "ontogen-tmr/1",
            "frames": {"WALK-1": {"AGENT": "HUMAN-104"}, "HUMAN-104": {"AGENT": "WALK-1"}}}


def _fasten_painting_with_a_theme_cycle() -> dict:
    doc = json.loads(fixture_path("fasten_painting").read_text())
    doc["frames"]["PICTURE-7"]["THEME"] = "FASTEN-18"
    return doc


@pytest.mark.parametrize("make, first", [
    (_walk_with_an_agent_cycle, "Tom walks."),
    (_fasten_painting_with_a_theme_cycle, "Tom secured a painting to the wall."),
], ids=["walk", "fasten-painting"])
@pytest.mark.parametrize("fmt", ["human", "json"])
def test_a_case_role_cycle_the_builder_never_follows_generates(tmp_path, capsys, make, first,
                                                                fmt):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(make()))
    assert main(["generate", "--tmr", str(path), "--format", fmt]) == 0
    out, _ = capsys.readouterr()
    if fmt == "json":
        assert json.loads(out)["sentences"][0]["sentence"] == first
    else:
        assert out.splitlines()[0] == f"1. {first}"


@pytest.mark.parametrize("command, frames", [
    ("validate", {"BLORP-1": {}}),
    ("validate", {"ANIMAL-2": {}, "BLORP-1": {}}),
    ("generate", {"ANIMAL-2": {}, "BLORP-1": {}}),
], ids=["validate", "validate-after-an-uncovered-frame", "generate-after-an-uncovered-frame"])
def test_every_frame_concept_is_checked_before_selection(tmp_path, capsys, command, frames):
    """ANIMAL-2 alone exits 2 (no sense covers it); the unknown concept
    after it is still the error reported, by both commands."""
    path = tmp_path / "blorp.json"
    path.write_text(json.dumps({"schema": "ontogen-tmr/1", "frames": frames}))
    assert main([command, "--tmr", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}: BLORP-1: concept BLORP is not in the ontology\n"


def test_malformed_input_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    proc = run_cli("generate", "--tmr", str(bad))
    assert proc.returncode == 1
    assert "error:" in proc.stderr


_INPUT_FILES = {
    "--tmr": fixture_path("moor_ship"),
    "--ontology": KB_DIR / "ontology.json",
    "--lexicon": KB_DIR / "lexicon.json",
    "--memory": KB_DIR / "memory.json",
    "--config": DATA / "config.json",
    "--freq": DATA / "frequency.json",
}


def _with_schema_twice(valid: Path) -> bytes:
    # a document that is valid but for one repeated key
    text = valid.read_text(encoding="utf-8")
    schema = json.dumps(json.loads(text)["schema"])
    return text.replace("{", f'{{"schema": {schema}, ', 1).encode("utf-8")


_MALFORMED = {
    "missing": lambda valid: None,
    "non-utf8": lambda valid: b'{"schema": "\xff"}',
    "invalid-json": lambda valid: b'{"schema": ',
    "duplicate-key": _with_schema_twice,
    "top-level-array": lambda valid: b"[]",
    "wrong-schema": lambda valid: b'{"schema": "ontogen-other/1"}',
}


@pytest.mark.parametrize("flag", list(_INPUT_FILES))
@pytest.mark.parametrize("case", list(_MALFORMED))
def test_every_malformed_input_file_is_a_one_line_error(tmp_path, capsys, flag, case):
    # in-process: an exception escaping main() is what prints a traceback
    path = tmp_path / "input.json"
    content = _MALFORMED[case](_INPUT_FILES[flag])
    if content is not None:
        path.write_bytes(content)
    files = {"--tmr": fixture_path("moor_ship"), flag: path}
    argv = ["generate"] + [str(arg) for pair in files.items() for arg in pair]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {path}: ")


def _tmr_with_frame_id_wall(path: Path) -> list[str]:
    path.write_text(json.dumps({"schema": "ontogen-tmr/1", "frames": {"wall": {}}}))
    return ["generate", "--tmr", str(path)]


def _ontology_with_reversed_range(path: Path) -> list[str]:
    doc = json.loads((KB_DIR / "ontology.json").read_text())
    doc["concepts"]["FASTEN"]["slots"]["AGENT"] = {"sem": {"range": [0.9, 0.1]}}
    path.write_text(json.dumps(doc))
    return ["validate", "--ontology", str(path)]


@pytest.mark.parametrize("command", [_tmr_with_frame_id_wall, _ontology_with_reversed_range],
                         ids=["tmr-frame-id", "ontology-range"])
def test_content_errors_name_their_file(tmp_path, capsys, command):
    path = tmp_path / "input.json"
    assert main(command(path)) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {path}: ")


def _tmr_with_blank_name(path: Path) -> list[str]:
    doc = json.loads(fixture_path("walk_named_agent").read_text())
    doc["frames"]["HUMAN-77"]["HAS-NAME"] = " "
    path.write_text(json.dumps(doc))
    return ["generate", "--tmr", str(path)]


def _memory_with(prop: str, value: str):
    def command(path: Path) -> list[str]:
        doc = json.loads((KB_DIR / "memory.json").read_text())
        doc["instances"]["HUMAN-104"][prop] = value
        path.write_text(json.dumps(doc))
        return ["generate", "--tmr", str(fixture_path("walk_intransitive")),
                "--memory", str(path)]
    return command


@pytest.mark.parametrize("command, problem", [
    (_tmr_with_blank_name, "HAS-NAME must not be blank"),
    (_memory_with("HAS-NAME", "\t "), "HAS-NAME must not be blank"),
    (_memory_with("HAS-NAME", "Tom\nSmith"), "HAS-NAME must be one line, got 'Tom\\nSmith'"),
    (_memory_with("HAS-NAME", " Tom"),
     "HAS-NAME must not begin or end with white space, got ' Tom'"),
    (_memory_with("HAS-NAME", "Tom "),
     "HAS-NAME must not begin or end with white space, got 'Tom '"),
    (_memory_with("GENDER", "Male"), "GENDER must be male or female, got 'Male'"),
    (_memory_with("GENDER", "robot"), "GENDER must be male or female, got 'robot'"),
], ids=["tmr", "memory", "memory-two-line-name", "memory-leading-space", "memory-trailing-space",
        "memory-capital-gender", "memory-unknown-gender"])
def test_a_blank_name_is_rejected_at_load(tmp_path, capsys, command, problem):
    path = tmp_path / "input.json"
    assert main(command(path)) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {path}: ")
    assert problem in err


def _walk_named_agent_with(path: Path, prop: str, value) -> list[str]:
    doc = json.loads(fixture_path("walk_named_agent").read_text())
    doc["frames"]["HUMAN-77"][prop] = value
    path.write_text(json.dumps(doc))
    return ["generate", "--tmr", str(path), "--top", "1"]


@pytest.mark.parametrize("name", ["NASA", "R2-D2", "HAL-9000"])
def test_a_name_shaped_like_an_id_is_still_a_name(tmp_path, capsys, name):
    assert main(_walk_named_agent_with(tmp_path / "input.json", "HAS-NAME", name)) == 0
    assert capsys.readouterr().out == f"1. {name} walked.\n"


@pytest.mark.parametrize("prop, value, problem", [
    ("HAS-NAME", 5, "must be one string"),
    ("HAS-NAME", ["Bob", "Tom"], "must be one string"),
    ("GENDER", 5, "must be one string"),
    ("HAS-NAME", "Tom\nSmith", "must be one line"),
    ("HAS-NAME", " Tom", "must not begin or end with white space"),
    ("HAS-NAME", "Tom ", "must not begin or end with white space"),
    ("GENDER", "Male", "must be male or female"),
    ("GENDER", "robot", "must be male or female"),
], ids=["number-name", "two-names", "number-gender", "two-line-name", "leading-space-name",
        "trailing-space-name", "capital-gender", "unknown-gender"])
def test_a_name_or_gender_that_is_not_one_string_is_an_error(tmp_path, capsys, prop, value,
                                                             problem):
    path = tmp_path / "input.json"
    assert main(_walk_named_agent_with(path, prop, value)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}: HUMAN-77: {prop} {problem}, got {value!r}\n"


def test_a_blank_root_word_is_rejected_at_load(tmp_path, capsys):
    doc = json.loads((KB_DIR / "lexicon.json").read_text())
    walk = next(sense for sense in doc["senses"] if sense["id"] == "walk-v1")
    walk["syn-struc"] += [{"cat": "adv", "var": 9, "root": ["a"]},
                          {"cat": "adv", "var": 8, "root": [" "]}]
    path = tmp_path / "lexicon.json"
    path.write_text(json.dumps(doc))
    argv = ["generate", "--lexicon", str(path), "--tmr", str(fixture_path("walk_intransitive"))]
    assert main(argv) == 1
    assert capsys.readouterr().err == \
        f"error: {path}: walk-v1: syn-struc adv root words must not be blank\n"


@pytest.mark.parametrize("agent, shown", [("HUMAN-2", "HUMAN-2"), ("HUMAN", "HUMAN"),
                                          ("tall", "tall"), (0.5, "0.5")],
                         ids=["instance", "concept", "literal", "scalar"])
def test_an_inverse_that_contradicts_its_role_is_an_error(tmp_path, capsys, agent, shown):
    path = tmp_path / "contradiction.json"
    path.write_text(json.dumps({"schema": "ontogen-tmr/1", "frames": {
        "WALK-1": {"AGENT": agent}, "HUMAN-1": {"AGENT-OF": ["WALK-1"]}}}))
    assert main(["generate", "--tmr", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {path}: WALK-1: AGENT is {shown} "
                   f"but an inverse slot names HUMAN-1\n")


def test_usage_mistakes_exit_1():
    assert run_cli("generate").returncode == 1          # missing --tmr
    assert run_cli("frobnicate").returncode == 1        # unknown subcommand
    assert run_cli("generate", "--tmr", str(fixture_path("moor_ship")),
                   "--format", "yaml").returncode == 1  # bad choice
    for top in ("0", "-8"):
        assert run_cli("generate", "--tmr", str(fixture_path("moor_ship")),
                       "--top", top).returncode == 1


# --- the option table and argparse ------------------------------------------------

_VALUES = ("-8", "0", "3", "yaml", "json", "", "--")


def _argparse_reading(argv: list[str]) -> dict | None:
    """vars() of argparse's namespace for argv, or None where it exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        return None


@st.composite
def _command_lines(draw) -> list[str]:
    """A subcommand (or none, or an unknown one), its required options or
    not, then groups of words built from its options: mostly an option as
    it is used, a switch alone or a flag and a value, else an abbreviation,
    an --opt=value form, an unknown flag or a stray word."""
    command = draw(st.sampled_from([*cli._COMMANDS, "frobnicate", None]))
    if command is None:
        return []
    options = cli._COMMANDS.get(command, cli._COMMANDS["generate"])[2]
    flags = [option.flag for option in options]
    used = st.sampled_from(options).flatmap(
        lambda option: st.just([option.flag]) if option.switch else
        st.sampled_from(_VALUES).map(lambda value: [option.flag, value]))
    other = st.one_of(
        st.tuples(st.sampled_from(flags), st.sampled_from(_VALUES)).map(list),
        st.sampled_from(flags).map(lambda flag: [flag]),
        st.sampled_from([*(flag[:4] for flag in flags), *(f"{flag}=3" for flag in flags),
                         "--tm", "--bogus", "-h", "extra", *_VALUES]).map(lambda word: [word]))
    words = [word for option in options if option.required and draw(st.booleans())
             for word in (option.flag, "3")]
    for group in draw(st.lists(st.one_of(used, used, used, other), max_size=6)):
        words += group
    return [command, *words]


@settings(max_examples=500, deadline=None)
@given(_command_lines())
@example(["generate", "--tmr", "3", "--top", "3", "--format", "json", "--trace", "--top", "0"])
@example(["generate", "--tmr", "", "--dump-solutions", "--dump-solutions"])
@example(["generate", "--tm", "3"])
@example(["generate", "--tmr", "3", "--format", "yaml"])
@example(["generate", "--top", "3"])
@example(["inspect", "--concept", "--"])
@example(["strip", "--tmr", "3", "--out"])
def test_the_plain_reader_reads_as_argparse_does_or_leaves_argv_to_it(argv):
    plain = cli._read_plain(argv)
    if plain is not None:
        assert vars(plain) == _argparse_reading(argv)


@pytest.mark.parametrize("argv", [
    ["generate", "--tmr", "a.json"],
    ["generate", "--format", "json", "--trace", "--tmr", "a.json", "--top", "3", "--top", "2",
     "--dump-solutions", "--config", "c.json", "--freq", "f.json", "--out", "o", "--memory", "m"],
    ["strip", "--out", "b.json", "--tmr", "a.json"],
    ["validate"],
    ["validate", "--ontology", "o.json", "--lexicon", "l.json", "--tmr", "a.json"],
    ["inspect", "--concept", "HUMAN"],
])
def test_a_well_formed_command_line_is_read_from_the_option_table(argv):
    plain = cli._read_plain(argv)
    assert plain is not None
    assert vars(plain) == _argparse_reading(argv)


_REQUIRED = {"generate": ["--tmr", str(fixture_path("moor_ship"))],
             "strip": ["--tmr", str(fixture_path("moor_ship"))],
             "validate": [], "inspect": ["--concept", "HUMAN"]}


@pytest.mark.parametrize("command, flag", [
    *(("generate", flag) for flag in ("--ontology", "--lexicon", "--memory", "--tmr",
                                      "--config", "--freq", "--out")),
    ("strip", "--tmr"), ("strip", "--out"),
    *(("validate", flag) for flag in ("--ontology", "--lexicon", "--memory", "--tmr")),
    *(("inspect", flag) for flag in ("--ontology", "--lexicon", "--memory")),
])
def test_an_empty_path_is_a_usage_error(command, flag):
    proc = run_cli(command, *_REQUIRED[command], flag, "")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"usage: ontogen {command} ")
    assert proc.stderr.endswith(f"ontogen {command}: error: argument {flag}: "
                                "expected a path, got ''\n")


@pytest.mark.parametrize("argv", [
    ["generate", "--tmr", str(fixture_path("moor_ship")), "--format", "json", "--trace",
     "--dump-solutions", "--top", "2"],
    ["strip", "--tmr", str(fixture_path("moor_ship"))],
    ["validate", "--tmr", str(fixture_path("moor_ship"))],
    ["inspect", "--concept", "HUMAN"],
], ids=["generate", "strip", "validate", "inspect"])
def test_a_well_formed_run_loads_neither_argparse_nor_gettext_nor_locale(argv):
    code = ("import sys; from ontogen.cli import main; code = main(sys.argv[1:]); "
            "print('\\nloaded:', *sorted({'argparse', 'gettext', 'locale'} & set(sys.modules))); "
            "sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=cli_env())
    assert proc.returncode == 0
    assert proc.stdout.endswith("\nloaded:\n")


# --- load-time warnings ----------------------------------------------------------

def _tmr_with_warnings(path: Path) -> Path:
    """moor_ship with its AGENT frame gone and an unknown TIME routine."""
    doc = json.loads(fixture_path("moor_ship").read_text())
    del doc["frames"]["HUMAN-30"]
    doc["frames"]["FASTEN-7"]["TIME"] = "(> other-routine)"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("args", [[], ["--trace"], ["--format", "json", "--trace",
                                                   "--dump-solutions"]],
                         ids=["human", "trace", "json"])
def test_a_dangling_agent_reads_as_an_absent_one(tmp_path, capsys, args):
    doc = json.loads(fixture_path("moor_ship").read_text())
    del doc["frames"]["HUMAN-30"]
    dangling = tmp_path / "dangling.json"
    dangling.write_text(json.dumps(doc))
    del doc["frames"]["FASTEN-7"]["AGENT"]
    absent = tmp_path / "absent.json"
    absent.write_text(json.dumps(doc))
    runs = []
    for path in (dangling, absent):
        assert main(["generate", "--tmr", str(path), *args]) == 0
        out, err = capsys.readouterr()
        runs.append((out, [line for line in err.splitlines() if line.startswith("warning:")]))
    (dangling_out, dangling_warnings), (absent_out, absent_warnings) = runs
    assert dangling_out == absent_out
    assert "The ship was moored." in absent_out
    assert dangling_warnings == [f"warning: {dangling}: FASTEN-7 AGENT points outside the TMR"]
    assert absent_warnings == []


@pytest.mark.parametrize("command", ["generate", "strip", "validate"])
def test_tmr_warnings_go_to_stderr_once_each(tmp_path, capsys, kb, command):
    path = _tmr_with_warnings(tmp_path / "tmr.json")
    tmr = parse_tmr_file(path)
    dangling = f"warning: {path}: FASTEN-7 AGENT points outside the TMR"
    time_call = f"warning: {path}: preserving unknown time call (> other-routine)"
    expected = {
        "generate": ("".join(f"{s.rank}. {s.sentence}\n" for s in generate(tmr, kb).sentences[:5]),
                     [dangling]),
        "strip": (serialize_tmr(strip_metadata(tmr)), [dangling, time_call]),
        "validate": ("ok: ontology 27 concepts\nok: lexicon 33 senses\n"
                     "ok: memory 8 instances\nok: tmr 3 frames\n", [dangling]),
    }
    assert main([command, "--tmr", str(path)]) == 0
    out, err = capsys.readouterr()
    assert (out, [line for line in err.splitlines() if line.startswith("warning:")]) \
        == expected[command]


def test_kb_warnings_go_to_stderr_and_stay_in_the_validate_report(tmp_path, capsys):
    onto = tmp_path / "ontology.json"
    doc = json.loads((KB_DIR / "ontology.json").read_text())
    doc["concepts"]["FASTEN"]["slots"]["THEME"] = {"sem": "PHYSICAL-OBJECT", "default": "EVENT"}
    onto.write_text(json.dumps(doc))
    message = "FASTEN.THEME: default facet does not narrow the sem facet"
    assert main(["validate", "--ontology", str(onto)]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == f"warning: {message}"
    assert err == f"warning: {onto}: {message}\n"
    main(["generate", "--ontology", str(onto), "--tmr", str(fixture_path("moor_ship"))])
    assert capsys.readouterr().err.splitlines()[0] == f"warning: {onto}: {message}"


# --- strip ------------------------------------------------------------------------

def test_strip_drops_metadata_but_keeps_the_meaning(tmp_path):
    source = fixture_path("fasten_painting_nlu")
    proc = run_cli("strip", "--tmr", str(source))
    assert proc.returncode == 0
    stripped = parse_tmr(proc.stdout)
    original = parse_tmr(source.read_text())
    ok, _ = tmr_isomorphic(stripped, original)
    assert ok
    assert "metadata" not in proc.stdout
    assert proc.stdout == serialize_tmr(strip_metadata(original))


def test_strip_is_idempotent(tmp_path):
    first = run_cli("strip", "--tmr", str(fixture_path("fasten_painting_nlu")))
    again_path = tmp_path / "stripped.json"
    again_path.write_text(first.stdout)
    second = run_cli("strip", "--tmr", str(again_path))
    assert second.stdout == first.stdout


# --- validate ----------------------------------------------------------------------

def test_validate_reports_bundled_kb_counts():
    proc = run_cli("validate")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert "ok: ontology 27 concepts" in lines
    assert "ok: lexicon 33 senses" in lines
    assert "ok: memory 8 instances" in lines


def test_validate_checks_a_tmr_too():
    proc = run_cli("validate", "--tmr", str(fixture_path("fasten_painting")))
    assert proc.returncode == 0
    assert "ok: tmr 4 frames" in proc.stdout.splitlines()


def test_validate_rejects_a_cyclic_ontology(tmp_path):
    onto = tmp_path / "ontology.json"
    onto.write_text(json.dumps({
        "schema": "ontogen-kb/1", "kind": "ontology",
        "concepts": {"ALL": {"parents": []},
                     "A": {"parents": ["B"]},
                     "B": {"parents": ["A"]}}}))
    proc = run_cli("validate", "--ontology", str(onto))
    assert proc.returncode == 1
    assert "cycle" in proc.stderr.lower()


# --- inspect -----------------------------------------------------------------------

def test_inspect_shows_ancestry_constraints_and_senses():
    proc = run_cli("inspect", "--concept", "FASTEN")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "concept: FASTEN"
    assert lines[1].startswith("is-a: FASTEN -> ")
    assert lines[1].endswith(" -> ALL")
    body = proc.stdout
    assert "moor-v1" in body
    assert "narrowed to" in body
    assert "synonyms: " in body


def test_inspect_lists_every_sense_a_concept_heads_modifiers_included():
    proc = run_cli("inspect", "--concept", "OBJECT")
    assert proc.returncode == 0
    assert [line.split()[0] for line in proc.stdout.splitlines()[3:]] == [
        "attractive-adj1", "blue-adj1", "funny-adj1", "lovely-adj1", "pretty-adj1"]


def test_inspect_unknown_concept_exits_1():
    proc = run_cli("inspect", "--concept", "ZEPPELIN")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: unknown concept 'ZEPPELIN'\n"


# --- write failures ----------------------------------------------------------------

@pytest.mark.parametrize("command, target, code", [
    ("generate", Path("missing") / "x.json", errno.ENOENT),
    ("strip", Path("."), errno.EISDIR),
], ids=["missing-directory", "a-directory"])
def test_an_out_file_that_cannot_be_written_is_a_one_line_error(tmp_path, command, target,
                                                                 code):
    out = tmp_path / target
    proc = run_cli(command, "--tmr", str(fixture_path("moor_ship")), "--out", str(out))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: {out}: cannot write file: {os.strerror(code)}\n"


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["generate", "--tmr", str(fixture_path("fasten_painting_nlu")), "--format", "json",
     "--trace", "--dump-solutions", "--top", "1000000"],
], ids=["short-report", "long-report"])
def test_a_closed_stdout_pipe_is_a_one_line_error(argv):
    # a short report fails when it is flushed, a long one when it is written
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_cli(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == f"error: <stdout>: cannot write file: {os.strerror(errno.EPIPE)}\n"


# --- console script ------------------------------------------------------------------

def test_console_script_is_installed():
    exe = shutil.which("ontogen")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    proc = subprocess.run([exe, "validate"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ok: ontology" in proc.stdout


def test_the_console_script_runs_the_process_entry_point():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    assert re.findall(r'^(\S+)\s*=\s*"([^"]*)"', scripts.group(1), re.M) == \
        [("ontogen", "ontogen.cli:run")]
    code = "import sys; from ontogen.cli import run; sys.argv[0] = 'ontogen'; run()"
    proc = subprocess.run([sys.executable, "-c", code, "validate"], capture_output=True,
                          text=True, env=cli_env())
    assert proc.returncode == 0
    assert "ok: ontology" in proc.stdout

"""End-to-end command line behavior via subprocess."""
from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import pytest

from conftest import DATA, KB_DIR, fixture_path, run_cli
from ontogen import parse_tmr, strip_metadata, serialize_tmr, tmr_isomorphic
from ontogen.cli import main


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


def test_usage_mistakes_exit_1():
    assert run_cli("generate").returncode == 1          # missing --tmr
    assert run_cli("frobnicate").returncode == 1        # unknown subcommand
    assert run_cli("generate", "--tmr", str(fixture_path("moor_ship")),
                   "--format", "yaml").returncode == 1  # bad choice
    for top in ("0", "-8"):
        assert run_cli("generate", "--tmr", str(fixture_path("moor_ship")),
                       "--top", top).returncode == 1


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


def test_inspect_unknown_concept_exits_1():
    proc = run_cli("inspect", "--concept", "ZEPPELIN")
    assert proc.returncode == 1
    assert "unknown concept" in proc.stderr


# --- console script ------------------------------------------------------------------

def test_console_script_is_installed():
    exe = shutil.which("ontogen")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    proc = subprocess.run([exe, "validate"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ok: ontology" in proc.stdout

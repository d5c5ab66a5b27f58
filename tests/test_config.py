"""Scoring configuration: parsing, validation, and effect on a run."""
from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from conftest import DATA, fixture_path, load_fixture, run_cli
from ontogen import GenerationConfig, SchemaError, engine, generate, load_config
from ontogen.config import check_config, parse_config


def test_the_bundled_sample_spells_out_the_defaults():
    assert load_config(DATA / "config.json") == GenerationConfig()


def test_any_subset_of_keys_overrides_just_those():
    cfg = parse_config(json.dumps({"schema": "ontogen-config/1",
                                   "narrow-bonus": 7, "set-cap": 3}))
    assert cfg.narrow_bonus == 7.0
    assert cfg.set_cap == 3
    assert cfg.exact_bonus == GenerationConfig().exact_bonus


@pytest.mark.parametrize("doc,match", [
    ({}, "schema"),
    ({"schema": "ontogen-config/2"}, "schema"),
    ({"schema": "ontogen-config/1", "exactbonus": 1}, "unknown config key"),
    ({"schema": "ontogen-config/1", "exact-bonus": True}, "must be a number"),
    ({"schema": "ontogen-config/1", "set-cap": 0}, "set-cap"),
    ({"schema": "ontogen-config/1", "feature-tolerance": 0}, "feature-tolerance"),
    ({"schema": "ontogen-config/1", "exact-bonus": math.nan}, "NaN is not JSON"),
    ({"schema": "ontogen-config/1", "set-cap": math.inf}, "Infinity is not JSON"),
    ({"schema": "ontogen-config/1", "set-cap": 2.5}, "set-cap must be an integer, got 2.5"),
    ({"schema": "ontogen-config/1", "exact-bonus": 10 ** 400}, "outside the float range"),
], ids=["no-schema", "wrong-version", "unknown-key", "boolean", "cap", "tolerance",
        "nan", "infinity", "fractional-cap", "huge-integer"])
def test_invalid_documents_are_rejected(doc, match):
    with pytest.raises(SchemaError, match=match):
        parse_config(json.dumps(doc))


@pytest.mark.parametrize("text,match", [
    ('{"schema": "ontogen-config/1", "set-cap": 3, "set-cap": 4}', "duplicate key 'set-cap'"),
    ('{"schema": "ontogen-config/1", "set-cap": ' + "[" * 5000 + "]" * 5000 + "}",
     "nested too deeply"),
    ('{"schema": "ontogen-config/1", "exact-bonus": 1e400}', "number 1e400 is outside"),
    ('{"schema": "ontogen-config/1", "set-cap": 1e400}', "number 1e400 is outside"),
], ids=["duplicate-key", "deep-nesting", "huge-bonus", "huge-cap"])
def test_config_text_must_be_strict_json(text, match):
    with pytest.raises(SchemaError, match=match):
        parse_config(text)


@pytest.mark.parametrize("fixture, fields, message", [
    ("request_blunt", {"feature_bonus": math.inf},
     "feature-bonus must be a finite number, got inf"),
    ("request_blunt", {"feature_tolerance": 0.0}, "feature-tolerance must be positive"),
    ("fasten_painting", {"set_cap": 0}, "set-cap must be at least 1"),
    ("fasten_painting", {"set_cap": 2.5}, "set-cap must be an integer, got 2.5"),
    ("fasten_painting", {"exact_bonus": "20"}, "exact-bonus must be a number, got '20'"),
    ("fasten_painting", {"pipeline_weight": math.nan},
     "pipeline-weight must be a finite number, got nan"),
], ids=["infinite-bonus", "zero-tolerance", "zero-cap", "fractional-cap", "string-bonus",
        "nan-weight"])
def test_a_config_built_in_code_obeys_the_file_rules(kb, fixture, fields, message):
    with pytest.raises(SchemaError) as caught:
        generate(load_fixture(fixture), kb, config=GenerationConfig(**fields))
    assert str(caught.value) == message


@pytest.mark.parametrize("fields, key", [
    ({"exact_bonus": 10 ** 400}, "exact-bonus"),
    ({"exact_bonus": "x" * 500}, "exact-bonus"),
    ({"set_cap": [0] * 300}, "set-cap"),
    ({"exact_bonus": 10 ** 5000}, "exact-bonus"),
    ({"set_cap": 10 ** 5000}, "set-cap"),
], ids=["huge-integer", "long-string", "long-list", "unprintable-integer", "unprintable-cap"])
def test_a_rejected_value_is_quoted_short(fields, key):
    with pytest.raises(SchemaError) as caught:
        check_config(GenerationConfig(**fields))
    message = str(caught.value)
    assert message.startswith(f"{key} must be ") and len(message) < 100


def test_cli_config_flag_changes_the_run(tmp_path):
    # fasten_painting has 4 surviving sets; a cap of 3 truncates them
    cap = tmp_path / "capped.json"
    cap.write_text(json.dumps({"schema": "ontogen-config/1", "set-cap": 3}))
    proc = run_cli("generate", "--tmr", str(fixture_path("fasten_painting")),
                   "--config", str(cap))
    assert proc.returncode == 0
    assert any(line.startswith("note: ") and "cap 3" in line
               for line in proc.stderr.splitlines())

    stretched = tmp_path / "stretched.json"
    stretched.write_text(json.dumps({"schema": "ontogen-config/1",
                                     "length-tie-break": 0.5}))
    proc = run_cli("generate", "--tmr", str(fixture_path("fasten_painting")),
                   "--config", str(stretched))
    lines = proc.stdout.splitlines()
    # the shorter noun now wins the tie
    assert lines[0] == "1. Tom secured a picture to the wall."


def test_cli_rejects_a_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "ontogen-config/1", "set-cap": -1}))
    proc = run_cli("generate", "--tmr", str(fixture_path("moor_ship")),
                   "--config", str(bad))
    assert proc.returncode == 1
    assert "set-cap" in proc.stderr


def test_a_config_is_an_immutable_hashable_value():
    cfg = GenerationConfig()
    with pytest.raises(AttributeError):
        cfg.set_cap = 3
    assert cfg == GenerationConfig() != cfg._replace(set_cap=3)
    assert len({cfg, GenerationConfig(), cfg._replace(set_cap=3)}) == 2


def test_the_default_config_is_checked_once_and_a_callers_on_every_call(kb, monkeypatch):
    checked = []
    monkeypatch.setattr(engine, "check_config", lambda config: checked.append(config) or config)
    tmr = load_fixture("request_blunt")
    assert engine.DEFAULT_CONFIG == GenerationConfig()
    default = generate(tmr, kb)
    assert checked == []
    own = GenerationConfig(exact_bonus=21.0)
    generate(tmr, kb, config=own)
    generate(tmr, kb, config=own)
    assert checked == [own, own]
    explicit = generate(tmr, kb, config=GenerationConfig())
    assert [(s.sentence, s.total) for s in explicit.sentences] == \
        [(s.sentence, s.total) for s in default.sentences]

"""Shared fixtures: bundled knowledge base, TMR fixtures, and tiny KB builder."""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ontogen
from ontogen import (
    GenerationConfig,
    KnowledgeBase,
    bundled_frequency,
    bundled_morphology,
    load_knowledge_base,
    parse_tmr_file,
)

DATA = Path(__file__).resolve().parents[1] / "src" / "ontogen" / "data"
KB_DIR = DATA / "kb"
TMR_DIR = DATA / "tmr"


@pytest.fixture(scope="session")
def kb() -> KnowledgeBase:
    return load_knowledge_base(KB_DIR / "ontology.json", KB_DIR / "lexicon.json",
                               KB_DIR / "memory.json")


@pytest.fixture(scope="session")
def config() -> GenerationConfig:
    return GenerationConfig()


@pytest.fixture(scope="session")
def freq():
    return bundled_frequency()


@pytest.fixture(scope="session")
def morph():
    return bundled_morphology()


def fixture_path(name: str) -> Path:
    return TMR_DIR / f"{name}.json"


def load_fixture(name: str):
    return parse_tmr_file(fixture_path(name))


def cli_env() -> dict[str, str]:
    """An environment in which a child process imports the ontogen this test run imported."""
    paths = (str(Path(ontogen.__file__).parents[1]), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    # stdout buffered, as by default: a report the process does not flush is lost
    env.pop("PYTHONUNBUFFERED", None)
    return env


def run_cli(*argv, stdin=None, stdout=subprocess.PIPE, text=True):
    """`python -m ontogen.cli` with the same ontogen this test run imported."""
    return subprocess.run([sys.executable, "-m", "ontogen.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=text, input=stdin, env=cli_env())


@pytest.fixture
def tmr_fixture():
    return load_fixture


def sentences_of(report) -> list[str]:
    return [s.sentence for s in report.sentences]


def make_kb(tmp_path: Path, ontology: dict | None = None, lexicon: dict | None = None,
            memory: dict | None = None) -> KnowledgeBase:
    """Write three KB documents under tmp_path and load them."""
    docs = {
        "ontology.json": {"schema": "ontogen-kb/1", "kind": "ontology",
                          "concepts": {}, **(ontology or {})},
        "lexicon.json": {"schema": "ontogen-kb/1", "kind": "lexicon",
                         "senses": [], **(lexicon or {})},
        "memory.json": {"schema": "ontogen-kb/1", "kind": "memory",
                        "instances": {}, **(memory or {})},
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc, indent=2))
    return load_knowledge_base(tmp_path / "ontology.json", tmp_path / "lexicon.json",
                               tmp_path / "memory.json")


_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one pass/fail line per acceptance criterion after the run."""
    rows: dict[int, tuple[str, str]] = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            match = _CRITERION.search(nodeid)
            if not match:
                continue
            number = int(match.group(1))
            verdict = "pass" if status == "passed" else "fail"
            if number not in rows or verdict == "fail":
                rows[number] = (verdict, nodeid.split("::")[-1])
    if not rows:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(rows):
        verdict, name = rows[number]
        terminalreporter.write_line(f"criterion {number}: {verdict}  ({name})")

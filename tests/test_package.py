"""The package's public surface."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import ontogen

PUBLIC = [
    "generate", "RunReport", "ScoredSentence",
    "GenerationConfig", "load_config",
    "KnowledgeBase", "load_knowledge_base",
    "Tmr", "parse_tmr", "parse_tmr_file", "serialize_tmr", "strip_metadata", "tmr_isomorphic",
    "FrequencyTable", "bundled_frequency", "load_frequency",
    "MorphTables", "bundled_morphology", "load_morphology",
    "OntogenError", "SchemaError", "KbValidationError", "TmrError", "MalformedInstanceId",
    "NoRealizableSense", "AllSetsPruned", "EmptySolution",
]


def test_all_is_the_public_surface_and_every_name_resolves():
    assert sorted(ontogen.__all__) == sorted(PUBLIC)
    assert len(ontogen.__all__) == len(set(ontogen.__all__)) == 27
    for name in ontogen.__all__:
        assert getattr(ontogen, name) is not None, name


def test_importing_the_cli_loads_neither_dataclasses_nor_logging():
    """A fresh `import ontogen.cli` adds none of these modules; whatever the
    interpreter's start-up already loaded does not count."""
    src = Path(ontogen.__file__).parents[1]
    probe = ("import json, sys\n"
             "before = set(sys.modules)\n"
             "import ontogen.cli\n"
             "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    added = set(json.loads(proc.stdout))
    assert "ontogen.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "logging"})

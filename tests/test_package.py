"""The package's public surface."""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import ontogen
from ontogen.realizer import parse_morphology
from ontogen.selector import parse_frequency

PUBLIC = [
    "generate", "RunReport", "ScoredSentence",
    "GenerationConfig", "load_config",
    "KnowledgeBase", "load_knowledge_base",
    "Tmr", "parse_tmr", "parse_tmr_file", "serialize_tmr", "strip_metadata", "tmr_isomorphic",
    "FrequencyTable", "bundled_frequency", "load_frequency",
    "MorphTables", "bundled_morphology", "load_morphology",
    "OntogenError", "SchemaError", "KbValidationError", "TmrError", "MalformedInstanceId",
    "NoRealizableSense", "AllSetsPruned",
]


def test_all_is_the_public_surface_and_every_name_resolves():
    assert sorted(ontogen.__all__) == sorted(PUBLIC)
    assert len(ontogen.__all__) == len(set(ontogen.__all__)) == 26
    for name in ontogen.__all__:
        assert getattr(ontogen, name) is not None, name


def _names(node: ast.AST) -> Counter:
    """How often each name is read, imported or looked up as an attribute
    inside node."""
    names: Counter = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names[child.id] += 1
        elif isinstance(child, ast.Attribute):
            names[child.attr] += 1
        elif isinstance(child, ast.alias):
            names[child.asname or child.name] += 1
    return names


def test_every_module_level_function_and_class_is_used_by_the_library():
    """A function or class defined at module level is public, or named
    somewhere in the package outside its own definition, and so is every
    method but a dunder: the library holds no code that only tests call."""
    trees = [ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(Path(ontogen.__file__).parent.glob("*.py"))]
    named = sum((_names(tree) for tree in trees), Counter())
    defined = [node for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    methods = [method for node in defined if isinstance(node, ast.ClassDef)
               for method in node.body
               if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not method.name.startswith("__")]
    unused = [node.name for node in defined if node.name not in ontogen.__all__
              and named[node.name] == _names(node)[node.name]]
    unused += [method.name for method in methods
               if named[method.name] == _names(method)[method.name]]
    assert unused == []


def _modules_added(probe: str) -> set[str]:
    """The modules a fresh interpreter loads while it runs probe after
    `import json, sys`; whatever its start-up already loaded does not count."""
    src = Path(ontogen.__file__).parents[1]
    script = ("import json, sys\n"
              "before = set(sys.modules)\n"
              f"{probe}\n"
              "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_importing_the_cli_loads_neither_dataclasses_nor_logging_nor_datetime():
    added = _modules_added("import ontogen.cli")
    assert "ontogen.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "logging", "datetime"})


def test_no_module_generates_a_class_when_it_is_imported():
    """typing.NamedTuple, collections.namedtuple and enum compile or build
    per class at import; records subclass record.Record instead, and the
    one enum left is tmr.RelativeTime."""
    def tail(node: ast.AST) -> str | None:  # Name.id, or the last part of a dotted name
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    generated, enums = [], []
    for path in sorted(Path(ontogen.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ClassDef):
                bases = {tail(base) for base in node.bases}
                if bases & {"NamedTuple", "IntEnum", "IntFlag", "Flag"}:
                    generated.append(f"{path.stem}.{node.name}")
                if "Enum" in bases:
                    enums.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.Call) and tail(node.func) in ("namedtuple", "NamedTuple"):
                generated.append(f"{path.stem}:{node.lineno}")
    assert generated == []
    assert enums == ["tmr.RelativeTime"]


@pytest.mark.parametrize("fixture, dated", [("walk_transitive", False), ("request_blunt", False),
                                            ("fasten_painting", True)])
def test_datetime_is_loaded_only_for_a_meaning_with_a_date(fixture, dated):
    path = Path(ontogen.__file__).parent / "data" / "tmr" / f"{fixture}.json"
    added = _modules_added(f"import ontogen.cli\n"
                           f"ontogen.cli.main(['generate', '--tmr', {str(path)!r}])")
    assert ("datetime" in added) == dated


def _kb_kind_mismatch(tmp_path: Path) -> None:
    kb_dir = Path(ontogen.__file__).parent / "data" / "kb"
    lexicon = tmp_path / "lexicon.json"
    lexicon.write_bytes((kb_dir / "ontology.json").read_bytes())
    ontogen.load_knowledge_base(kb_dir / "ontology.json", lexicon, kb_dir / "memory.json")


def _tmr_at(reference_time: str):
    text = json.dumps({"schema": "ontogen-tmr/1", "reference-time": reference_time,
                       "frames": {"WALK-1": {}}})
    return lambda tmp_path: ontogen.parse_tmr(text, "t.json")


# (what reads the document, given tmp_path; the error's class; its full text,
# with {tmp_path} for that directory)
_DOCUMENT_ERRORS = {
    "kb-kind": (_kb_kind_mismatch, ontogen.SchemaError,
                '{tmp_path}/lexicon.json: expected kind "lexicon", got \'ontology\''),
    "morphology-table": (lambda tmp_path: parse_morphology(
        {"schema": "ontogen-morph/1", "irregular-verbs": []}),
        ontogen.SchemaError, "<morphology>: irregular-verbs must be an object"),
    "frequency-values": (lambda tmp_path: parse_frequency(
        {"schema": "ontogen-freq/1", "values": []}),
        ontogen.SchemaError, "<frequency>: values must be an object"),
    "reference-time-word": (_tmr_at("05.01.2021 noon"), ontogen.TmrError,
                            "t.json: bad reference-time '05.01.2021 noon'"),
    "reference-time-clock-only": (_tmr_at("09:05"), ontogen.TmrError,
                                  "t.json: reference-time needs a date: '09:05'"),
}


@pytest.mark.parametrize("case", list(_DOCUMENT_ERRORS))
def test_a_document_error_keeps_its_class_and_its_text(tmp_path, case):
    read, error, text = _DOCUMENT_ERRORS[case]
    with pytest.raises(ontogen.OntogenError) as caught:
        read(tmp_path)
    assert type(caught.value) is error
    assert str(caught.value) == text.format(tmp_path=tmp_path)


# the functions that may name a document or an error class: the public
# parsers, which open a document's boundary, the boundary itself, what
# carries a source, and the CLI's warning printer
_NAMING = {"parse_config", "parse_frequency", "parse_morphology", "parse_tmr",
           "reading.__init__", "SchemaError.__init__", "Tmr.__init__", "_warn"}


def test_only_the_boundary_names_a_document():
    """No function below a document's boundary (strictjson.reading) takes
    a source or an error class: the boundary names the file for them."""
    naming = set()
    for path in sorted(Path(ontogen.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        owner = {child: f"{node.name}." for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for child in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                arguments = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                if {"source", "error"} & {argument.arg for argument in arguments}:
                    naming.add(owner.get(node, "") + getattr(node, "name", "<lambda>"))
    assert naming == _NAMING


def test_selection_grades_only_through_the_load_time_tables():
    """pipeline.py imports, reads or looks up none of the functions that
    work out a degree, so semantic pruning reads each slot's grade from its
    sense's program."""
    path = Path(ontogen.__file__).parent / "pipeline.py"
    named = _names(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    assert named["Grade"] and named["program"]
    assert not {"match_degree", "effective_sem", "_strictly_tighter"} & set(named)

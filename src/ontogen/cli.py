"""Batch command-line front end.

Four subcommands: generate (TMR to ranked sentences), strip (drop analyzer
metadata from a TMR), validate (load-time invariant checks), inspect
(show a concept with its constraints and senses). Exit codes are stable:
0 success, 1 input or schema error or a report that cannot be written,
2 inexpressible meaning. All report content goes to standard output and
is byte-stable for fixed inputs; timing and load-time warnings go to
standard error.

`run()` is the process entry point (`ontogen`, `python -m ontogen.cli`):
it ends the process without interpreter teardown once the output is
flushed. `main()` returns its exit code to a Python caller.

Each subcommand's options are declared once, in _COMMANDS. main() reads a
well-formed command line straight from that table; argparse, built from
the same table, is imported only for any other command line, so help,
usage and every usage error are argparse's own.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, NoReturn

from .config import load_config
from .engine import RunReport, generate
from .errors import AllSetsPruned, NoRealizableSense, OntogenError
from .knowledge import FacetedConstraint, VarBinding, constraint_text, load_knowledge_base
from .pipeline import TraceRecord, check_concepts
from .record import Record, tuple_new
from .selector import bundled_frequency, load_frequency
from .solution import Constituent
from .strictjson import encode
from .tmr import parse_tmr_file, serialize_tmr, strip_metadata

if TYPE_CHECKING:
    import argparse
    from collections.abc import Callable, Iterator

_DATA = Path(__file__).parent / "data"


def _at_least_one(text: str) -> int:
    """An integer of at least 1, for --top; a ValueError words the rejection."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"expected an integer >= 1, got {text!r}")
    return value


def _path(text: str) -> str:
    """A path, which must not be empty; a ValueError words the rejection."""
    if not text:
        raise ValueError(f"expected a path, got {text!r}")
    return text


def _num(value: float):
    value = round(value, 6)
    return int(value) if value == int(value) else value


# ---------------------------------------------------------------------------
# rendering

def _facet_text(facet: FacetedConstraint) -> str:
    parts = []
    if facet.sem is not None:
        parts.append(f"sem {constraint_text(facet.sem)}")
    if facet.default is not None:
        parts.append(f"default {constraint_text(facet.default)}")
    return ", ".join(parts) or "anything"


def _trace_line(record: TraceRecord) -> str:
    return f"trace: {record.stage} {record.subject} {record.rule} {record.note}".rstrip()


def _render_human(report: RunReport, top: int, trace: bool, dump: bool) -> list[str]:
    shown = report.sentences[:top]
    lines = [f"{s.rank}. {s.sentence}" for s in shown]
    if trace:
        for s in shown:
            lines.append("")
            lines.append(f"ledger {s.rank} (total {_num(s.total)}): {s.signature}")
            for name, value in s.terms:
                lines.append(f"  term {name} {_num(value):+}")
            for unit, entry in s.ledger:
                line = f"  {unit} {entry.rule} {_num(entry.delta):+}"
                if entry.note:
                    line += f" {entry.note}"
                lines.append(line)
        if report.trace:
            lines.append("")
            lines.append("excluded:")
            lines.extend("  " + _trace_line(r) for r in report.trace)
    if dump:
        for s in shown:
            lines.append("")
            lines.append(f"solution {s.rank}:")
            for depth, node in _preorder(s.solution.root):
                head = f"{'  ' * depth}  {node.function}"
                if node.is_leaf:
                    head += f" {node.lemma}"
                lines.append(head + _features_text(node))
    return lines


def _features(node: Constituent) -> dict:
    """The node's set features by their printed names, in printed order."""
    feats = node.features
    out = {}
    if feats.tense is not None:
        out["tense"] = feats.tense
    if feats.verb_form is not None:
        out["form"] = feats.verb_form
    if feats.number is not None:
        out["number"] = feats.number
    if feats.person is not None:
        out["person"] = feats.person
    if feats.case is not None:
        out["case"] = feats.case
    return out


def _features_text(node: Constituent) -> str:
    parts = [f"{name}={value}" for name, value in _features(node).items()]
    if node.proper:
        parts.append("proper")
    if node.pronoun:
        parts.append("pronoun")
    return f" [{', '.join(parts)}]" if parts else ""


def _preorder(root: Constituent) -> Iterator[tuple[int, Constituent]]:
    """(depth, node) for root and every node below it, in pre-order, root
    at depth 0. The nodes above the one visited wait on a stack of its own,
    not on the call stack, so a tree may be as deep as generation reaches."""
    yield 0, root
    stack = [iter(root.children)]  # the children left at each depth
    while stack:
        for node in stack[-1]:
            yield len(stack), node
            if node.children:
                stack.append(iter(node.children))
                break
        else:
            stack.pop()


def _tree_json(root: Constituent) -> dict:
    siblings: list[list] = [[]]  # siblings[d] takes the next node at depth d
    for depth, node in _preorder(root):
        out: dict = {"function": node.function}
        if node.is_leaf:
            out["lemma"] = node.lemma
        feats = _features(node)
        if feats:
            out["features"] = feats
        if node.proper:
            out["proper"] = True
        if node.pronoun:
            out["pronoun"] = True
        siblings[depth].append(out)
        if node.children:
            out["children"] = children = []
            siblings[depth + 1:depth + 2] = [children]
    return siblings[0][0]


def _render_json(report: RunReport, top: int, trace: bool, dump: bool) -> str:
    doc: dict = {
        "sentences": [
            {
                "rank": s.rank,
                "sentence": s.sentence,
                "total": _num(s.total),
                "terms": {name: _num(value) for name, value in s.terms},
                "set": s.signature,
                "ledger": [
                    {"unit": unit, "rule": entry.rule, "delta": _num(entry.delta),
                     "note": entry.note}
                    for unit, entry in s.ledger
                ],
            }
            for s in report.sentences[:top]
        ],
        "counts": report.counts,
        "messages": report.messages,
    }
    if trace:
        doc["trace"] = [
            {"stage": r.stage, "subject": r.subject, "rule": r.rule, "note": r.note}
            for r in report.trace
        ]
    if dump:
        doc["solutions"] = [
            {"rank": s.rank, "mood": s.solution.mood, "tense": s.solution.tense,
             "voice": s.solution.voice, "tree": _tree_json(s.solution.root)}
            for s in report.sentences[:top]
        ]
    return encode(doc)


def _warn(source: str, warnings: list[str]) -> None:
    for message in warnings:
        print(f"warning: {source}: {message}", file=sys.stderr)


class _WriteError(OntogenError):
    def __init__(self, target: str, exc: OSError):
        super().__init__(f"{target}: cannot write file: {exc.strerror or exc}")


def _emit(text: str, out_path: str | None) -> None:
    """Write the report to out_path, or to stdout and flush it there."""
    try:
        if out_path:
            Path(out_path).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        raise _WriteError(out_path or "<stdout>", exc) from None


# ---------------------------------------------------------------------------
# subcommands

def cmd_generate(args) -> int:
    kb = load_knowledge_base(args.ontology, args.lexicon, args.memory)
    _warn(args.ontology, kb.warnings)
    tmr = parse_tmr_file(args.tmr)
    _warn(tmr.source, tmr.warnings)
    config = load_config(args.config) if args.config else None
    freq = load_frequency(args.freq) if args.freq else bundled_frequency()
    started = time.perf_counter()
    report = generate(tmr, kb, config=config, freq=freq)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if args.format == "json":
        text = _render_json(report, args.top, args.trace, args.dump_solutions) + "\n"
    else:
        text = "\n".join(_render_human(report, args.top, args.trace,
                                       args.dump_solutions)) + "\n"
    _emit(text, args.out)
    for message in report.messages:
        print(f"note: {message}", file=sys.stderr)
    print(f"timing: generate {elapsed_ms:.1f} ms", file=sys.stderr)
    return 0


def cmd_strip(args) -> int:
    tmr = parse_tmr_file(args.tmr)
    stripped = strip_metadata(tmr)
    _warn(tmr.source, tmr.warnings + stripped.warnings)
    _emit(serialize_tmr(stripped), args.out)
    return 0


def cmd_validate(args) -> int:
    kb = load_knowledge_base(args.ontology, args.lexicon, args.memory)
    _warn(args.ontology, kb.warnings)
    lines = [f"warning: {warning}" for warning in kb.warnings]
    lines.append(f"ok: ontology {len(kb.ontology.concepts)} concepts")
    lines.append(f"ok: lexicon {len(kb.lexicon.senses)} senses")
    lines.append(f"ok: memory {len(kb.memory.instances)} instances")
    if args.tmr:
        tmr = parse_tmr_file(args.tmr)
        _warn(tmr.source, tmr.warnings)
        check_concepts(tmr, kb)
        lines.append(f"ok: tmr {len(tmr.frames)} frames")
    _emit("\n".join(lines) + "\n", None)
    return 0


def cmd_inspect(args) -> int:
    kb = load_knowledge_base(args.ontology, args.lexicon, args.memory)
    _warn(args.ontology, kb.warnings)
    concept = args.concept
    if not kb.ontology.exists(concept):
        raise OntogenError(f"unknown concept {concept!r}")
    lines = [f"concept: {concept}",
             "is-a: " + " -> ".join(kb.ontology.ancestors(concept))]
    declared = kb.ontology.concepts[concept].slots
    if declared:
        lines.append("slots:")
        for prop in sorted(declared):
            lines.append(f"  {prop}: {_facet_text(declared[prop])}")
    lines.append("senses:")
    for _, sense in sorted(kb.lexicon.senses.items()):
        if sense.sem_struc.head != concept:
            continue
        parts = []
        for prop, slot in sense.sem_struc.slots.items():
            if isinstance(slot, VarBinding):
                text = f"{prop} <- $var{slot.var}"
                if slot.override is not None:
                    text += f" narrowed to {_facet_text(slot.override)}"
            elif isinstance(slot, float):
                text = f"{prop} = {_num(slot)}"
            else:
                text = f"{prop} = {constraint_text(slot)}"
            parts.append(text)
        summary = "; ".join(parts) if parts else "no slots"
        lines.append(f"  {sense.id} \"{sense.headword}\" ({sense.pos}): {summary}")
        if sense.synonyms:
            lines.append(f"    synonyms: {', '.join(sense.synonyms)}")
    _emit("\n".join(lines) + "\n", None)
    return 0


# ---------------------------------------------------------------------------

class _Option(Record):
    """One option of a subcommand, as argparse declares it. A switch takes
    no value and is True when given; any other option takes one value,
    which type (a function whose ValueError rejects it) converts or choices
    must hold."""
    __slots__ = ()

    def __new__(cls, flag: str, help: str | None = None, default: object = None,
                type: Callable[[str], object] | None = None,
                choices: tuple[str, ...] | None = None, required: bool = False,
                switch: bool = False):
        return tuple_new(cls, (flag, help, default, type, choices, required, switch))

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


_KB_OPTIONS = (
    _Option("--ontology", "ontology JSON (default: bundled)",
            default=str(_DATA / "kb" / "ontology.json"), type=_path),
    _Option("--lexicon", "lexicon JSON (default: bundled)",
            default=str(_DATA / "kb" / "lexicon.json"), type=_path),
    _Option("--memory", "episodic memory JSON (default: bundled)",
            default=str(_DATA / "kb" / "memory.json"), type=_path),
)

# each subcommand's help, function and options, in the order help lists them
_COMMANDS = {
    "generate": ("generate ranked sentences from a TMR", cmd_generate, (
        *_KB_OPTIONS,
        _Option("--tmr", "meaning representation JSON", type=_path, required=True),
        _Option("--config", "scoring config JSON (default: built-in values)", type=_path),
        _Option("--freq", "frequency table JSON (default: bundled)", type=_path),
        _Option("--top", "sentences to print, at least 1 (default 5)", default=5,
                type=_at_least_one),
        _Option("--trace", "emit score ledgers and exclusions", default=False, switch=True),
        _Option("--dump-solutions", "emit constituent trees for the printed sentences",
                default=False, switch=True),
        _Option("--format", default="human", choices=("human", "json")),
        _Option("--out", "write the report here instead of stdout", type=_path))),
    "strip": ("drop analyzer metadata from a TMR", cmd_strip, (
        _Option("--tmr", type=_path, required=True),
        _Option("--out", "write the stripped TMR here instead of stdout", type=_path))),
    "validate": ("check knowledge base and TMR invariants", cmd_validate, (
        *_KB_OPTIONS,
        _Option("--tmr", "also validate this TMR", type=_path))),
    "inspect": ("show a concept, its constraints, and its senses", cmd_inspect, (
        *_KB_OPTIONS,
        _Option("--concept", required=True))),
}


def build_parser() -> argparse.ArgumentParser:
    """The option table as an argparse parser, which prints help and usage
    and reads every command line _read_plain leaves to it."""
    import argparse

    class Parser(argparse.ArgumentParser):
        # usage mistakes are input errors: exit 1, never argparse's default 2
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    def worded(check):
        # argparse prints an ArgumentTypeError's text, but rewords a ValueError
        def convert(text):
            try:
                return check(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
        return convert

    parser = Parser(prog="ontogen",
                    description="Explainable knowledge-based sentence generation.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Parser)
    for name, (help_text, func, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for option in options:
            kwargs = {"dest": option.dest, "default": option.default,
                      "required": option.required, "help": option.help}
            if option.switch:
                kwargs["action"] = "store_true"
            else:
                kwargs["choices"] = option.choices
                kwargs["type"] = worded(option.type) if option.type else None
            command.add_argument(option.flag, **kwargs)
        command.set_defaults(func=func)
    return parser


def _read_plain(argv) -> SimpleNamespace | None:
    """The namespace argparse gives for argv, read straight from the option
    table when argv is plain: a subcommand, then options by their exact
    flags, each switch alone and each other option followed by a value
    that does not start with "-" and that its type or choices accept, and
    every required option given. None for any other argv, which argparse
    reads, so its help, usage and error text are the only ones."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, options = _COMMANDS[argv[0]]
    by_flag = {option.flag: option for option in options}
    values = {option.dest: option.default for option in options}
    given = set()
    words = iter(argv[1:])
    for word in words:
        option = by_flag.get(word)
        if option is None:
            return None
        value = True
        if not option.switch:
            value = next(words, None)
            if value is None or value.startswith("-"):
                return None
            if option.type is not None:
                try:
                    value = option.type(value)
                except ValueError:
                    return None
            if option.choices is not None and value not in option.choices:
                return None
        values[option.dest] = value
        given.add(option.flag)
    if any(option.required and option.flag not in given for option in options):
        return None
    return SimpleNamespace(command=argv[0], **values, func=func)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AllSetsPruned, NoRealizableSense) as err:
        print(f"error: {err}", file=sys.stderr)
        if isinstance(err, AllSetsPruned) and err.trace:
            for record in err.trace:
                print(_trace_line(record), file=sys.stderr)
        return 2
    except OntogenError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """Run main() as the whole process: flush the output, then end with
    os._exit, so the interpreter does not tear down every module and object.
    What escapes main() still takes the normal exit: argparse's SystemExit,
    or an unexpected exception with its traceback."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        if code == 0:  # otherwise the failed _emit has reported it
            print(f"error: {_WriteError('<stdout>', exc)}", file=sys.stderr)
            code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()

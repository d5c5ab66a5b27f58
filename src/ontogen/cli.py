"""Batch command-line front end.

Four subcommands: generate (TMR to ranked sentences), strip (drop analyzer
metadata from a TMR), validate (load-time invariant checks), inspect
(show a concept with its constraints and senses). Exit codes are stable:
0 success, 1 input or schema error, 2 inexpressible meaning. All report
content goes to standard output and is byte-stable for fixed inputs;
timing goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .config import GenerationConfig, load_config
from .engine import RunReport, generate
from .errors import AllSetsPruned, NoRealizableSense, OntogenError
from .knowledge import FacetedConstraint, VarBinding, constraint_text, load_knowledge_base
from .pipeline import TraceRecord
from .selector import bundled_frequency, load_frequency
from .solution import Constituent
from .tmr import parse_tmr_file, serialize_tmr, strip_metadata

_DATA = Path(__file__).parent / "data"


class _Parser(argparse.ArgumentParser):
    # usage mistakes are input errors: exit 1, never argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _at_least_one(text: str) -> int:
    """An integer of at least 1, for --top."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _num(value: float):
    value = round(value, 6)
    return int(value) if value == int(value) else value


def _add_kb_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ontology", default=str(_DATA / "kb" / "ontology.json"),
                        help="ontology JSON (default: bundled)")
    parser.add_argument("--lexicon", default=str(_DATA / "kb" / "lexicon.json"),
                        help="lexicon JSON (default: bundled)")
    parser.add_argument("--memory", default=str(_DATA / "kb" / "memory.json"),
                        help="episodic memory JSON (default: bundled)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ontogen",
                     description="Explainable knowledge-based sentence generation.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("generate", help="generate ranked sentences from a TMR")
    _add_kb_flags(gen)
    gen.add_argument("--tmr", required=True, help="meaning representation JSON")
    gen.add_argument("--config", help="scoring config JSON (default: built-in values)")
    gen.add_argument("--freq", help="frequency table JSON (default: bundled)")
    gen.add_argument("--top", type=_at_least_one, default=5,
                     help="sentences to print, at least 1 (default 5)")
    gen.add_argument("--trace", action="store_true", help="emit score ledgers and exclusions")
    gen.add_argument("--dump-solutions", action="store_true",
                     help="emit constituent trees for the printed sentences")
    gen.add_argument("--format", choices=("human", "json"), default="human")
    gen.add_argument("--out", help="write the report here instead of stdout")
    gen.set_defaults(func=cmd_generate)

    strip = sub.add_parser("strip", help="drop analyzer metadata from a TMR")
    strip.add_argument("--tmr", required=True)
    strip.add_argument("--out", help="write the stripped TMR here instead of stdout")
    strip.set_defaults(func=cmd_strip)

    val = sub.add_parser("validate", help="check knowledge base and TMR invariants")
    _add_kb_flags(val)
    val.add_argument("--tmr", help="also validate this TMR")
    val.set_defaults(func=cmd_validate)

    ins = sub.add_parser("inspect", help="show a concept, its constraints, and its senses")
    _add_kb_flags(ins)
    ins.add_argument("--concept", required=True)
    ins.set_defaults(func=cmd_inspect)
    return parser


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
            lines.extend(_render_tree(s.solution.root, indent=1))
    return lines


def _features(node: Constituent) -> dict:
    """The node's set features by their printed names, in printed order."""
    feats = node.features
    return {name: value for name, value in (
        ("tense", feats.tense), ("form", feats.verb_form), ("number", feats.number),
        ("person", feats.person), ("case", feats.case)) if value is not None}


def _features_text(node: Constituent) -> str:
    parts = [f"{name}={value}" for name, value in _features(node).items()]
    if node.proper:
        parts.append("proper")
    if node.pronoun:
        parts.append("pronoun")
    return f" [{', '.join(parts)}]" if parts else ""


def _render_tree(node: Constituent, indent: int) -> list[str]:
    pad = "  " * indent
    if node.is_leaf:
        return [f"{pad}{node.function} {node.lemma}{_features_text(node)}"]
    lines = [f"{pad}{node.function}{_features_text(node)}"]
    for child in node.children:
        lines.extend(_render_tree(child, indent + 1))
    return lines


def _tree_json(node: Constituent) -> dict:
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
    if node.children:
        out["children"] = [_tree_json(c) for c in node.children]
    return out


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
    return json.dumps(doc, indent=2, ensure_ascii=False)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_generate(args) -> int:
    kb = load_knowledge_base(args.ontology, args.lexicon, args.memory)
    tmr = parse_tmr_file(args.tmr)
    config = load_config(args.config) if args.config else GenerationConfig()
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
    _emit(serialize_tmr(strip_metadata(tmr)), args.out)
    return 0


def cmd_validate(args) -> int:
    kb = load_knowledge_base(args.ontology, args.lexicon, args.memory)
    lines = []
    for warning in kb.warnings:
        lines.append(f"warning: {warning}")
    lines.append(f"ok: ontology {len(kb.ontology.concepts)} concepts")
    lines.append(f"ok: lexicon {len(kb.lexicon.senses)} senses")
    lines.append(f"ok: memory {len(kb.memory.instances)} instances")
    if args.tmr:
        tmr = parse_tmr_file(args.tmr)
        lines.append(f"ok: tmr {len(tmr.frames)} frames")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_inspect(args) -> int:
    kb = load_knowledge_base(args.ontology, args.lexicon, args.memory)
    concept = args.concept
    if not kb.ontology.exists(concept):
        print(f"error: unknown concept {concept!r}", file=sys.stderr)
        return 1
    lines = [f"concept: {concept}",
             "is-a: " + " -> ".join(kb.ontology.ancestors(concept))]
    declared = kb.ontology.concepts[concept].slots
    if declared:
        lines.append("slots:")
        for prop in sorted(declared):
            lines.append(f"  {prop}: {_facet_text(declared[prop])}")
    senses = kb.lexicon.senses_by_head_concept(concept)
    lines.append("senses:")
    for sense in senses:
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
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())

"""Static knowledge: the ontology, the lexicon, and episodic memory.

All three stores load from versioned JSON files (schema "ontogen-kb/1")
and are treated as immutable once loaded. The ontology is an acyclic
IS-A graph whose concepts carry faceted property constraints; the
lexicon maps senses to paired syntactic and semantic structures; the
episodic memory holds remembered instances (names, genders, event
participations) that reference management consults.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from enum import IntEnum
from graphlib import CycleError, TopologicalSorter

from .errors import KbValidationError, SchemaError
from .strictjson import document, read_json

log = logging.getLogger("ontogen.knowledge")

SCHEMA_KB = "ontogen-kb/1"

SYN_CATEGORIES = ("subj", "v", "directobject", "n", "pp", "prep", "aux", "adv", "adj", "det")
FUNCTION_CATEGORIES = ("prep", "aux")
MODIFIER_POS = ("adj", "adv")
LEXICON_POS = ("n", "v") + MODIFIER_POS

CONCEPT_RE = re.compile(r"[A-Z][A-Z0-9]*(?:-[A-Z0-9]+)*")
# Trailing "-<digits>" is reserved for instance ids; concept names never end that way.
INSTANCE_RE = re.compile(r"([A-Z][A-Z0-9]*(?:-[A-Z0-9]+)*)-([0-9]+)")


# ---------------------------------------------------------------------------
# constraints

@dataclass(frozen=True)
class ConceptConstraint:
    """Filler must be the named concept or one of its IS-A descendants."""

    concept: str


@dataclass(frozen=True)
class LiteralConstraint:
    """Filler must be one of a closed set of literal symbols."""

    values: tuple[str, ...]


@dataclass(frozen=True)
class RangeConstraint:
    """Filler must be a scalar within [low, high] (bounds within [0, 1])."""

    low: float
    high: float


@dataclass(frozen=True)
class AnythingConstraint:
    """Matches any filler; stands in for an absent constraint."""


ANYTHING = AnythingConstraint()

Constraint = ConceptConstraint | LiteralConstraint | RangeConstraint | AnythingConstraint


def constraint_text(constraint: Constraint) -> str:
    """How ledgers, traces and inspect print a constraint."""
    if isinstance(constraint, ConceptConstraint):
        return constraint.concept
    if isinstance(constraint, LiteralConstraint):
        return "|".join(constraint.values)
    if isinstance(constraint, RangeConstraint):
        return f"[{constraint.low}, {constraint.high}]"
    return "anything"


@dataclass(frozen=True)
class FacetedConstraint:
    """A property constraint split into a hard sem facet and a typical default facet."""

    sem: Constraint | None = None
    default: Constraint | None = None

    @property
    def effective_sem(self) -> Constraint:
        return self.sem if self.sem is not None else ANYTHING


class MatchDegree(IntEnum):
    """How well a filler satisfies a constraint; total order none < sem < default < narrow < exact."""

    NONE = 0
    SEM = 1
    DEFAULT = 2
    NARROW = 3
    EXACT = 4


def _is_number(raw) -> bool:
    return isinstance(raw, (int, float)) and not isinstance(raw, bool)


def _is_integer(raw) -> bool:
    return isinstance(raw, int) and not isinstance(raw, bool)


def _strings(raw, where: str, source: str | None) -> tuple[str, ...]:
    """raw as a tuple, once it is a list of strings."""
    if not isinstance(raw, list) or not all(isinstance(v, str) for v in raw):
        raise KbValidationError(f"{where} must be a list of strings, got {raw!r}", source=source)
    return tuple(raw)


def parse_constraint(raw, where: str, source: str | None = None) -> Constraint:
    """Read one constraint from its JSON form."""
    if isinstance(raw, str):
        if CONCEPT_RE.fullmatch(raw):
            return ConceptConstraint(raw)
        return LiteralConstraint((raw,))
    if isinstance(raw, dict):
        if "concept" in raw:
            return ConceptConstraint(str(raw["concept"]))
        if "any-of" in raw:
            vals = _strings(raw["any-of"], f"{where}: any-of", source)
            if not vals:
                raise KbValidationError(f"{where}: empty any-of constraint", source=source)
            return LiteralConstraint(vals)
        if "range" in raw:
            bounds = raw["range"]
            if not (isinstance(bounds, list) and len(bounds) == 2
                    and all(_is_number(b) for b in bounds)):
                raise KbValidationError(f"{where}: range must be a pair of numbers, got {bounds!r}",
                                        source=source)
            lo, hi = bounds
            if not (0 <= lo <= hi <= 1):
                raise KbValidationError(f"{where}: range bounds must satisfy 0 <= low <= high <= 1",
                                        source=source)
            return RangeConstraint(float(lo), float(hi))
    raise KbValidationError(f"{where}: unrecognized constraint {raw!r}", source=source)


def _faceted(raw, where: str, source: str | None) -> FacetedConstraint:
    if not isinstance(raw, dict) or not (set(raw) <= {"sem", "default"}):
        raise KbValidationError(f"{where}: expected an object with sem/default facets, got {raw!r}",
                                source=source)
    sem = parse_constraint(raw["sem"], where, source) if "sem" in raw else None
    default = parse_constraint(raw["default"], where, source) if "default" in raw else None
    return FacetedConstraint(sem=sem, default=default)


# ---------------------------------------------------------------------------
# ontology

@dataclass
class Concept:
    name: str
    parents: tuple[str, ...]
    slots: dict[str, FacetedConstraint] = field(default_factory=dict)


class Ontology:
    """Acyclic IS-A graph of concepts with inheritable faceted constraints."""

    def __init__(self, concepts: dict[str, Concept]):
        self.concepts = concepts

    def exists(self, name: str) -> bool:
        return name in self.concepts

    def _require(self, name: str) -> Concept:
        try:
            return self.concepts[name]
        except KeyError:
            raise KbValidationError(f"unknown concept {name}") from None

    def ancestors(self, name: str):
        """Yield name and every IS-A ancestor, nearest first (breadth-first)."""
        seen = {name}
        queue = [name]
        while queue:
            current = queue.pop(0)
            yield current
            for parent in self._require(current).parents:
                if parent not in seen:
                    seen.add(parent)
                    queue.append(parent)

    def is_a(self, child: str, ancestor: str) -> bool:
        self._require(ancestor)
        return any(c == ancestor for c in self.ancestors(child))

    def constraint_on(self, concept: str, prop: str) -> FacetedConstraint:
        """Nearest declared constraint walking up IS-A; absent means anything."""
        for name in self.ancestors(concept):
            got = self.concepts[name].slots.get(prop)
            if got is not None:
                return got
        return FacetedConstraint(sem=ANYTHING)

    def satisfies(self, filler, constraint: Constraint) -> bool:
        """Whether a filler value (concept name, literal, or scalar) meets one constraint."""
        if isinstance(constraint, AnythingConstraint):
            return True
        if isinstance(constraint, ConceptConstraint):
            return isinstance(filler, str) and self.exists(filler) and self.is_a(filler, constraint.concept)
        if isinstance(constraint, LiteralConstraint):
            return isinstance(filler, str) and filler in constraint.values
        if isinstance(constraint, RangeConstraint):
            return isinstance(filler, (int, float)) and constraint.low <= float(filler) <= constraint.high
        return False


def _as_faceted(needed) -> FacetedConstraint:
    if needed is None:
        return FacetedConstraint(sem=ANYTHING)
    if isinstance(needed, FacetedConstraint):
        return needed
    return FacetedConstraint(sem=needed)


def _strictly_tighter(onto: Ontology, inner: Constraint, outer: Constraint) -> bool:
    if isinstance(outer, AnythingConstraint):
        return not isinstance(inner, AnythingConstraint)
    if isinstance(inner, ConceptConstraint) and isinstance(outer, ConceptConstraint):
        return inner.concept != outer.concept and onto.is_a(inner.concept, outer.concept)
    if isinstance(inner, LiteralConstraint) and isinstance(outer, LiteralConstraint):
        return set(inner.values) < set(outer.values)
    if isinstance(inner, RangeConstraint) and isinstance(outer, RangeConstraint):
        return (inner.low, -inner.high) > (outer.low, -outer.high)
    return False


def match_degree(onto: Ontology, filler, needed, override=None) -> MatchDegree:
    """Grade a filler against a faceted constraint, honoring a lexical override.

    Returns NONE when the filler violates the effective sem facet, EXACT when
    it equals the most specific constraining value, NARROW when it satisfies an
    override strictly tighter than the ontological sem, DEFAULT when it also
    satisfies the default facet, and SEM otherwise.
    """
    base = _as_faceted(needed)
    over = _as_faceted(override) if override is not None else None

    effective = over.effective_sem if over is not None and over.sem is not None else base.effective_sem
    if not onto.satisfies(filler, effective):
        return MatchDegree.NONE

    if isinstance(effective, ConceptConstraint) and filler == effective.concept:
        return MatchDegree.EXACT
    if isinstance(effective, LiteralConstraint) and len(effective.values) == 1 and filler == effective.values[0]:
        return MatchDegree.EXACT

    if over is not None and over.sem is not None and _strictly_tighter(onto, over.sem, base.effective_sem):
        return MatchDegree.NARROW

    if base.default is not None and onto.satisfies(filler, base.default):
        return MatchDegree.DEFAULT
    return MatchDegree.SEM


# ---------------------------------------------------------------------------
# lexicon

@dataclass(frozen=True)
class SynNode:
    """One syntactic slot: category, its $var index, fixed-word roots, optionality."""

    category: str
    var: int
    roots: tuple[str, ...] | None = None
    optional: bool = False


@dataclass(frozen=True)
class VarBinding:
    """A sem-struc slot filled by the realization of a syn-struc variable."""

    var: int
    override: FacetedConstraint | None = None


SlotValue = VarBinding | Constraint | float


@dataclass(frozen=True)
class PronounRef:
    """Referent features of a pronoun sense: person, number, optional gender."""

    person: int
    number: str
    gender: str | None = None


@dataclass(frozen=True)
class SemFrame:
    head: str
    slots: dict[str, SlotValue]
    null_sem: tuple[int, ...] = ()


@dataclass(frozen=True)
class LexSense:
    """One lexical sense: a headword with paired syn-struc and sem-struc."""

    id: str
    headword: str
    pos: str
    syn_struc: tuple[SynNode, ...]
    sem_struc: SemFrame
    definition: str = ""
    example: str = ""
    synonyms: tuple[str, ...] = ()
    example_bindings: tuple[tuple[str, int], ...] = ()
    # present only on pronoun senses (I/you/he/she/they)
    reference: PronounRef | None = None

    @property
    def is_argument_taking(self) -> bool:
        """Whether any sem-struc slot binds a syn-struc variable."""
        return any(isinstance(v, VarBinding) for v in self.sem_struc.slots.values())

    @property
    def bound_roles(self) -> dict[int, str]:
        """var index -> property name for every variable binding."""
        return {v.var: prop for prop, v in self.sem_struc.slots.items() if isinstance(v, VarBinding)}

    def binding_word(self, var: int) -> str | None:
        """The example-bindings word recorded for a variable, if any."""
        for word, idx in self.example_bindings:
            if idx == var:
                return word
        return None

    def root_choice(self, node: SynNode) -> str | None:
        """Pick the surface word for a fixed-root node.

        The example-bindings word wins when it is one of the listed
        alternatives; otherwise the first listed root is used.
        """
        if not node.roots:
            return None
        bound = self.binding_word(node.var)
        if bound is not None and bound in node.roots:
            return bound
        return node.roots[0]


class Lexicon:
    """Sense store indexed by head concept."""

    def __init__(self, senses: dict[str, LexSense]):
        self.senses = senses
        self.by_head: dict[str, list[str]] = {}
        for sid in sorted(senses):
            self.by_head.setdefault(senses[sid].sem_struc.head, []).append(sid)

    def __len__(self) -> int:
        return len(self.senses)

    def senses_by_head_concept(self, concept: str) -> list[LexSense]:
        """All senses whose sem-struc head is exactly this concept, by sense id."""
        return [self.senses[sid] for sid in self.by_head.get(concept, [])]

    def senses_for_property(self, onto: Ontology, prop: str, value) -> list[LexSense]:
        """Modifier senses (adj/adv) whose sem-struc covers property=value."""
        out = []
        for sid in sorted(self.senses):
            sense = self.senses[sid]
            if sense.pos not in MODIFIER_POS:
                continue
            slot = sense.sem_struc.slots.get(prop)
            if slot is None or isinstance(slot, VarBinding):
                continue
            if isinstance(slot, float):
                ok = isinstance(value, (int, float)) and abs(float(value) - slot) < 1e-9
            else:
                ok = onto.satisfies(value, slot)
            if ok:
                out.append(sense)
        return out


# ---------------------------------------------------------------------------
# episodic memory

class EpisodicMemory:
    """Remembered instances: identification attributes and event participation."""

    def __init__(self, instances: dict[str, dict]):
        self.instances = instances

    def __len__(self) -> int:
        return len(self.instances)

    def knows(self, instance_id: str) -> bool:
        return instance_id in self.instances

    def get(self, instance_id: str, prop: str, default=None):
        return self.instances.get(instance_id, {}).get(prop, default)


# ---------------------------------------------------------------------------
# loading

@dataclass
class KnowledgeBase:
    ontology: Ontology
    lexicon: Lexicon
    memory: EpisodicMemory
    warnings: list[str] = field(default_factory=list)


def _kb_document(path, kind: str) -> dict:
    data = document(read_json(path), SCHEMA_KB, str(path))
    if data.get("kind") != kind:
        raise SchemaError(f'expected kind "{kind}", got {data.get("kind")!r}', source=str(path))
    return data


def _parse_ontology(data: dict, source: str) -> Ontology:
    raw = data.get("concepts")
    if not isinstance(raw, dict) or not raw:
        raise KbValidationError("no concepts", source=source)
    concepts: dict[str, Concept] = {}
    for name, body in raw.items():
        if not CONCEPT_RE.fullmatch(name) or INSTANCE_RE.fullmatch(name):
            raise KbValidationError(f"bad concept name {name!r}", source=source)
        if not isinstance(body, dict):
            raise KbValidationError(f"{name}: concept body must be an object, got {body!r}",
                                    source=source)
        parents = _strings(body.get("parents", []), f"{name}: parents", source)
        raw_slots = body.get("slots", {})
        if not isinstance(raw_slots, dict):
            raise KbValidationError(f"{name}: slots must be an object, got {raw_slots!r}",
                                    source=source)
        slots = {}
        for prop, rawc in raw_slots.items():
            slots[prop] = _faceted(rawc, f"{name}.{prop}", source)
        concepts[name] = Concept(name=name, parents=parents, slots=slots)
    return Ontology(concepts)


def _validate_ontology(onto: Ontology, source: str, warnings: list[str]) -> None:
    # parents exist, graph acyclic
    for concept in onto.concepts.values():
        for parent in concept.parents:
            if parent not in onto.concepts:
                raise KbValidationError(f"{concept.name}: unknown parent {parent}", source=source)

    try:
        TopologicalSorter({c.name: c.parents for c in onto.concepts.values()}).prepare()
    except CycleError as exc:
        cycle = " -> ".join(reversed(exc.args[1]))
        raise KbValidationError(f"IS-A cycle: {cycle}", source=source) from None

    # constraint references resolve; default facets narrow sem facets
    for concept in onto.concepts.values():
        for prop, faceted in concept.slots.items():
            for facet in (faceted.sem, faceted.default):
                if isinstance(facet, ConceptConstraint) and facet.concept not in onto.concepts:
                    raise KbValidationError(
                        f"{concept.name}.{prop}: constraint names unknown concept {facet.concept}",
                        source=source)
            if faceted.sem is not None and faceted.default is not None:
                if isinstance(faceted.default, ConceptConstraint):
                    ok = onto.satisfies(faceted.default.concept, faceted.sem)
                elif isinstance(faceted.default, LiteralConstraint):
                    ok = all(onto.satisfies(v, faceted.sem) for v in faceted.default.values)
                elif isinstance(faceted.default, RangeConstraint):
                    ok = onto.satisfies(faceted.default.low, faceted.sem) and \
                        onto.satisfies(faceted.default.high, faceted.sem)
                else:
                    ok = True
                if not ok:
                    msg = f"{concept.name}.{prop}: default facet does not narrow the sem facet"
                    warnings.append(msg)
                    log.warning("%s: %s", source, msg)


def _parse_slot_value(raw, where: str, source: str) -> SlotValue:
    if _is_number(raw):
        if not 0 <= raw <= 1:
            raise KbValidationError(f"{where}: scalar slot values must lie in [0, 1]",
                                    source=source)
        return float(raw)
    if isinstance(raw, dict) and "var" in raw:
        if not _is_integer(raw["var"]):
            raise KbValidationError(f"{where}: var must be an integer, got {raw['var']!r}",
                                    source=source)
        override = None
        facets = {k: raw[k] for k in ("sem", "default") if k in raw}
        if facets:
            override = _faceted(facets, where, source)
        return VarBinding(var=raw["var"], override=override)
    return parse_constraint(raw, where, source)


def _parse_lexicon(data: dict, source: str) -> Lexicon:
    raw = data.get("senses")
    if not isinstance(raw, list):
        raise KbValidationError("senses must be a list", source=source)
    senses: dict[str, LexSense] = {}
    for index, body in enumerate(raw):
        if not isinstance(body, dict):
            raise KbValidationError(f"senses[{index}] must be an object, got {body!r}",
                                    source=source)
        sid = body.get("id")
        if not sid or not isinstance(sid, str):
            raise KbValidationError(f"senses[{index}] needs a string id, got {sid!r}",
                                    source=source)
        if sid in senses:
            raise KbValidationError(f"duplicate sense id {sid}", source=source)
        syn_raw = body.get("syn-struc", [])
        if not isinstance(syn_raw, list):
            raise KbValidationError(f"{sid}: syn-struc must be a list, got {syn_raw!r}",
                                    source=source)
        nodes = []
        for n in syn_raw:
            if not isinstance(n, dict):
                raise KbValidationError(f"{sid}: syn-struc node must be an object, got {n!r}",
                                        source=source)
            cat = n.get("cat")
            if cat not in SYN_CATEGORIES:
                raise KbValidationError(f"{sid}: unknown syn-struc category {cat!r}", source=source)
            var = n.get("var")
            if not _is_integer(var):
                raise KbValidationError(f"{sid}: syn-struc {cat} node needs an integer var",
                                        source=source)
            roots = _strings(n["root"], f"{sid}: syn-struc {cat} root", source) \
                if "root" in n else None
            optional = n.get("opt", False)
            if not isinstance(optional, bool):
                raise KbValidationError(f"{sid}: syn-struc {cat} opt must be true or false, "
                                        f"got {optional!r}", source=source)
            nodes.append(SynNode(category=cat, var=var, roots=roots, optional=optional))
        sem_raw = body.get("sem-struc", {})
        if not isinstance(sem_raw, dict):
            raise KbValidationError(f"{sid}: sem-struc must be an object, got {sem_raw!r}",
                                    source=source)
        head, slots_raw = sem_raw.get("head", ""), sem_raw.get("slots", {})
        null_sem = sem_raw.get("null-sem", [])
        if not isinstance(head, str) or not isinstance(slots_raw, dict) \
                or not isinstance(null_sem, list) or not all(map(_is_integer, null_sem)):
            raise KbValidationError(f"{sid}: sem-struc needs a head string, a slots object "
                                    f"and a null-sem list of integers", source=source)
        slots = {}
        for prop, rawv in slots_raw.items():
            slots[prop] = _parse_slot_value(rawv, f"{sid}.{prop}", source)
        sem = SemFrame(head=head, slots=slots, null_sem=tuple(null_sem))
        bindings = body.get("example-bindings", [])
        if not isinstance(bindings, list) or not all(
                isinstance(b, list) and len(b) == 2 and isinstance(b[0], str) and _is_integer(b[1])
                for b in bindings):
            raise KbValidationError(
                f"{sid}: example-bindings must be a list of [word, var] pairs, got {bindings!r}",
                source=source)
        reference = None
        if "reference" in body:
            r = body["reference"]
            if not isinstance(r, dict):
                raise KbValidationError(f"{sid}: reference must be an object, got {r!r}",
                                        source=source)
            person, number = r.get("person"), r.get("number")
            if not _is_integer(person) or person not in (1, 2, 3) \
                    or number not in ("singular", "plural"):
                raise KbValidationError(f"{sid}: reference needs person 1-3 and singular/plural",
                                        source=source)
            gender = r.get("gender")
            if gender not in (None, "male", "female"):
                raise KbValidationError(f"{sid}: reference gender must be male or female",
                                        source=source)
            reference = PronounRef(person=person, number=number, gender=gender)
        text = {key: body.get(key, "") for key in ("headword", "pos", "def", "ex")}
        for key, value in text.items():
            if not isinstance(value, str):
                raise KbValidationError(f"{sid}: {key} must be a string, got {value!r}",
                                        source=source)
        if text["pos"] not in LEXICON_POS:
            raise KbValidationError(f"{sid}: pos must be one of {', '.join(LEXICON_POS)}, "
                                    f"got {text['pos']!r}", source=source)
        synonyms = _strings(body.get("synonyms", []), f"{sid}: synonyms", source)
        if not all(word.strip() for word in (text["headword"],) + synonyms):
            raise KbValidationError(f"{sid}: headword and synonyms must not be blank",
                                    source=source)
        senses[sid] = LexSense(
            id=sid,
            headword=text["headword"],
            pos=text["pos"],
            definition=text["def"],
            example=text["ex"],
            synonyms=synonyms,
            syn_struc=tuple(nodes),
            sem_struc=sem,
            example_bindings=tuple((w, i) for w, i in bindings),
            reference=reference,
        )
    return Lexicon(senses)


def _validate_lexicon(lex: Lexicon, onto: Ontology, source: str) -> None:
    for sid, sense in lex.senses.items():
        heads = [n for n in sense.syn_struc if n.var == 0]
        if len(heads) != 1:
            raise KbValidationError(f"{sid}: expected exactly one $var0 head node, found {len(heads)}",
                                    source=source)
        declared = {n.var for n in sense.syn_struc}
        for prop, value in sense.sem_struc.slots.items():
            if isinstance(value, VarBinding) and value.var not in declared:
                raise KbValidationError(
                    f"{sid}: sem-struc slot {prop} references $var{value.var} with no syn-struc node",
                    source=source)
        for var in sense.sem_struc.null_sem:
            if var not in declared:
                raise KbValidationError(
                    f"{sid}: null-sem references $var{var} with no syn-struc node", source=source)
        bound = {v.var for v in sense.sem_struc.slots.values() if isinstance(v, VarBinding)}
        overlap = bound & set(sense.sem_struc.null_sem)
        if overlap:
            raise KbValidationError(
                f"{sid}: null-sem variables fill case-role slots: {sorted(overlap)}", source=source)
        for node in sense.syn_struc:
            if node.category in FUNCTION_CATEGORIES and not node.roots:
                raise KbValidationError(
                    f"{sid}: {node.category} node $var{node.var} lacks a root word", source=source)
        if not onto.exists(sense.sem_struc.head):
            raise KbValidationError(
                f"{sid}: sem-struc head names unknown concept {sense.sem_struc.head}", source=source)
        for prop, value in sense.sem_struc.slots.items():
            constraints = []
            if isinstance(value, VarBinding) and value.override is not None:
                constraints.extend(c for c in (value.override.sem, value.override.default) if c)
            elif isinstance(value, ConceptConstraint):
                constraints.append(value)
            for c in constraints:
                if isinstance(c, ConceptConstraint) and not onto.exists(c.concept):
                    raise KbValidationError(
                        f"{sid}.{prop}: constraint names unknown concept {c.concept}", source=source)


def _parse_memory(data: dict, onto: Ontology, source: str) -> EpisodicMemory:
    raw = data.get("instances", {})
    if not isinstance(raw, dict):
        raise KbValidationError("instances must be an object", source=source)
    for iid, body in raw.items():
        m = INSTANCE_RE.fullmatch(iid)
        if not m:
            raise KbValidationError(f"bad instance id {iid!r}", source=source)
        if not onto.exists(m.group(1)):
            raise KbValidationError(f"{iid}: concept prefix {m.group(1)} is not in the ontology",
                                    source=source)
        if not isinstance(body, dict) or not all(
                isinstance(body.get(prop, ""), str) for prop in ("HAS-NAME", "GENDER")):
            raise KbValidationError(
                f"{iid}: an instance must be an object whose HAS-NAME and GENDER are strings, "
                f"got {body!r}", source=source)
    return EpisodicMemory(raw)


def load_knowledge_base(ontology_path, lexicon_path, memory_path) -> KnowledgeBase:
    """Load and cross-validate the three knowledge files."""
    warnings: list[str] = []
    onto = _parse_ontology(_kb_document(ontology_path, "ontology"), str(ontology_path))
    _validate_ontology(onto, str(ontology_path), warnings)
    lex = _parse_lexicon(_kb_document(lexicon_path, "lexicon"), str(lexicon_path))
    _validate_lexicon(lex, onto, str(lexicon_path))
    memory = _parse_memory(_kb_document(memory_path, "memory"), onto, str(memory_path))
    return KnowledgeBase(ontology=onto, lexicon=lex, memory=memory, warnings=warnings)

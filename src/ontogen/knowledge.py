"""Static knowledge: the ontology, the lexicon, and episodic memory.

All three stores load from versioned JSON files (schema "ontogen-kb/1")
and are treated as immutable once loaded. The ontology is an acyclic
IS-A graph whose concepts carry faceted property constraints; the
lexicon maps senses to paired syntactic and semantic structures; the
episodic memory holds remembered instances (names, genders, event
participations) that reference management consults.
"""

from __future__ import annotations

import gc
import re
from collections.abc import Callable
from graphlib import CycleError, TopologicalSorter
from itertools import takewhile

from .errors import KbValidationError, SchemaError
from .record import Record, tuple_new
from .strictjson import document, read_json, reading

SCHEMA_KB = "ontogen-kb/1"

SYN_CATEGORIES = ("subj", "v", "directobject", "n", "pp", "prep", "aux", "adv", "adj", "det")
FUNCTION_CATEGORIES = ("prep", "aux")
MODIFIER_POS = ("adj", "adv")
LEXICON_POS = ("n", "v") + MODIFIER_POS
GENDERS = ("male", "female")

CONCEPT_RE = re.compile(r"[A-Z][A-Z0-9]*(?:-[A-Z0-9]+)*")
# Trailing "-<digits>" is reserved for instance ids; concept names never end that way.
INSTANCE_RE = re.compile(r"([A-Z][A-Z0-9]*(?:-[A-Z0-9]+)*)-([0-9]+)")


# ---------------------------------------------------------------------------
# constraints

class ConceptConstraint(Record):
    """Filler must be the named concept or one of its IS-A descendants."""

    __slots__ = ()

    def __new__(cls, concept: str):
        return tuple_new(cls, (concept,))


class LiteralConstraint(Record):
    """Filler must be one of a closed set of literal symbols."""

    __slots__ = ()

    def __new__(cls, values: tuple[str, ...]):
        return tuple_new(cls, (values,))


class RangeConstraint(Record):
    """Filler must be a scalar within [low, high] (bounds within [0, 1])."""

    __slots__ = ()

    def __new__(cls, low: float, high: float):
        return tuple_new(cls, (low, high))


class AnythingConstraint:
    """Matches any filler; stands in for an absent constraint. Only the
    ANYTHING instance exists, and it is truthy, unlike an empty tuple."""

    __slots__ = ()


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


class FacetedConstraint(Record):
    """A property constraint split into a hard sem facet and a typical default facet."""

    __slots__ = ()

    def __new__(cls, sem: Constraint | None = None, default: Constraint | None = None):
        return tuple_new(cls, (sem, default))


_UNCONSTRAINED = FacetedConstraint(sem=ANYTHING)


class MatchDegree:
    """How well a filler satisfies a constraint: five ints in the order
    none < sem < default < narrow < exact."""

    NONE, SEM, DEFAULT, NARROW, EXACT = range(5)


def _is_number(raw) -> bool:
    return isinstance(raw, (int, float)) and not isinstance(raw, bool)


def _is_integer(raw) -> bool:
    return isinstance(raw, int) and not isinstance(raw, bool)


def _strings(raw, where: str) -> tuple[str, ...]:
    """raw as a tuple, once it is a list of strings."""
    if not isinstance(raw, list) or not all(isinstance(v, str) for v in raw):
        raise KbValidationError(f"{where} must be a list of strings, got {raw!r}")
    return tuple(raw)


def parse_constraint(raw, where: str) -> Constraint:
    """Read one constraint from its JSON form."""
    if isinstance(raw, str):
        if CONCEPT_RE.fullmatch(raw):
            return ConceptConstraint(raw)
        return LiteralConstraint((raw,))
    if isinstance(raw, dict):
        if "concept" in raw:
            return ConceptConstraint(str(raw["concept"]))
        if "any-of" in raw:
            vals = _strings(raw["any-of"], f"{where}: any-of")
            if not vals:
                raise KbValidationError(f"{where}: empty any-of constraint")
            return LiteralConstraint(vals)
        if "range" in raw:
            bounds = raw["range"]
            if not (isinstance(bounds, list) and len(bounds) == 2
                    and all(_is_number(b) for b in bounds)):
                raise KbValidationError(f"{where}: range must be a pair of numbers, got {bounds!r}")
            lo, hi = bounds
            if not (0 <= lo <= hi <= 1):
                raise KbValidationError(f"{where}: range bounds must satisfy 0 <= low <= high <= 1")
            return RangeConstraint(float(lo), float(hi))
    raise KbValidationError(f"{where}: unrecognized constraint {raw!r}")


def _known(constraint: Constraint, concepts, where: str) -> Constraint:
    """constraint, once a concept it names is one of concepts."""
    if isinstance(constraint, ConceptConstraint) and constraint.concept not in concepts:
        raise KbValidationError(f"{where}: constraint names unknown concept {constraint.concept}")
    return constraint


def _faceted(raw, where: str, concepts) -> FacetedConstraint:
    if not isinstance(raw, dict) or not (set(raw) <= {"sem", "default"}):
        raise KbValidationError(f"{where}: expected an object with sem/default facets, got {raw!r}")
    sem, default = (_known(parse_constraint(raw[facet], where), concepts, where)
                    if facet in raw else None for facet in ("sem", "default"))
    return FacetedConstraint(sem=sem, default=default)


# ---------------------------------------------------------------------------
# ontology

class Concept:
    def __init__(self, name: str, parents: tuple[str, ...],
                 slots: dict[str, FacetedConstraint] | None = None):
        self.name = name
        self.parents = parents
        self.slots = {} if slots is None else slots


def _breadth_first(concepts: dict[str, Concept], name: str) -> tuple[str, ...]:
    chain = [name]
    seen = {name}
    for current in chain:  # grows while it is walked
        for parent in concepts[current].parents:
            if parent not in seen:
                seen.add(parent)
                chain.append(parent)
    return tuple(chain)


class _OnFirstRead(dict):
    """name -> make(name), made when first read and kept. make raises
    KeyError for a name that is not a concept, so nothing is kept for it."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[str], object]):
        self.make = make

    def __missing__(self, name):
        value = self[name] = self.make(name)
        return value


class Ontology:
    """Acyclic IS-A graph of concepts with inheritable faceted constraints.

    Built once the graph is known to be sound. The ontology is immutable,
    so a concept's breadth-first ancestry, as a tuple and as a set, is
    worked out when it is first read and kept: loading reads only the
    ancestry of the concepts its checks and sense programs name, so the
    cost does not grow with the depth of every concept. An inherited
    constraint is read along that tuple."""

    def __init__(self, concepts: dict[str, Concept]):
        self.concepts = concepts
        chains = self._chains = _OnFirstRead(lambda name: _breadth_first(concepts, name))
        self._lineages = _OnFirstRead(lambda name: frozenset(chains[name]))

    def exists(self, name: str) -> bool:
        return name in self.concepts

    @staticmethod
    def _lookup(table: dict, name: str):
        try:
            return table[name]
        except KeyError:
            raise KbValidationError(f"unknown concept {name}") from None

    def ancestors(self, name: str) -> tuple[str, ...]:
        """name and every IS-A ancestor, nearest first (breadth-first)."""
        return self._lookup(self._chains, name)

    def is_a(self, child: str, ancestor: str) -> bool:
        self._lookup(self.concepts, ancestor)
        return ancestor in self._lookup(self._lineages, child)

    def within(self, child: str, ancestor: str) -> bool:
        """is_a, where an unknown name is within nothing and holds nothing."""
        return child in self.concepts and ancestor in self._lineages[child]

    def constraint_on(self, concept: str, prop: str) -> FacetedConstraint:
        """Nearest declared constraint walking up IS-A; absent means anything."""
        for ancestor in self._lookup(self._chains, concept):
            declared = self.concepts[ancestor].slots.get(prop)
            if declared is not None:
                return declared
        return _UNCONSTRAINED

    def satisfies(self, filler, constraint: Constraint) -> bool:
        """Whether a filler value (concept name, literal, or scalar) meets one constraint."""
        return self.membership(constraint)(filler)

    def membership(self, constraint: Constraint) -> Callable[[object], bool]:
        """The test of one filler against constraint, made once: within for
        a concept, in for literals, the bounds for a range."""
        if isinstance(constraint, ConceptConstraint):
            within, concept = self.within, constraint.concept
            return lambda filler: within(filler, concept)
        if isinstance(constraint, LiteralConstraint):
            values = constraint.values
            return lambda filler: isinstance(filler, str) and filler in values
        if isinstance(constraint, RangeConstraint):
            low, high = constraint
            return lambda filler: isinstance(filler, (int, float)) and low <= float(filler) <= high
        return lambda filler: True


def _strictly_tighter(onto: Ontology, inner: Constraint, outer: Constraint) -> bool:
    if isinstance(outer, AnythingConstraint):
        return not isinstance(inner, AnythingConstraint)
    if isinstance(inner, ConceptConstraint) and isinstance(outer, ConceptConstraint):
        return inner.concept != outer.concept and onto.is_a(inner.concept, outer.concept)
    if isinstance(inner, LiteralConstraint) and isinstance(outer, LiteralConstraint):
        return set(inner.values) < set(outer.values)
    if isinstance(inner, RangeConstraint) and isinstance(outer, RangeConstraint):
        return inner != outer and outer.low <= inner.low and inner.high <= outer.high
    return False


def effective_sem(base: FacetedConstraint, over: FacetedConstraint | None = None) -> Constraint:
    """The sem facet a filler must meet: a lexical override's when it has
    one, else the ontology's, else anything."""
    if over is not None and over.sem is not None:
        return over.sem
    return base.sem if base.sem is not None else ANYTHING


class Grade:
    """A bound slot's constraint, read once at load (_parse_lexicon), which
    decides the degree a filler matches at. holds tests the effective sem
    facet (effective_sem), exact is the value that matches exactly (a
    concept, or a lone literal), narrow says a lexical override is strictly
    tighter than the ontology's sem, typical tests the ontology's default
    facet, and text is the effective facet as a violation prints it."""

    __slots__ = ("holds", "exact", "narrow", "typical", "text")

    def __init__(self, onto: Ontology, base: FacetedConstraint,
                 over: FacetedConstraint | None = None):
        sem = effective_sem(base, over)
        self.holds = onto.membership(sem)
        self.exact = sem.concept if isinstance(sem, ConceptConstraint) else \
            sem.values[0] if isinstance(sem, LiteralConstraint) and len(sem.values) == 1 else None
        self.narrow = over is not None and over.sem is not None \
            and _strictly_tighter(onto, over.sem, effective_sem(base))
        self.typical = None if base.default is None else onto.membership(base.default)
        self.text = constraint_text(sem)

    def degree(self, filler) -> int:
        """NONE when the filler violates the effective sem facet, EXACT when
        it is the exact value, NARROW when it meets a narrowing override,
        DEFAULT when it also meets the default facet, and SEM otherwise."""
        if not self.holds(filler):
            return MatchDegree.NONE
        if self.exact is not None and filler == self.exact:
            return MatchDegree.EXACT
        if self.narrow:
            return MatchDegree.NARROW
        if self.typical is not None and self.typical(filler):
            return MatchDegree.DEFAULT
        return MatchDegree.SEM


class Assertion:
    """A sem-struc slot that asserts a constraint: its test and its text."""

    __slots__ = ("holds", "text")

    def __init__(self, holds: Callable[[object], bool], text: str):
        self.holds, self.text = holds, text


# ---------------------------------------------------------------------------
# lexicon

class SynNode(Record):
    """One syntactic slot: category, its $var index, fixed surface word, optionality."""

    __slots__ = ()

    def __new__(cls, category: str, var: int, word: str | None = None, optional: bool = False):
        return tuple_new(cls, (category, var, word, optional))


class VarBinding(Record):
    """A sem-struc slot filled by the realization of a syn-struc variable."""

    __slots__ = ()

    def __new__(cls, var: int, override: FacetedConstraint | None = None):
        return tuple_new(cls, (var, override))


SlotValue = VarBinding | Constraint | float


class PronounRef(Record):
    """Referent features of a pronoun sense: person, number, optional gender."""

    __slots__ = ()

    def __new__(cls, person: int, number: str, gender: str | None = None):
        return tuple_new(cls, (person, number, gender))


class SemFrame:
    def __init__(self, head: str, slots: dict[str, SlotValue], null_sem: tuple[int, ...] = ()):
        self.head = head
        self.slots = slots
        self.null_sem = null_sem


class LexSense:
    """One lexical sense: a headword with paired syn-struc and sem-struc.
    reference is present only on pronoun senses (I/you/he/she/they).
    bound_roles maps each syn-struc variable a sem-struc slot binds to that
    slot's property (the loader lets a variable fill one slot only);
    is_argument_taking says whether there is any, and mismatch names the
    rule that excludes the sense for content the meaning lacks or
    contradicts; transitive says whether the syn-struc has a direct object;
    subject is the variable of the grammatical subject, the first bound bare
    subj or n node ahead of the head verb, if any; mood is imperative for a
    verb-first syn-struc, interrogative for an aux-first one, else
    declarative; has_aux says whether any node is an aux. All are read from
    the structures once, here, so neither structure may change later.
    program is the sem-struc as semantic pruning runs it, one (property,
    step) per slot in slot order: a Grade for a bound slot, an Assertion for
    an asserted constraint, the value of a scalar feature; the loader
    compiles it against the ontology and passes it in. The loader checks
    def, ex and example-bindings, which pick each fixed node's word, and
    keeps none."""

    def __init__(self, id: str, headword: str, pos: str, syn_struc: tuple[SynNode, ...],
                 sem_struc: SemFrame, synonyms: tuple[str, ...] = (),
                 reference: PronounRef | None = None,
                 program: tuple[tuple[str, Grade | Assertion | float], ...] = ()):
        self.id = id
        self.headword = headword
        self.pos = pos
        self.syn_struc = syn_struc
        self.sem_struc = sem_struc
        self.synonyms = synonyms
        self.reference = reference
        self.bound_roles = {v.var: prop for prop, v in sem_struc.slots.items()
                            if isinstance(v, VarBinding)}
        self.is_argument_taking = bool(self.bound_roles)
        self.mismatch = "argument-mismatch" if self.is_argument_taking else "content-mismatch"
        self.transitive = any(node.category == "directobject" for node in syn_struc)
        self.subject = next((node.var for node in takewhile(lambda n: n.var or n.word, syn_struc)
                             if node.category in ("subj", "n") and not node.word
                             and node.var in self.bound_roles), None)
        self.mood = {"v": "imperative", "aux": "interrogative"}.get(syn_struc[0].category,
                                                                   "declarative")
        self.has_aux = any(node.category == "aux" for node in syn_struc)
        self.program = program


class Lexicon:
    """Sense store with its noun and verb senses indexed by head concept, and
    its modifier senses (adj/adv) by each property they give a value, each
    index in sense-id order, with the step of the sense's program that
    tests the value. Only a noun or verb sense heads a frame: a modifier's
    head names what it may modify."""

    def __init__(self, senses: dict[str, LexSense]):
        self.senses = senses
        self.by_head: dict[str, list[LexSense]] = {}
        self.by_property: dict[str, list[tuple[Assertion | float, LexSense]]] = {}
        for sid in sorted(senses):
            sense = senses[sid]
            if sense.pos not in MODIFIER_POS:
                self.by_head.setdefault(sense.sem_struc.head, []).append(sense)
                continue
            for prop, step in sense.program:
                if not isinstance(step, Grade):
                    self.by_property.setdefault(prop, []).append((step, sense))

    def senses_by_head_concept(self, concept: str) -> list[LexSense]:
        """The noun and verb senses whose sem-struc head is exactly this
        concept, by sense id."""
        return self.by_head.get(concept, [])

    def senses_for_property(self, prop: str, value) -> list[LexSense]:
        """Modifier senses (adj/adv) whose sem-struc covers property=value."""
        out = []
        for step, sense in self.by_property.get(prop, ()):
            if isinstance(step, float):
                ok = isinstance(value, (int, float)) and abs(float(value) - step) < 1e-9
            else:
                ok = step.holds(value)
            if ok:
                out.append(sense)
        return out


# ---------------------------------------------------------------------------
# episodic memory

def identity_problem(prop: str, value: str) -> str | None:
    """What is wrong with a HAS-NAME or GENDER string, if anything: a name
    is one line, not blank, with no white space at either end; a gender is
    one of GENDERS, as for a pronoun sense."""
    if prop == "GENDER":
        return None if value in GENDERS else f"GENDER must be male or female, got {value!r}"
    if not value.strip():
        return "HAS-NAME must not be blank"
    if len(value.splitlines()) > 1:
        return f"HAS-NAME must be one line, got {value!r}"
    if value != value.strip():
        return f"HAS-NAME must not begin or end with white space, got {value!r}"
    return None


class EpisodicMemory:
    """Remembered instances: identification attributes and event participation."""

    def __init__(self, instances: dict[str, dict]):
        self.instances = instances

    def knows(self, instance_id: str) -> bool:
        return instance_id in self.instances

    def get(self, instance_id: str, prop: str, default=None):
        return self.instances.get(instance_id, {}).get(prop, default)


# ---------------------------------------------------------------------------
# loading

class KnowledgeBase:
    """The three stores, with the warnings their loading raised; every
    warning so far is about the ontology file."""

    def __init__(self, ontology: Ontology, lexicon: Lexicon, memory: EpisodicMemory,
                 warnings: list[str] | None = None):
        self.ontology = ontology
        self.lexicon = lexicon
        self.memory = memory
        self.warnings = [] if warnings is None else warnings

    def head_senses(self, concept: str) -> tuple[list[LexSense], str]:
        """The senses that head concept, by sense id, else those of its
        nearest ancestor that has any, with a note naming that ancestor;
        no senses at all when none has any."""
        for ancestor in self.ontology.ancestors(concept):  # raises for an unknown concept
            senses = self.lexicon.senses_by_head_concept(ancestor)
            if senses:
                note = "" if ancestor == concept else \
                    f"no sense heads {concept}; using ancestor {ancestor}"
                return senses, note
        return [], ""


def _kb_document(path, kind: str) -> dict:
    data = document(read_json(path), SCHEMA_KB)
    if data.get("kind") != kind:
        raise SchemaError(f'expected kind "{kind}", got {data.get("kind")!r}')
    return data


def _parse_ontology(data: dict, warnings: list[str]) -> Ontology:
    """Read and check each concept in turn. A parent or a constraint is
    checked against every name the document declares, so it may name a
    concept declared further on; a cycle and a default facet that does not
    narrow its sem facet need the whole graph, so they are checked last."""
    raw = data.get("concepts")
    if not isinstance(raw, dict) or not raw:
        raise KbValidationError("no concepts")
    concepts: dict[str, Concept] = {}
    for name, body in raw.items():
        if not CONCEPT_RE.fullmatch(name) or INSTANCE_RE.fullmatch(name):
            raise KbValidationError(f"bad concept name {name!r}")
        if not isinstance(body, dict):
            raise KbValidationError(f"{name}: concept body must be an object, got {body!r}")
        parents = _strings(body.get("parents", []), f"{name}: parents")
        for parent in parents:
            if parent not in raw:
                raise KbValidationError(f"{name}: unknown parent {parent}")
        raw_slots = body.get("slots", {})
        if not isinstance(raw_slots, dict):
            raise KbValidationError(f"{name}: slots must be an object, got {raw_slots!r}")
        slots = {prop: _faceted(rawc, f"{name}.{prop}", raw)
                 for prop, rawc in raw_slots.items()}
        concepts[name] = Concept(name=name, parents=parents, slots=slots)
    try:
        TopologicalSorter({c.name: c.parents for c in concepts.values()}).prepare()
    except CycleError as exc:
        cycle = " -> ".join(reversed(exc.args[1]))
        raise KbValidationError(f"IS-A cycle: {cycle}") from None
    onto = Ontology(concepts)
    for concept in concepts.values():
        for prop, (sem, default) in concept.slots.items():
            if sem is None or default is None:
                continue
            if isinstance(default, ConceptConstraint):
                values = (default.concept,)
            elif isinstance(default, RangeConstraint):
                values = (default.low, default.high)
            else:
                values = default.values
            if not all(onto.satisfies(value, sem) for value in values):
                warnings.append(f"{concept.name}.{prop}: default facet does not narrow "
                                f"the sem facet")
    return onto


def _parse_slot_value(raw, where: str, concepts) -> SlotValue:
    if _is_number(raw):
        if not 0 <= raw <= 1:
            raise KbValidationError(f"{where}: scalar slot values must lie in [0, 1]")
        return float(raw)
    if isinstance(raw, dict) and "var" in raw:
        if not _is_integer(raw["var"]):
            raise KbValidationError(f"{where}: var must be an integer, got {raw['var']!r}")
        override = None
        facets = {k: raw[k] for k in ("sem", "default") if k in raw}
        if facets:
            override = _faceted(facets, where, concepts)
        return VarBinding(var=raw["var"], override=override)
    return _known(parse_constraint(raw, where), concepts, where)


def _parse_lexicon(data: dict, onto: Ontology) -> Lexicon:
    """Read and check each sense in full before the next one."""
    raw = data.get("senses")
    if not isinstance(raw, list):
        raise KbValidationError("senses must be a list")
    senses: dict[str, LexSense] = {}
    for index, body in enumerate(raw):
        if not isinstance(body, dict):
            raise KbValidationError(f"senses[{index}] must be an object, got {body!r}")
        sid = body.get("id")
        if not sid or not isinstance(sid, str):
            raise KbValidationError(f"senses[{index}] needs a string id, got {sid!r}")
        if sid in senses:
            raise KbValidationError(f"duplicate sense id {sid}")
        syn_raw = body.get("syn-struc", [])
        if not isinstance(syn_raw, list):
            raise KbValidationError(f"{sid}: syn-struc must be a list, got {syn_raw!r}")
        nodes = []  # (category, var, roots, optional); words are picked once all is checked
        for n in syn_raw:
            if not isinstance(n, dict):
                raise KbValidationError(f"{sid}: syn-struc node must be an object, got {n!r}")
            cat = n.get("cat")
            if cat not in SYN_CATEGORIES:
                raise KbValidationError(f"{sid}: unknown syn-struc category {cat!r}")
            var = n.get("var")
            if not _is_integer(var):
                raise KbValidationError(f"{sid}: syn-struc {cat} node needs an integer var")
            roots = _strings(n["root"], f"{sid}: syn-struc {cat} root") if "root" in n else None
            if roots and not all(word.strip() for word in roots):
                raise KbValidationError(f"{sid}: syn-struc {cat} root words must not be blank")
            if cat in FUNCTION_CATEGORIES and not roots:
                raise KbValidationError(f"{sid}: {cat} node $var{var} lacks a root word")
            optional = n.get("opt", False)
            if not isinstance(optional, bool):
                raise KbValidationError(f"{sid}: syn-struc {cat} opt must be true or false, "
                                        f"got {optional!r}")
            nodes.append((cat, var, roots, optional))
        declared = [var for _, var, _, _ in nodes]
        if declared.count(0) != 1:
            raise KbValidationError(f"{sid}: expected exactly one $var0 head node, "
                                    f"found {declared.count(0)}")
        if len(set(declared)) < len(declared):
            reused = next(var for i, var in enumerate(declared) if var in declared[:i])
            raise KbValidationError(f"{sid}: syn-struc has two nodes with $var{reused}")
        sem_raw = body.get("sem-struc", {})
        if not isinstance(sem_raw, dict):
            raise KbValidationError(f"{sid}: sem-struc must be an object, got {sem_raw!r}")
        head, slots_raw = sem_raw.get("head", ""), sem_raw.get("slots", {})
        null_sem = sem_raw.get("null-sem", [])
        if not isinstance(head, str) or not isinstance(slots_raw, dict) \
                or not isinstance(null_sem, list) or not all(map(_is_integer, null_sem)):
            raise KbValidationError(f"{sid}: sem-struc needs a head string, a slots object "
                                    f"and a null-sem list of integers")
        if not onto.exists(head):
            raise KbValidationError(f"{sid}: sem-struc head names unknown concept {head}")
        for var in null_sem:
            if var not in declared:
                raise KbValidationError(
                    f"{sid}: null-sem references $var{var} with no syn-struc node")
        slots, bound, program = {}, {}, []  # bound: the slot each variable fills
        for prop, rawv in slots_raw.items():
            value = slots[prop] = _parse_slot_value(rawv, f"{sid}.{prop}", onto.concepts)
            if isinstance(value, VarBinding):
                if value.var not in declared:
                    raise KbValidationError(f"{sid}: sem-struc slot {prop} references "
                                            f"$var{value.var} with no syn-struc node")
                if value.var in bound:
                    raise KbValidationError(f"{sid}: sem-struc binds $var{value.var} in both "
                                            f"{bound[value.var]} and {prop}")
                bound[value.var] = prop
                step = Grade(onto, onto.constraint_on(head, prop), value.override)
            elif isinstance(value, float):
                step = value
            else:
                step = Assertion(onto.membership(value), constraint_text(value))
            program.append((prop, step))
        overlap = set(bound) & set(null_sem)
        if overlap:
            raise KbValidationError(
                f"{sid}: null-sem variables fill case-role slots: {sorted(overlap)}")
        for cat, var, roots, optional in nodes:
            # an embedded clause's word-less subject is never said
            if not (roots or var in bound or var == 0 or var in null_sem or optional
                    or cat == "subj"):
                raise KbValidationError(f"{sid}: {cat} node $var{var} has no root word, and "
                                        f"no sem-struc slot binds it")
        bindings = body.get("example-bindings", [])
        if not isinstance(bindings, list) or not all(
                isinstance(b, list) and len(b) == 2 and isinstance(b[0], str) and _is_integer(b[1])
                for b in bindings):
            raise KbValidationError(
                f"{sid}: example-bindings must be a list of [word, var] pairs, got {bindings!r}")
        reference = None
        if "reference" in body:
            r = body["reference"]
            if not isinstance(r, dict):
                raise KbValidationError(f"{sid}: reference must be an object, got {r!r}")
            person, number = r.get("person"), r.get("number")
            if not _is_integer(person) or person not in (1, 2, 3) \
                    or number not in ("singular", "plural"):
                raise KbValidationError(f"{sid}: reference needs person 1-3 and singular/plural")
            gender = r.get("gender")
            if gender not in (None, *GENDERS):
                raise KbValidationError(f"{sid}: reference gender must be male or female")
            reference = PronounRef(person=person, number=number, gender=gender)
        text = {key: body.get(key, "") for key in ("headword", "pos", "def", "ex")}
        for key, value in text.items():
            if not isinstance(value, str):
                raise KbValidationError(f"{sid}: {key} must be a string, got {value!r}")
        if text["pos"] not in LEXICON_POS:
            raise KbValidationError(f"{sid}: pos must be one of {', '.join(LEXICON_POS)}, "
                                    f"got {text['pos']!r}")
        synonyms = _strings(body.get("synonyms", []), f"{sid}: synonyms")
        if not all(word.strip() for word in (text["headword"],) + synonyms):
            raise KbValidationError(f"{sid}: headword and synonyms must not be blank")
        # a fixed node's word: its variable's first binding word when that is
        # one of the node's roots, else the first root
        first_binding = {var: word for word, var in reversed(bindings)}
        syn_struc = []
        for cat, var, roots, optional in nodes:
            bound = first_binding.get(var)
            word = (bound if bound in roots else roots[0]) if roots else None
            syn_struc.append(SynNode(cat, var, word, optional))
        senses[sid] = LexSense(
            id=sid,
            headword=text["headword"],
            pos=text["pos"],
            synonyms=synonyms,
            syn_struc=tuple(syn_struc),
            sem_struc=SemFrame(head=head, slots=slots, null_sem=tuple(null_sem)),
            reference=reference,
            program=tuple(program),
        )
    return Lexicon(senses)


def _parse_memory(data: dict, onto: Ontology) -> EpisodicMemory:
    raw = data.get("instances", {})
    if not isinstance(raw, dict):
        raise KbValidationError("instances must be an object")
    for iid, body in raw.items():
        m = INSTANCE_RE.fullmatch(iid)
        if not m:
            raise KbValidationError(f"bad instance id {iid!r}")
        if not onto.exists(m.group(1)):
            raise KbValidationError(f"{iid}: concept prefix {m.group(1)} is not in the ontology")
        if not isinstance(body, dict) or not all(
                isinstance(body.get(prop, ""), str) for prop in ("HAS-NAME", "GENDER")):
            raise KbValidationError(
                f"{iid}: an instance must be an object whose HAS-NAME and GENDER are strings, "
                f"got {body!r}")
        for prop in ("HAS-NAME", "GENDER"):
            problem = identity_problem(prop, body[prop]) if prop in body else None
            if problem:
                raise KbValidationError(f"{iid}: {problem}")
    return EpisodicMemory(raw)


def load_knowledge_base(ontology_path, lexicon_path, memory_path) -> KnowledgeBase:
    """Load the three knowledge files, each read and checked in one pass.

    Cyclic garbage collection is paused while they load: nearly every
    object the load makes lives as long as the knowledge base, so each
    collection would only rescan the growing graph. The caller's setting
    comes back when the load ends, whether it succeeds or raises."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        warnings: list[str] = []
        with reading(str(ontology_path)):
            onto = _parse_ontology(_kb_document(ontology_path, "ontology"), warnings)
        with reading(str(lexicon_path)):
            lex = _parse_lexicon(_kb_document(lexicon_path, "lexicon"), onto)
        with reading(str(memory_path)):
            memory = _parse_memory(_kb_document(memory_path, "memory"), onto)
        return KnowledgeBase(ontology=onto, lexicon=lex, memory=memory, warnings=warnings)
    finally:
        if collecting:
            gc.enable()

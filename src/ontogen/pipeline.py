"""Lexical selection: from a meaning representation to scored candidate sets.

Six stages run in a fixed order: extract candidate senses per unit,
manage referring expressions, prune semantically (with an additive score
ledger), prune syntactically, aggregate the surviving candidates into
candidate sets, and expand synonyms. Every pruning rule reads one candidate
and its own frame, so each candidate is scored and checked once, and only
survivors are combined; a frame the root never reaches cannot change the
sentence, so its units enter the combination at their best candidate only.
Every score delta and every exclusion is recorded, so a set's score is
fully explained by its ledger.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

from .config import GenerationConfig
from .errors import AllSetsPruned, NoRealizableSense
from .knowledge import (
    Constraint,
    KnowledgeBase,
    LexSense,
    MatchDegree,
    RangeConstraint,
    SemFrame,
    SynNode,
    VarBinding,
    constraint_text,
    match_degree,
)
from .tmr import (
    CASE_ROLES,
    RESERVED_SLOTS,
    ConceptRef,
    InstanceRef,
    Tmr,
    TmrFrame,
    concept_of,
    find_root_frame,
)

DETERMINERS = ("indefinite", "definite", "some", "bare", "none")


@dataclass(frozen=True)
class ReferenceDecoration:
    """How a nominal should be realized: article choice or a pronoun form."""

    determiner: str = "none"
    pronoun_form: str | None = None

    def __post_init__(self):
        if self.determiner not in DETERMINERS:
            raise ValueError(f"bad determiner {self.determiner!r}")
        if self.pronoun_form is not None and self.determiner != "none":
            raise ValueError("a pronoun form excludes a determiner")


@dataclass(frozen=True)
class LedgerEntry:
    rule: str
    delta: float
    note: str = ""


@dataclass(frozen=True)
class CandidateSense:
    """One sense option for one unit, with any reference decoration applied."""

    sense: LexSense
    frame_id: str
    unit_key: str
    decoration: ReferenceDecoration | None = None
    lemma_override: str | None = None
    proper: bool = False
    modifiers: tuple[str, ...] = ()  # the frame's props that modifier units express
    ledger: tuple[LedgerEntry, ...] = ()  # reference-stage entries
    semantic: tuple[LedgerEntry, ...] = ()  # set by prune_semantic
    uncovered: tuple[LedgerEntry, ...] = ()  # set by prune_semantic
    passive: bool = False  # set by prune_syntactic: stands only in the passive

    @property
    def lemma(self) -> str:
        return self.lemma_override or self.sense.headword

    @property
    def is_pronoun(self) -> bool:
        if self.sense.reference is not None:
            return True
        return self.decoration is not None and self.decoration.pronoun_form is not None

    def describe(self) -> str:
        text = self.sense.id
        if self.lemma_override:
            text += f"({self.lemma_override})"
        if self.decoration:
            if self.decoration.pronoun_form:
                text += f"[{self.decoration.pronoun_form}]"
            elif self.decoration.determiner != "none":
                text += f"[{self.decoration.determiner}]"
        return text


@dataclass
class Unit:
    """One thing to express: a TMR frame, or one property slot of a frame."""

    key: str
    frame_id: str
    kind: str = "frame"  # frame | modifier
    prop: str | None = None
    value: object | None = None
    candidates: list[CandidateSense] = field(default_factory=list)


@dataclass
class CandidateSet:
    """One chosen sense per unit; everything else is read from the choices."""

    choices: dict[str, CandidateSense]

    @property
    def ledger(self) -> list[tuple[str, LedgerEntry]]:
        """Reference entries, then semantic entries, then uncovered-slot
        entries, each in choice order: the ledger is printed as is."""
        combo = self.choices.values()
        return ([(c.unit_key, entry) for c in combo for entry in c.ledger]
                + [(c.unit_key, entry) for c in combo for entry in c.semantic]
                + [(c.unit_key, entry) for c in combo for entry in c.uncovered])

    @property
    def score(self) -> float:
        return sum(entry.delta for _, entry in self.ledger)

    def signature(self) -> str:
        return " ".join(f"{key}={choice.describe()}" for key, choice in self.choices.items())


@dataclass(frozen=True)
class TraceRecord:
    stage: str
    subject: str
    rule: str
    note: str = ""


@dataclass
class SelectionResult:
    sets: list[CandidateSet]
    trace: list[TraceRecord]
    messages: list[str]
    counts: dict[str, int]


# ---------------------------------------------------------------------------
# stage 1: extract candidate senses

def extract_candidates(tmr: Tmr, kb: KnowledgeBase) -> list[Unit]:
    """Per frame, every sense headed by its concept (or nearest lexicalized
    ancestor), plus modifier units for lexicalizable property slots."""
    units: list[Unit] = []
    for frame in tmr.frames:
        concept = frame.concept
        senses = kb.lexicon.senses_by_head_concept(concept)
        note = ""
        if not senses:
            for ancestor in kb.ontology.ancestors(concept):
                if ancestor == concept:
                    continue
                senses = kb.lexicon.senses_by_head_concept(ancestor)
                if senses:
                    note = f"no sense heads {concept}; using ancestor {ancestor}"
                    break
        if not senses:
            raise NoRealizableSense(frame.instance_id, concept)
        unit = Unit(key=frame.instance_id, frame_id=frame.instance_id)
        modifier_units = _modifier_units(frame, kb)
        modifiers = tuple(m.prop for m in modifier_units)
        for sense in senses:
            ledger = (LedgerEntry("ancestor-fallback", 0.0, note),) if note else ()
            unit.candidates.append(CandidateSense(sense=sense, frame_id=frame.instance_id,
                                                  unit_key=unit.key, modifiers=modifiers,
                                                  ledger=ledger))
        units.append(unit)
        units.extend(modifier_units)
    return units


def modifier_key(frame_id: str, prop: str) -> str:
    """The unit key of the modifier that expresses prop of a frame."""
    return f"{frame_id}/{prop}"


def _modifier_units(frame: TmrFrame, kb: KnowledgeBase) -> list[Unit]:
    out = []
    for prop in sorted(frame.slots):
        if prop in RESERVED_SLOTS or prop in CASE_ROLES or prop.endswith("-OF"):
            continue
        value = frame.get(prop)
        if isinstance(value, InstanceRef):
            continue
        query = value.name if isinstance(value, ConceptRef) else value
        senses = kb.lexicon.senses_for_property(kb.ontology, prop, query)
        if not senses:
            continue
        key = modifier_key(frame.instance_id, prop)
        unit = Unit(key=key, frame_id=frame.instance_id, kind="modifier",
                    prop=prop, value=query)
        unit.candidates = [CandidateSense(sense=s, frame_id=frame.instance_id, unit_key=key)
                           for s in senses]
        out.append(unit)
    return out


# ---------------------------------------------------------------------------
# stage 2: manage referring expressions

def _is_a_safe(kb: KnowledgeBase, concept: str, ancestor: str) -> bool:
    onto = kb.ontology
    return onto.exists(concept) and onto.exists(ancestor) and onto.is_a(concept, ancestor)


def _participant(frame: TmrFrame, participant_id: str | None) -> bool:
    if participant_id is None:
        return False
    return frame.instance_id == participant_id or frame.coref == participant_id


def _frame_attr(frame: TmrFrame, kb: KnowledgeBase, prop: str) -> str | None:
    """The frame's own string value for prop, else what memory holds for the
    frame or the instance it corefers with."""
    value = frame.get(prop)
    if isinstance(value, str):
        return value
    for candidate in (frame.instance_id, frame.coref):
        if candidate:
            value = kb.memory.get(candidate, prop)
            if value:
                return value
    return None


def _pronoun_candidates(unit: Unit, person: int, number: str, gender: str | None,
                        bonus: float) -> list[CandidateSense]:
    out = []
    for cand in unit.candidates:
        ref = cand.sense.reference
        if ref is None or ref.person != person or ref.number != number:
            continue
        if ref.gender is not None and ref.gender != gender:
            continue
        ledger = cand.ledger
        if bonus:
            ledger = ledger + (LedgerEntry("reference-pronoun", bonus,
                                           "pronoun preferred for a known referent"),)
        out.append(replace(cand, decoration=ReferenceDecoration(), ledger=ledger))
    return out


def _described(cand: CandidateSense, determiner: str) -> CandidateSense:
    return replace(cand, decoration=ReferenceDecoration(determiner=determiner))


def _name_candidate(unit: Unit, name: str, concept: str) -> CandidateSense:
    sense = LexSense(
        id=f"{name.lower()}-pn1",
        headword=name,
        pos="n",
        syn_struc=(SynNode(category="n", var=0),),
        sem_struc=SemFrame(head=concept, slots={}),
        definition=f"proper name of a remembered {concept}",
    )
    return CandidateSense(sense=sense, frame_id=unit.frame_id, unit_key=unit.key,
                          decoration=ReferenceDecoration(), proper=True,
                          modifiers=unit.candidates[0].modifiers)


def manage_reference(units: list[Unit], tmr: Tmr, kb: KnowledgeBase,
                     config: GenerationConfig, context: tuple[str, ...] = ()) -> list[Unit]:
    """Prune person/number/gender-incompatible senses and decorate the rest
    with article or pronoun instructions."""
    out: list[Unit] = []
    for unit in units:
        if unit.kind != "frame":
            out.append(unit)
            continue
        frame = tmr.by_id[unit.frame_id]
        concept = frame.concept
        number = "plural" if frame.plural else "singular"
        in_context = frame.instance_id in context or (frame.coref in context
                                                      if frame.coref else False)
        known = (kb.memory.knows(frame.instance_id) or frame.coref is not None
                 or in_context)

        if _is_a_safe(kb, concept, "EVENT"):
            out.append(unit)
            continue

        gender = _frame_attr(frame, kb, "GENDER")
        if _participant(frame, tmr.speaker_id) or _participant(frame, tmr.hearer_id):
            person = 1 if _participant(frame, tmr.speaker_id) else 2
            chosen = _pronoun_candidates(unit, person, number, gender, 0.0)
            if chosen:
                unit.candidates = chosen
                out.append(unit)
                continue
            # degenerate lexicon without the pronoun: fall through to description

        if _is_a_safe(kb, concept, "HUMAN"):
            name = _frame_attr(frame, kb, "HAS-NAME")
            chosen: list[CandidateSense] = []
            if name:
                chosen.append(_name_candidate(unit, name, concept))
                if in_context:
                    chosen.extend(_pronoun_candidates(unit, 3, number, gender,
                                                      config.pronoun_bonus))
            elif known:
                chosen.extend(_pronoun_candidates(unit, 3, number, gender,
                                                  config.pronoun_bonus))
                chosen.extend(_described(c, "definite")
                              for c in unit.candidates if c.sense.reference is None)
            else:
                determiner = "indefinite" if number == "singular" else "some"
                chosen.extend(_described(c, determiner)
                              for c in unit.candidates if c.sense.reference is None)
            unit.candidates = chosen
            out.append(unit)
            continue

        # non-human objects
        plain = [c for c in unit.candidates if c.sense.reference is None]
        chosen = []
        if known:
            chosen.extend(_described(c, "definite") for c in plain)
            if frame.coref is not None and plain:
                # pronominalization needs an explicit coreference link; base
                # the clone on a sense that asserts nothing beyond its head,
                # so the pronoun is not hostage to another sense's content
                base = next((c for c in plain
                             if all(isinstance(v, VarBinding)
                                    for v in c.sense.sem_struc.slots.values())),
                            plain[0])
                pron = "they" if number == "plural" else "it"
                ledger = base.ledger + (LedgerEntry(
                    "reference-pronoun", config.pronoun_bonus,
                    "pronoun preferred for a known referent"),)
                chosen.append(replace(base, decoration=ReferenceDecoration(pronoun_form=pron),
                                      ledger=ledger))
        elif number == "plural":
            for c in plain:
                chosen.append(_described(c, "some"))
                chosen.append(_described(c, "bare"))
        else:
            chosen.extend(_described(c, "indefinite") for c in plain)
        unit.candidates = chosen or plain
        out.append(unit)
    return out


# ---------------------------------------------------------------------------
# stage 3: semantic pruning and scoring

def _filler_concept(value) -> str | None:
    if isinstance(value, InstanceRef):
        return concept_of(value.id)
    if isinstance(value, ConceptRef):
        return value.name
    return None


_DEGREE_RULES = {
    MatchDegree.EXACT: ("slot-exact", "exact_bonus"),
    MatchDegree.NARROW: ("slot-narrow", "narrow_bonus"),
    MatchDegree.DEFAULT: ("slot-default", "default_bonus"),
}


def _score_binding(entries: list[LedgerEntry], choice: CandidateSense, frame: TmrFrame,
                   prop: str, binding: VarBinding, kb: KnowledgeBase,
                   config: GenerationConfig) -> str | None:
    filler = frame.get(prop)
    if filler is None:
        return None
    concept = _filler_concept(filler)
    if concept is None:
        return None
    base = kb.ontology.constraint_on(choice.sense.sem_struc.head, prop)
    degree = match_degree(kb.ontology, concept, base, binding.override)
    if degree is MatchDegree.NONE:
        effective = binding.override.effective_sem if binding.override and binding.override.sem \
            else base.effective_sem
        return f"{prop} {concept} violates {constraint_text(effective)}"
    hit = _DEGREE_RULES.get(degree)
    if hit:
        rule, attr = hit
        entries.append(LedgerEntry(rule, getattr(config, attr),
                                   f"{prop} {concept} matches at degree {degree.name.lower()}"))
    return None


def _within_tolerance(entries: list[LedgerEntry], dist: float, config: GenerationConfig,
                      note: str) -> bool:
    """Whether a value dist away from the sense's still fits; if so, append
    the feature bonus, graded by closeness."""
    if dist > config.feature_tolerance + 1e-9:
        return False
    bonus = int(round((1.0 - dist / config.feature_tolerance) * config.feature_bonus))
    if bonus:
        entries.append(LedgerEntry("feature-match", bonus, note))
    return True


def _score_feature(entries: list[LedgerEntry], prop: str, declared: float, actual,
                   config: GenerationConfig) -> str | None:
    if not isinstance(actual, (int, float)):
        return None
    if _within_tolerance(entries, abs(float(actual) - declared), config,
                         f"{prop} {declared:g} within tolerance of {float(actual):g}"):
        return None
    return f"{prop} {declared:g} is too far from the specified {float(actual):g}"


def _score_assertion(entries: list[LedgerEntry], frame: TmrFrame, prop: str,
                     constraint: Constraint, kb: KnowledgeBase,
                     config: GenerationConfig) -> str | None:
    value = frame.get(prop)
    if value is None:
        return f"asserts {prop} {constraint_text(constraint)}, absent from the meaning"
    filler = _filler_concept(value)
    if filler is None:
        filler = value
    if kb.ontology.satisfies(filler, constraint):
        entries.append(LedgerEntry(
            "content-match", config.exact_bonus,
            f"asserted {prop} {constraint_text(constraint)} is present in the meaning"))
        return None
    return f"asserts {prop} {constraint_text(constraint)} but the meaning has {filler}"


def _score_modifier(entries: list[LedgerEntry], choice: CandidateSense, unit: Unit,
                    config: GenerationConfig) -> str | None:
    slot = choice.sense.sem_struc.slots.get(unit.prop)
    value = unit.value
    if isinstance(slot, float) and isinstance(value, (int, float)):
        dist = abs(float(value) - slot)
    elif isinstance(slot, RangeConstraint) and isinstance(value, (int, float)):
        v = float(value)
        dist = 0.0 if slot.low <= v <= slot.high else min(abs(v - slot.low), abs(v - slot.high))
    else:
        dist = 0.0
    if _within_tolerance(entries, dist, config, f"{unit.prop} {value} fits the modifier"):
        return None
    return f"{unit.prop} value {value} is outside the sense's range"


def _score_candidate(entries: list[LedgerEntry], choice: CandidateSense, unit: Unit,
                     tmr: Tmr, kb: KnowledgeBase,
                     config: GenerationConfig) -> tuple[str, str] | None:
    """Append the choice's score entries; return (rule, reason) when it
    asserts content the meaning lacks or contradicts."""
    if unit.kind == "modifier":
        reason = _score_modifier(entries, choice, unit, config)
        return ("feature-mismatch", reason) if reason else None
    frame = tmr.by_id[choice.frame_id]
    kind = "argument-mismatch" if choice.sense.is_argument_taking else "content-mismatch"
    for prop, slot in choice.sense.sem_struc.slots.items():
        if isinstance(slot, VarBinding):
            reason = _score_binding(entries, choice, frame, prop, slot, kb, config)
            rule = kind
        elif isinstance(slot, float):
            reason = _score_feature(entries, prop, slot, frame.get(prop), config)
            rule = "feature-mismatch"
        else:
            reason = _score_assertion(entries, frame, prop, slot, kb, config)
            rule = kind
        if reason:
            return rule, reason
    return None


def _uncovered_slots(choice: CandidateSense, frame: TmrFrame,
                     config: GenerationConfig) -> tuple[LedgerEntry, ...]:
    mentioned = set(choice.sense.sem_struc.slots).union(choice.modifiers)
    return tuple(LedgerEntry("uncovered-slot", -config.uncovered_penalty,
                             f"{prop} is not expressed by {choice.sense.id}")
                 for prop in frame.slots
                 if prop not in RESERVED_SLOTS and not prop.endswith("-OF")
                 and prop not in mentioned)


def _exclude(trace: list[TraceRecord], stage: str, choice: CandidateSense,
             rule: str, note: str) -> None:
    record = TraceRecord(stage=stage, subject=f"{choice.unit_key}/{choice.sense.id}",
                         rule=rule, note=note)
    # copies of one sense that differ only in reference decoration fail alike
    if record not in trace:
        trace.append(record)


def prune_semantic(units: list[Unit], tmr: Tmr, kb: KnowledgeBase,
                   config: GenerationConfig, trace: list[TraceRecord]) -> list[Unit]:
    """Score each candidate once: exclude senses that assert content the
    meaning lacks or contradicts; bonus exact/narrow/default matches and
    in-tolerance feature values; penalize frame slots nothing expresses."""
    out: list[Unit] = []
    for unit in units:
        kept = []
        for choice in unit.candidates:
            entries: list[LedgerEntry] = []
            failure = _score_candidate(entries, choice, unit, tmr, kb, config)
            if failure:
                _exclude(trace, "semantic", choice, *failure)
                continue
            uncovered = () if unit.kind == "modifier" else _uncovered_slots(
                choice, tmr.by_id[unit.frame_id], config)
            kept.append(replace(choice, semantic=tuple(entries), uncovered=uncovered))
        out.append(replace(unit, candidates=kept))
    if not all(unit.candidates for unit in out):
        raise AllSetsPruned("every candidate set was excluded on semantic grounds",
                            trace=trace)
    return out


# ---------------------------------------------------------------------------
# stage 4: syntactic pruning

_SPEAKER_ROOTS = {"i", "me", "myself"}
_HEARER_ROOTS = {"you", "yourself"}


def _participant_ok(sense: LexSense, node: SynNode, bound_frame: TmrFrame, tmr: Tmr) -> bool:
    word = sense.root_choice(node)
    if word is None:
        return True
    lowered = word.lower()
    if lowered in _SPEAKER_ROOTS:
        return _participant(bound_frame, tmr.speaker_id)
    if lowered in _HEARER_ROOTS:
        return _participant(bound_frame, tmr.hearer_id)
    return True


def _check_syntax(choice: CandidateSense, tmr: Tmr) -> tuple[tuple[str, str] | None, bool]:
    """Return ((rule, reason), False) when this choice cannot stand, else
    (None, passive), where passive says it stands only in the passive."""
    sense = choice.sense
    frame = tmr.by_id[choice.frame_id]

    if choice.is_pronoun and choice.modifiers:
        ref = sense.reference
        if ref is None or ref.person == 3:
            return ("pronoun-with-modifiers",
                    "a modified referent cannot be realized as a pronoun"), False

    if not sense.is_argument_taking:
        return None, False

    passive = False
    bound = sense.bound_roles
    transitive = any(n.category == "directobject" for n in sense.syn_struc)
    for node in sense.syn_struc:
        if node.var == 0 or node.var in sense.sem_struc.null_sem:
            continue
        prop = bound.get(node.var)
        if prop is None:
            if node.roots or node.optional:
                continue
            return ("unfillable", f"{node.category} $var{node.var} has no meaning to express"), False
        filler = frame.get(prop)
        if filler is None:
            if node.optional:
                continue
            if prop == "AGENT" and node.category == "subj" and transitive \
                    and frame.get("THEME") is not None:
                passive = True
                continue
            return ("unfillable",
                    f"{node.category} $var{node.var} needs {prop}, absent from the meaning"), False
        if isinstance(filler, InstanceRef) and node.roots:
            target = tmr.frame(filler.id)
            if target is not None and not _participant_ok(sense, node, target, tmr):
                return ("participant-mismatch",
                        f"fixed word {sense.root_choice(node)!r} does not fit {filler.id}"), False
    if frame.get("THEME") is not None and "THEME" not in sense.sem_struc.slots:
        return ("unhosted-theme",
                f"the meaning has a THEME that {sense.id} cannot host"), False
    return None, passive


def prune_syntactic(units: list[Unit], tmr: Tmr, trace: list[TraceRecord]) -> list[Unit]:
    """Check each frame candidate once: exclude it when an obligatory
    syntactic slot cannot be filled, a supplied argument cannot be hosted,
    or it is a pronoun for a modified referent."""
    out: list[Unit] = []
    for unit in units:
        if unit.kind == "modifier":
            out.append(unit)
            continue
        kept = []
        for choice in unit.candidates:
            failure, passive = _check_syntax(choice, tmr)
            if failure:
                _exclude(trace, "syntactic", choice, *failure)
            else:
                kept.append(replace(choice, passive=passive))
        out.append(replace(unit, candidates=kept))
    if not all(unit.candidates for unit in out):
        raise AllSetsPruned("every candidate set was excluded on syntactic grounds",
                            trace=trace)
    return out


# ---------------------------------------------------------------------------
# between stages 4 and 5: hold the frames the root never reaches

def _reached_frames(units: list[Unit], tmr: Tmr) -> set[str]:
    """The root frame and every frame reachable from it through instance
    fillers: of every slot but an -OF inverse, and of an -OF slot that a
    surviving sense of the frame binds. The tree builder follows no other
    edge, whichever senses are chosen."""
    bound: dict[str, set[str]] = {}  # per frame, every slot a surviving sense binds
    for unit in units:
        for choice in unit.candidates:
            bound.setdefault(unit.frame_id, set()).update(choice.sense.bound_roles.values())
    reached: set[str] = set()
    stack = [find_root_frame(tmr).instance_id]
    while stack:
        frame_id = stack.pop()
        if frame_id in reached:
            continue
        reached.add(frame_id)
        for prop, values in tmr.by_id[frame_id].slots.items():
            targets = [v.id for v in values if isinstance(v, InstanceRef)
                       and tmr.has(v.id) and v.id not in reached]
            if targets and prop.endswith("-OF") and prop not in bound.get(frame_id, ()):
                continue
            stack.extend(targets)
    return reached


def _own_score(choice: CandidateSense) -> float:
    return sum(entry.delta for entry in choice.ledger + choice.semantic + choice.uncovered)


def hold_unreached(units: list[Unit], tmr: Tmr) -> tuple[list[Unit], frozenset[str]]:
    """Hold each unit of a frame the root never reaches at its first
    candidate with the highest own score; return the units and the held
    keys. Such a choice never changes the sentence and adds only its own
    deltas to the total, and ranking keeps the first set with the highest
    total per sentence, so every winning set already holds it there."""
    reached = _reached_frames(units, tmr)
    held = frozenset(unit.key for unit in units if unit.frame_id not in reached)
    return [replace(unit, candidates=[max(unit.candidates, key=_own_score)])
            if unit.key in held else unit for unit in units], held


# ---------------------------------------------------------------------------
# stage 5: aggregate the survivors into candidate sets

def _product(units: list[Unit]) -> int:
    return math.prod(len(unit.candidates) for unit in units)


def aggregate_sets(units: list[Unit], config: GenerationConfig) -> tuple[list[CandidateSet], list[str]]:
    """Cartesian product of the units' candidates, one per unit, with the
    last unit varying fastest, truncated at the cap."""
    messages: list[str] = []
    total = _product(units)
    if total > config.set_cap:
        messages.append(f"candidate product {total} exceeds cap {config.set_cap}; truncated")

    product = itertools.product(*(unit.candidates for unit in units))
    sets = [CandidateSet(choices={c.unit_key: c for c in combo})
            for combo in itertools.islice(product, config.set_cap)]
    return sets, messages


# ---------------------------------------------------------------------------
# stage 6: synonym expansion

def expand_synonyms(sets: list[CandidateSet],
                    held: frozenset[str] = frozenset()) -> list[CandidateSet]:
    """For every synonym of every chosen sense outside the held units, clone
    the set with the head lemma replaced; clones inherit the full ledger."""
    out: list[CandidateSet] = []
    for cs in sets:
        out.append(cs)
        for key in cs.choices:
            if key in held:
                continue
            choice = cs.choices[key]
            for synonym in choice.sense.synonyms:
                out.append(replace(cs, choices={
                    **cs.choices, key: replace(choice, lemma_override=synonym)}))
    return out


# ---------------------------------------------------------------------------
# orchestration

def run_lexical_selection(tmr: Tmr, kb: KnowledgeBase, config: GenerationConfig,
                          context: tuple[str, ...] = ()) -> SelectionResult:
    """All six stages in order, with the full trace retained."""
    trace: list[TraceRecord] = []
    if not tmr.frames:
        raise AllSetsPruned("the meaning representation has no frames", trace=trace)
    units = extract_candidates(tmr, kb)
    units = manage_reference(units, tmr, kb, config, context)
    empty = [u.key for u in units if not u.candidates]
    if empty:
        raise AllSetsPruned(f"no referring expression fits: {', '.join(empty)}", trace=trace)
    counts = {
        "units": len(units),
        "candidates": sum(len(u.candidates) for u in units),
        "sets": _product(units),
    }
    survivors = prune_semantic(units, tmr, kb, config, trace)
    counts["after-semantic"] = _product(survivors)
    survivors = prune_syntactic(survivors, tmr, trace)
    counts["after-syntactic"] = _product(survivors)
    survivors, held = hold_unreached(survivors, tmr)
    sets, messages = aggregate_sets(survivors, config)
    sets = expand_synonyms(sets, held)
    counts["after-synonyms"] = len(sets)
    return SelectionResult(sets=sets, trace=trace, messages=messages, counts=counts)

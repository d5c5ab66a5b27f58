"""Lexical selection: from a meaning representation to scored candidate sets.

Five stages run in a fixed order: extract candidate senses per unit,
manage referring expressions, prune semantically (with an additive score
ledger), prune syntactically, and aggregate the survivors into candidate
sets, each its candidates' positions in options shared with its synonym
clones and the other sets of the request. Up to aggregation, each stage
narrows the units' candidate lists in place and returns the list it was
given, and writes what it decides on each candidate record it keeps: a
record is copied only to add an option, and never written once
aggregate_sets returns. Only the frames the root reaches become units: a frame nothing
attaches to the root cannot be said, so it is named in one message and
never scored. Every pruning rule but one reads one candidate and its own
frame, so each candidate is scored and read once; the one, verb-slot, then
weighs the readings kept against the frames their "v" nodes read. A
candidate is scored by running its sense's program (LexSense.program),
compiled when the knowledge base loads, against its frame's fillers: no
stage works out a constraint, a degree's facts or a note's constraint
text per request. Only survivors are combined. Every score delta and every exclusion is recorded,
so a set's score is explained by its ledger, which is built only when read.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from operator import attrgetter

from .config import GenerationConfig
from .errors import AllSetsPruned, NoRealizableSense, TmrError
from .knowledge import (
    Assertion,
    Grade,
    KnowledgeBase,
    LexSense,
    MatchDegree,
    SemFrame,
    SynNode,
    VarBinding,
)
from .record import Record, tuple_new
from .tmr import (
    CASE_ROLES,
    INVERSES,
    RESERVED_SLOTS,
    ConceptRef,
    InstanceRef,
    Tmr,
    TmrFrame,
    find_root_frame,
)


class LedgerEntry(Record):
    __slots__ = ()

    def __new__(cls, rule: str, delta: float, note: str = ""):
        return tuple_new(cls, (rule, delta, note))


class CandidateSense:
    """One sense option for one unit, and how its referent is mentioned.

    A record each stage narrows in place until aggregation: manage_reference
    sets determiner and ledger, prune_semantic semantic and uncovered, and
    prune_syntactic reading, on the record it keeps. A record is copied
    (_replace) only where one base yields a second option: the plural pair
    and the pronoun clone, and aggregate_sets' synonym clones. Every set
    of a request shares its options, so nothing writes a record once
    aggregate_sets returns."""

    __slots__ = ("sense", "frame_id", "unit_key", "determiner", "pronoun_form", "lemma_override",
                 "proper", "modifiers", "ledger", "semantic", "uncovered", "reading")

    def __init__(self, sense: LexSense, frame_id: str, unit_key: str,
                 determiner: str = "none",  # set by manage_reference for a described referent
                 pronoun_form: str | None = None,  # set by manage_reference for a pronoun clone
                 lemma_override: str | None = None, proper: bool = False,
                 modifiers: tuple[str, ...] = (),  # the frame's props that modifier units express
                 ledger: tuple[LedgerEntry, ...] = (),  # reference-stage entries
                 semantic: tuple[LedgerEntry, ...] = (),  # set by prune_semantic
                 uncovered: tuple[LedgerEntry, ...] = (),  # set by prune_semantic
                 reading: tuple | None = None):  # set by prune_syntactic (read_construction)
        self.sense, self.frame_id, self.unit_key = sense, frame_id, unit_key
        self.determiner, self.pronoun_form = determiner, pronoun_form
        self.lemma_override, self.proper, self.modifiers = lemma_override, proper, modifiers
        self.ledger, self.semantic, self.uncovered = ledger, semantic, uncovered
        self.reading = reading

    def _replace(self, **changes) -> CandidateSense:
        """A copy with changes, as a record's _replace makes it."""
        copy = CandidateSense(*_candidate_fields(self))
        for name, value in changes.items():
            setattr(copy, name, value)
        return copy

    @property
    def lemma(self) -> str:
        return self.lemma_override or self.sense.headword

    @property
    def is_pronoun(self) -> bool:
        return self.sense.reference is not None or self.pronoun_form is not None

    def describe(self) -> str:
        text = self.sense.id
        if self.lemma_override:
            text += f"({self.lemma_override})"
        if self.pronoun_form:
            text += f"[{self.pronoun_form}]"
        elif self.determiner != "none":
            text += f"[{self.determiner}]"
        return text


_candidate_fields = attrgetter(*CandidateSense.__slots__)  # in __init__'s order


class Unit:
    """One thing to express: a TMR frame, or one property slot of a frame.
    kind is "frame" or "modifier"."""

    def __init__(self, key: str, frame_id: str, candidates: list[CandidateSense],
                 kind: str = "frame", prop: str | None = None, value: object | None = None):
        self.key = key
        self.frame_id = frame_id
        self.candidates = candidates
        self.kind = kind
        self.prop = prop
        self.value = value


class CandidateSet:
    """One chosen sense per unit, by its position in the unit's options,
    which a request's sets share (aggregate_sets); the rest is read from
    the choices."""

    __slots__ = ("options", "positions")

    def __init__(self, options: tuple[tuple[CandidateSense, ...], ...], positions: tuple[int, ...]):
        self.options = options
        self.positions = positions

    @property
    def choices(self) -> dict[str, CandidateSense]:
        """Unit key to choice, in unit order, built when read."""
        return {c.unit_key: c for c in map(tuple.__getitem__, self.options, self.positions)}

    def entries(self) -> Iterator[tuple[str, LedgerEntry]]:
        """(unit key, entry) pairs in ledger order: reference entries, then
        semantic entries, then uncovered-slot entries, each in choice order."""
        combo = self.choices.values()
        return ((c.unit_key, entry) for part in ("ledger", "semantic", "uncovered")
                for c in combo for entry in getattr(c, part))

    def signature(self) -> str:
        """Each unit as "key=description", described when asked for."""
        return " ".join(f"{key}={choice.describe()}" for key, choice in self.choices.items())


class TraceRecord(Record):
    __slots__ = ()

    def __new__(cls, stage: str, subject: str, rule: str, note: str = ""):
        return tuple_new(cls, (stage, subject, rule, note))


class SelectionResult:
    """root is the TMR's root frame, which the sets' trees are built from."""

    def __init__(self, sets: list[CandidateSet], trace: list[TraceRecord], messages: list[str],
                 counts: dict[str, int], root: TmrFrame):
        self.sets = sets
        self.trace = trace
        self.messages = messages
        self.counts = counts
        self.root = root


# ---------------------------------------------------------------------------
# stage 1: extract candidate senses

def check_concepts(tmr: Tmr, kb: KnowledgeBase) -> None:
    """Raise a TmrError, with the TMR's source, for the first frame whose
    concept the ontology lacks."""
    for frame in tmr.frames:
        if not kb.ontology.exists(frame.concept):
            raise TmrError(f"{frame.instance_id}: concept {frame.concept} is not in the ontology",
                           source=tmr.source)


def extract_candidates(tmr: Tmr, kb: KnowledgeBase, root: TmrFrame) -> list[Unit]:
    """Per frame the root reaches, in document order, every sense headed by
    its concept (or nearest lexicalized ancestor), plus modifier units for
    lexicalizable property slots. A frame reaches the instance fillers of
    each slot but an inverse (INVERSES), and of an inverse slot that one of
    its head senses binds: the tree builder follows no other edge. Every
    frame's concept must be in the ontology (check_concepts)."""
    by_id = tmr.by_id
    heads: dict[str, tuple[list[LexSense], str]] = {}
    stack = [root.instance_id]
    while stack:
        frame = by_id[stack.pop()]
        if frame.instance_id in heads:
            continue
        senses, _ = heads[frame.instance_id] = kb.head_senses(frame.concept)
        # a frame reached already is skipped before an inverse reads the senses
        stack += [v.id for prop, values in frame.slots.items() for v in values
                  if isinstance(v, InstanceRef) and v.id in by_id and v.id not in heads
                  and (prop not in INVERSES
                       or any(prop in s.bound_roles.values() for s in senses))]
    units: list[Unit] = []
    for frame in tmr.frames:
        frame_id = frame.instance_id
        if frame_id not in heads:
            continue
        senses, note = heads[frame_id]
        if not senses:
            raise NoRealizableSense(frame_id, frame.concept)
        modifier_units = _modifier_units(frame, kb)
        modifiers = tuple(m.prop for m in modifier_units)
        ledger = (LedgerEntry("ancestor-fallback", 0.0, note),) if note else ()
        units.append(Unit(frame_id, frame_id, [
            CandidateSense(sense, frame_id, frame_id, modifiers=modifiers, ledger=ledger)
            for sense in senses]))
        units.extend(modifier_units)
    return units


def modifier_key(frame_id: str, prop: str) -> str:
    """The unit key of the modifier that expresses prop of a frame."""
    return f"{frame_id}/{prop}"


def _modifier_units(frame: TmrFrame, kb: KnowledgeBase) -> list[Unit]:
    """One unit per property of the frame that some modifier sense covers."""
    out = []
    for prop in sorted(frame.slots.keys() & kb.lexicon.by_property.keys()):
        if prop in RESERVED_SLOTS or prop in CASE_ROLES or prop in INVERSES:
            continue
        value = frame.get(prop)
        if isinstance(value, InstanceRef):
            continue
        query = value.name if isinstance(value, ConceptRef) else value
        senses = kb.lexicon.senses_for_property(prop, query)
        if not senses:
            continue
        key = modifier_key(frame.instance_id, prop)
        out.append(Unit(key, frame.instance_id,
                        [CandidateSense(s, frame.instance_id, key) for s in senses],
                        kind="modifier", prop=prop, value=query))
    return out


# ---------------------------------------------------------------------------
# stage 2: manage referring expressions

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
        if bonus:
            cand.ledger += (LedgerEntry("reference-pronoun", bonus,
                                        "pronoun preferred for a known referent"),)
        out.append(cand)
    return out


_NAME_SYN_STRUC = (SynNode(category="n", var=0),)


def _name_candidate(unit: Unit, name: str, concept: str) -> CandidateSense:
    sense = LexSense(
        id=f"{name.lower()}-pn1",
        headword=name,
        pos="n",
        syn_struc=_NAME_SYN_STRUC,
        sem_struc=SemFrame(head=concept, slots={}),
    )
    return CandidateSense(sense=sense, frame_id=unit.frame_id, unit_key=unit.key, proper=True,
                          modifiers=unit.candidates[0].modifiers)


def manage_reference(units: list[Unit], tmr: Tmr, kb: KnowledgeBase,
                     config: GenerationConfig, context: tuple[str, ...] = ()) -> list[Unit]:
    """Prune person/number/gender-incompatible senses and give the rest a
    determiner or a pronoun form."""
    for unit in units:
        if unit.kind != "frame":
            continue
        frame = tmr.by_id[unit.frame_id]
        concept = frame.concept
        number = "plural" if frame.plural else "singular"
        in_context = frame.instance_id in context or (frame.coref in context
                                                      if frame.coref else False)
        known = (kb.memory.knows(frame.instance_id) or frame.coref is not None
                 or in_context)

        if kb.ontology.within(concept, "EVENT"):
            continue

        gender = _frame_attr(frame, kb, "GENDER")
        if _participant(frame, tmr.speaker_id) or _participant(frame, tmr.hearer_id):
            person = 1 if _participant(frame, tmr.speaker_id) else 2
            chosen = _pronoun_candidates(unit, person, number, gender, 0.0)
            if chosen:
                unit.candidates = chosen
                continue
            # degenerate lexicon without the pronoun: fall through to description

        if kb.ontology.within(concept, "HUMAN"):
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
                chosen.extend(_described(unit.candidates, "definite"))
            else:
                chosen.extend(_described(unit.candidates,
                                         "indefinite" if number == "singular" else "some"))
            unit.candidates = chosen
            continue

        # non-human objects
        plain = [c for c in unit.candidates if c.sense.reference is None]
        unit.candidates = plain
        if known and frame.coref is not None and plain:
            # pronominalization needs an explicit coreference link; base
            # the clone on a sense that asserts nothing beyond its head,
            # so the pronoun is not hostage to another sense's content
            base = next((c for c in plain
                         if all(isinstance(v, VarBinding)
                                for v in c.sense.sem_struc.slots.values())),
                        plain[0])
            # copied before plain is described below: a pronoun takes no determiner
            unit.candidates = plain + [base._replace(
                pronoun_form="they" if number == "plural" else "it",
                ledger=base.ledger + (LedgerEntry("reference-pronoun", config.pronoun_bonus,
                                                  "pronoun preferred for a known referent"),))]
        elif not known and number == "plural":
            unit.candidates = [c for base in plain
                               for c in (base, base._replace(determiner="bare"))]
        _described(plain, "definite" if known else "some" if number == "plural" else "indefinite")
    return units


def _described(candidates: list[CandidateSense], determiner: str) -> list[CandidateSense]:
    """The candidates that are not pronoun senses, each given the determiner
    in place."""
    plain = [c for c in candidates if c.sense.reference is None]
    for c in plain:
        c.determiner = determiner
    return plain


# ---------------------------------------------------------------------------
# stage 3: semantic pruning and scoring

def _filler_concept(value, tmr: Tmr) -> str | None:
    """The concept of an instance inside the TMR, or of a concept filler."""
    if isinstance(value, InstanceRef):
        return tmr.by_id[value.id].concept
    if isinstance(value, ConceptRef):
        return value.name
    return None


_DEGREE_RULES = {  # rule, config bonus, degree as notes print it
    MatchDegree.EXACT: ("slot-exact", "exact_bonus", "exact"),
    MatchDegree.NARROW: ("slot-narrow", "narrow_bonus", "narrow"),
    MatchDegree.DEFAULT: ("slot-default", "default_bonus", "default"),
}


def _score_binding(entries: list[LedgerEntry], concept: str | None, prop: str, grade: Grade,
                   config: GenerationConfig) -> str | None:
    if concept is None:
        return None
    degree = grade.degree(concept)
    if degree == MatchDegree.NONE:
        return f"{prop} {concept} violates {grade.text}"
    hit = _DEGREE_RULES.get(degree)
    if hit:
        rule, attr, name = hit
        entries.append(LedgerEntry(rule, getattr(config, attr),
                                   f"{prop} {concept} matches at degree {name}"))
    return None


def _within_tolerance(entries: list[LedgerEntry], dist: float, config: GenerationConfig,
                      note: str) -> bool:
    """Whether a value dist away from the sense's still fits; if so, append
    the feature bonus in whole points, graded from the full bonus at
    distance 0 to none at the tolerance and past it, inside the 1e-9 slack."""
    if dist > config.feature_tolerance + 1e-9:
        return False
    bonus = round(max(0.0, 1.0 - dist / config.feature_tolerance) * config.feature_bonus)
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


def _score_assertion(entries: list[LedgerEntry], value, tmr: Tmr, prop: str,
                     assertion: Assertion, config: GenerationConfig) -> str | None:
    if value is None:
        return f"asserts {prop} {assertion.text}, absent from the meaning"
    filler = _filler_concept(value, tmr)
    if filler is None:
        filler = value
    if assertion.holds(filler):
        entries.append(LedgerEntry(
            "content-match", config.exact_bonus,
            f"asserted {prop} {assertion.text} is present in the meaning"))
        return None
    return f"asserts {prop} {assertion.text} but the meaning has {filler}"


def _score_modifier(entries: list[LedgerEntry], choice: CandidateSense, unit: Unit,
                    config: GenerationConfig) -> None:
    """Append the graded feature bonus: a modifier is a candidate only where
    its slot covers the value (Lexicon.senses_for_property), so it fits."""
    slot, value = choice.sense.sem_struc.slots.get(unit.prop), unit.value
    dist = abs(float(value) - slot) if isinstance(slot, float) else 0.0
    _within_tolerance(entries, dist, config, f"{unit.prop} {value} fits the modifier")


def _score_candidate(entries: list[LedgerEntry], choice: CandidateSense, unit: Unit,
                     tmr: Tmr, config: GenerationConfig) -> tuple[str, str] | None:
    """Append the choice's score entries, running its sense's program
    against the frame's fillers; return (rule, reason) when it asserts
    content the meaning lacks or contradicts."""
    if unit.kind == "modifier":
        _score_modifier(entries, choice, unit, config)
        return None
    frame = tmr.by_id[choice.frame_id]
    sense = choice.sense
    for prop, step in sense.program:
        value = tmr.filler(frame, prop)
        if isinstance(step, Grade):
            reason = _score_binding(entries, _filler_concept(value, tmr), prop, step, config)
            rule = sense.mismatch
        elif isinstance(step, float):
            reason = _score_feature(entries, prop, step, value, config)
            rule = "feature-mismatch"
        else:
            reason = _score_assertion(entries, value, tmr, prop, step, config)
            rule = sense.mismatch
        if reason:
            return rule, reason
    return None


def _expressible_slots(frame: TmrFrame, tmr: Tmr) -> tuple[str, ...]:
    """The frame's filled slots that some sense or modifier should express."""
    return tuple(prop for prop in frame.slots
                 if prop not in RESERVED_SLOTS and prop not in INVERSES
                 and tmr.filler(frame, prop) is not None)


def _uncovered_slots(choice: CandidateSense, expressible: tuple[str, ...],
                     config: GenerationConfig) -> tuple[LedgerEntry, ...]:
    slots = choice.sense.sem_struc.slots
    return tuple(LedgerEntry("uncovered-slot", -config.uncovered_penalty,
                             f"{prop} is not expressed by {choice.sense.id}")
                 for prop in expressible
                 if prop not in slots and prop not in choice.modifiers)


def _exclude(trace: dict[TraceRecord, None], stage: str, choice: CandidateSense,
             rule: str, note: str) -> None:
    # the trace keeps each record once, in the order first made: copies of one
    # sense that differ only in reference decoration fail alike
    trace.setdefault(TraceRecord(stage=stage, subject=f"{choice.unit_key}/{choice.sense.id}",
                                 rule=rule, note=note))


def prune_semantic(units: list[Unit], tmr: Tmr, config: GenerationConfig,
                   trace: dict[TraceRecord, None]) -> list[Unit]:
    """Score each candidate once, from the program its sense compiled at
    load: exclude senses that assert content the meaning lacks or
    contradicts; bonus exact/narrow/default matches and in-tolerance
    feature values; penalize frame slots nothing expresses."""
    for unit in units:
        kept = []
        expressible = () if unit.kind == "modifier" else \
            _expressible_slots(tmr.by_id[unit.frame_id], tmr)
        for choice in unit.candidates:
            entries: list[LedgerEntry] = []
            failure = _score_candidate(entries, choice, unit, tmr, config)
            if failure:
                _exclude(trace, "semantic", choice, *failure)
                continue
            choice.semantic = tuple(entries)
            choice.uncovered = _uncovered_slots(choice, expressible, config) if expressible else ()
            kept.append(choice)
        unit.candidates = kept
    if not all(unit.candidates for unit in units):
        raise AllSetsPruned("every candidate set was excluded on semantic grounds",
                            trace=list(trace))
    return units


# ---------------------------------------------------------------------------
# stage 4: syntactic pruning

_SPEAKER_ROOTS = {"i", "me", "myself"}
_HEARER_ROOTS = {"you", "yourself"}


def _participant_ok(word: str, bound_frame: TmrFrame, tmr: Tmr) -> bool:
    lowered = word.lower()
    if lowered in _SPEAKER_ROOTS:
        return _participant(bound_frame, tmr.speaker_id)
    if lowered in _HEARER_ROOTS:
        return _participant(bound_frame, tmr.hearer_id)
    return True


def read_construction(tmr: Tmr, frame: TmrFrame, sense: LexSense, embedded: bool
                      ) -> tuple[tuple[str, str] | None, tuple[bool, tuple] | None]:
    """Read an argument-taking sense's syn-struc against its frame, once
    for both pruning and the plan: (failure, reading), where
    prune_syntactic keeps the reading, (passive, items), on the candidate
    for solution._compile. embedded says the frame is not the root.

    failure is (rule, reason) for the first node that cannot stand, and the
    reading None; else failure is None. An embedded construction is a
    base-form verb phrase, so it cannot stand (unembeddable) when it has an
    aux node or says a node before its head. passive says the construction
    stands only in the passive: a word-less subject whose AGENT is absent
    gives way to the THEME of a transitive sense, and no direct object is
    said. items are what the construction says, in surface order, each
    (category, word, frame): ("head", None, None) for the head verb;
    (category, word, None) for a fixed word, said whatever fills its role;
    (category, None, frame) for a role and the frame filling it, the
    category "subject" for the grammatical subject (sense.subject, or the
    promoted THEME where the subject node stands); ("prep", word, frame) for
    a preposition and the frame of the bare noun after it, a phrase left out
    when no frame fills the noun's role. An embedded frame's word-less
    subject is never said, so it is neither checked nor counted as said; nor
    is a null-sem node."""
    bound, by_id, null_sem = sense.bound_roles, tmr.by_id, sense.sem_struc.null_sem
    theme = tmr.filler(frame, "THEME")
    passive, items, previous = False, [], None
    for node in sense.syn_struc:
        category, var, word, optional = node
        prop = bound.get(var)
        filler = None if prop is None else tmr.filler(frame, prop)
        if var == 0 and embedded and (sense.has_aux or items):
            return ("unembeddable", f"{sense.id} cannot stand as an embedded verb phrase"), None
        if var == 0 or var in null_sem or optional and filler is None \
                or category == "subj" and not word and embedded:
            pass
        elif prop is None:
            if not word:
                return ("unfillable", f"{category} $var{var} has no meaning to express"), None
        elif filler is None:
            if word or prop != "AGENT" or category != "subj" or not sense.transitive \
                    or theme is None:
                return ("unfillable", f"{category} $var{var} needs {prop}, absent from "
                                      f"the meaning"), None
            passive = True
            if isinstance(theme, InstanceRef):
                items.append(("subject", None, by_id[theme.id]))
        elif word:
            # a fixed word is said whatever fills its role
            if isinstance(filler, InstanceRef) \
                    and not _participant_ok(word, by_id[filler.id], tmr):
                return ("participant-mismatch",
                        f"fixed word {word!r} does not fit {filler.id}"), None
        elif not isinstance(filler, InstanceRef):
            shown = filler.name if isinstance(filler, ConceptRef) else filler
            return ("unfillable", f"{category} $var{var} needs an instance for "
                                  f"{prop}, got {shown!r}"), None

        if word:
            items.append((category, word, None))
        elif category == "n" and prop is not None and previous and previous.category == "prep":
            items.pop()  # the preposition, said with this noun's phrase or not at all
            if isinstance(filler, InstanceRef):
                items.append(("prep", previous.word, by_id[filler.id]))
        elif var == 0:
            items.append(("head", None, None))
        elif isinstance(filler, InstanceRef) and not (category == "subj" and embedded):
            items.append(("subject" if var == sense.subject else category, None,
                          by_id[filler.id]))
        previous = node
    if theme is not None and "THEME" not in sense.sem_struc.slots:
        return ("unhosted-theme", f"the meaning has a THEME that {sense.id} cannot host"), None
    if passive:
        items = [item for item in items if item[0] != "directobject"]
    return None, (passive, tuple(items))


def prune_syntactic(units: list[Unit], tmr: Tmr, root: TmrFrame,
                    trace: dict[TraceRecord, None]) -> list[Unit]:
    """Check each frame candidate once: exclude it when it is a pronoun for
    a modified referent, or when its construction, read against its frame
    (read_construction), cannot stand; else keep that reading on it. Every
    frame but the root is read as embedded. Then, if a "v" node reads a
    frame with a candidate that takes no arguments, each frame a "v" node
    reads is said as a verb phrase (_prune_verb_slots)."""
    # the frames "v" nodes read, and those with a candidate that takes no arguments
    embedded, nominal = set(), set()
    for unit in units:
        if unit.kind == "modifier":
            continue
        frame = tmr.by_id[unit.frame_id]
        kept = []
        for choice in unit.candidates:
            failure = None
            if choice.is_pronoun and choice.modifiers:
                failure = ("pronoun-with-modifiers",
                           "a modified referent cannot be realized as a pronoun")
            elif choice.sense.is_argument_taking:
                failure, choice.reading = read_construction(tmr, frame, choice.sense,
                                                            frame is not root)
                for category, _, target in choice.reading[1] if choice.reading else ():
                    if category == "v" and target:
                        embedded.add(target.instance_id)
            else:
                nominal.add(unit.frame_id)
            if failure:
                _exclude(trace, "syntactic", choice, *failure)
            else:
                kept.append(choice)
        unit.candidates = kept
    if embedded & nominal and all(unit.candidates for unit in units):
        _prune_verb_slots([unit for unit in units if unit.kind == "frame"], trace)
    if not all(unit.candidates for unit in units):
        raise AllSetsPruned("every candidate set was excluded on syntactic grounds",
                            trace=list(trace))
    return units


def _prune_verb_slots(units: list[Unit], trace: dict[TraceRecord, None]) -> None:
    """Arc consistency over the tree of frames (Mackworth 1977): exclude a
    candidate whose reading has a "v" node for a frame with no
    argument-taking candidate left, until none is; then a candidate that
    takes no arguments from a frame every reading left says through a "v"
    node. A frame some reading says as a nominal keeps its candidates."""
    def drop(notes: dict[int, str]) -> None:
        """Exclude each candidate whose id notes holds, with its note."""
        for unit in units:
            for choice in unit.candidates:
                if id(choice) in notes:
                    _exclude(trace, "syntactic", choice, "verb-slot", notes[id(choice)])
            unit.candidates = [c for c in unit.candidates if id(c) not in notes]

    lost = True
    while lost:
        phrasal = {unit.frame_id for unit in units
                   if any(c.sense.is_argument_taking for c in unit.candidates)}
        lost = {id(c): f"v needs {target.instance_id} said as a verb phrase, and no candidate "
                       f"left for it takes arguments"
                for unit in units for c in unit.candidates if c.reading
                for category, _, target in c.reading[1]
                if category == "v" and target and target.instance_id not in phrasal}
        drop(lost)
    said: dict[str, set[bool]] = {}  # frame id: whether each reading says it through "v"
    for category, _, target in (item for unit in units for c in unit.candidates if c.reading
                                for item in c.reading[1]):
        if target:
            said.setdefault(target.instance_id, set()).add(category == "v")
    drop({id(c): f"every reading left says {unit.frame_id} through v, as a verb phrase, and "
                 f"{c.sense.id} takes no arguments"
          for unit in units if said.get(unit.frame_id) == {True}
          for c in unit.candidates if not c.sense.is_argument_taking})


# ---------------------------------------------------------------------------
# stage 5: aggregate the survivors into candidate sets

def _product(units: list[Unit]) -> int:
    return math.prod(len(unit.candidates) for unit in units)


def aggregate_sets(units: list[Unit],
                   config: GenerationConfig) -> tuple[list[CandidateSet], list[str]]:
    """Cartesian product of the units' candidates, one per unit, with the
    last unit varying fastest, truncated at the cap (a cap at or above the
    product is no cap); each set followed by its synonym clones, in unit
    and synonym order, which replace one chosen head lemma and keep the
    full ledger. A set holds positions in one tuple of options per unit,
    which every set shares: the unit's candidates, then their clones in
    candidate and synonym order, each made once."""
    options, cloned = (), []
    for u, unit in enumerate(units):
        column, at = list(unit.candidates), {}
        for p, choice in enumerate(unit.candidates):
            if choice.sense.synonyms:
                at[p] = range(len(column), len(column) + len(choice.sense.synonyms))
                column += [choice._replace(lemma_override=w) for w in choice.sense.synonyms]
        options += (tuple(column),)
        cloned += [(u, at)] if at else []
    messages: list[str] = []
    total = _product(units)
    product = itertools.product(*(range(len(unit.candidates)) for unit in units))
    if total > config.set_cap:
        messages.append(f"candidate product {total} exceeds cap {config.set_cap}; truncated")
        product = itertools.islice(product, config.set_cap)
    sets: list[CandidateSet] = []
    for base in product:
        sets.append(CandidateSet(options, base))
        for u, at in cloned:
            for p in at.get(base[u], ()):
                sets.append(CandidateSet(options, base[:u] + (p,) + base[u + 1:]))
    return sets, messages


# ---------------------------------------------------------------------------
# orchestration

def run_lexical_selection(tmr: Tmr, kb: KnowledgeBase, config: GenerationConfig,
                          context: tuple[str, ...] = ()) -> SelectionResult:
    """All five stages in order, with the full trace retained, over the
    frames the root reaches; one message names the frames it does not
    reach, which no sentence can say."""
    check_concepts(tmr, kb)
    if not tmr.frames:
        raise AllSetsPruned("the meaning representation has no frames", trace=[])
    root = find_root_frame(tmr)
    units = extract_candidates(tmr, kb, root)
    reached = {unit.frame_id for unit in units}
    unsaid = [frame.instance_id for frame in tmr.frames if frame.instance_id not in reached]
    manage_reference(units, tmr, kb, config, context)
    empty = [u.key for u in units if not u.candidates]
    if empty:
        raise AllSetsPruned(f"no referring expression fits: {', '.join(empty)}", trace=[])
    counts = {
        "units": len(units),
        "candidates": sum(len(u.candidates) for u in units),
        "sets": _product(units),
    }
    trace: dict[TraceRecord, None] = {}
    prune_semantic(units, tmr, config, trace)
    counts["after-semantic"] = _product(units)
    prune_syntactic(units, tmr, root, trace)
    counts["after-syntactic"] = _product(units)
    sets, messages = aggregate_sets(units, config)
    counts["after-synonyms"] = len(sets)
    if unsaid:
        messages.insert(0, f"{', '.join(unsaid)} not expressed: nothing attaches "
                           f"{'them' if len(unsaid) > 1 else 'it'} to {root.instance_id}")
    return SelectionResult(sets=sets, trace=list(trace), messages=messages, counts=counts,
                           root=root)

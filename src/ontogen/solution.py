"""Solution building: pick each candidate set's realized pieces.

A set's tree mirrors the head construction's declared syntax. Leaves carry
a lemma plus the features the realizer needs (tense, form, number, person,
case); containers carry ordered children.

The sets of one request share a Forest, which builds what they read once
per candidate: each construction compiled once per frame, sense, voice
and embedding into a plan of fixed leaves, realized once, and holes; each
hole's piece (its text, first token, whether it ends in "a", proper names
and the node it came from) in a table indexed by candidate position; and
each root candidate's verb pieces. One more set costs one index per hole
and one assembly per embedded verb phrase: no node, no key and no
syn-struc walk. Its tree is built from the nodes its pieces hold when
first read. A frame that embeds itself, directly or through other frames,
is a TmrError.
"""

from __future__ import annotations

import functools
import itertools

from .errors import TmrError
from .knowledge import LexSense
from .pipeline import CandidateSense, CandidateSet, modifier_key
from .realizer import MorphTables, _assemble, _piece
from .tmr import InstanceRef, RelativeTime, Tmr, TmrFrame, relative_time_of

_TENSE_BY_TIME = {
    RelativeTime.BEFORE: "past",
    RelativeTime.AT: "present",
    RelativeTime.AFTER: "future",
}


class Features:
    """verb_form is base or participle; case is subjective or objective."""

    __slots__ = ("tense", "verb_form", "number", "person", "case")

    def __init__(self, tense: str | None = None, verb_form: str | None = None,
                 number: str | None = None, person: int | None = None, case: str | None = None):
        self.tense = tense
        self.verb_form = verb_form
        self.number = number
        self.person = person
        self.case = case


class Constituent:
    __slots__ = ("function", "lemma", "features", "children", "proper", "pronoun")

    def __init__(self, function: str, lemma: str | None = None, features: Features = Features(),
                 children: tuple[Constituent, ...] = (), proper: bool = False,
                 pronoun: bool = False):
        self.function = function
        self.lemma = lemma
        self.features = features
        self.children = children
        self.proper = proper
        self.pronoun = pronoun

    @property
    def is_leaf(self) -> bool:
        return self.lemma is not None

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


class CandidateSolution:
    """mood is declarative, interrogative or imperative; root_id names the
    root frame, whose choice heads the clause; pieces are the clause's, in
    surface order, an embedded verb phrase's holding its own pieces where
    others hold a node; realize sets the sentence and names, the
    proper-name lemmas in surface order."""

    def __init__(self, candidate_set: CandidateSet, pieces: list[tuple], mood: str, tense: str,
                 voice: str, root_id: str):
        self.candidate_set = candidate_set
        self.pieces = pieces
        self.mood = mood
        self.tense = tense
        self.voice = voice
        self.root_id = root_id
        self.sentence = ""
        self.names: tuple[str, ...] = ()

    @functools.cached_property
    def root(self) -> Constituent:
        """The clause tree, built on first read from the nodes the pieces hold."""
        return Constituent("clause", children=_nodes(self.pieces))


def _nodes(pieces: list[tuple]) -> tuple[Constituent, ...]:
    return tuple(Constituent("verb-phrase", children=_nodes(node)) if isinstance(node, list)
                 else node for *_, node in pieces)


def derive_tense(frame: TmrFrame, tmr: Tmr) -> str:
    when = relative_time_of(frame, tmr)
    return "present" if when is None else _TENSE_BY_TIME[when]


_ROLE_BY_CATEGORY = {"subj": "subject", "directobject": "direct-object", "n": "nominal"}
_FIXED_BY_CATEGORY = {"aux": "auxiliary", "adv": "adverb", "prep": "preposition"}

_DETERMINER_WORDS = {"indefinite": "a", "definite": "the", "some": "some"}


def _mood_of(sense: LexSense) -> str:
    first = sense.syn_struc[0].category
    if first == "v":
        return "imperative"
    if first == "aux":
        return "interrogative"
    return "declarative"


# A plan item is a fixed leaf's piece or a hole a set fills from its
# choices: a verb (a leaf with no lemma, which the frame's choice supplies
# unless the leaf names one), a nominal or prepositional phrase, the
# subject nominal, or a "v" slot (an embedded phrase when its frame's
# choice takes arguments, else a nominal).
_LEAF, _VERB, _NOMINAL, _SUBJECT, _VERBAL = range(5)


def _compile(tmr: Tmr, frame: TmrFrame, sense: LexSense, forest: Forest, *,
             passive: bool, tense: str, embedded: bool) -> tuple:
    """The construction as a plan, which no set changes: its items in
    surface order, each (kind, piece or Forest.hole); its verbs, each
    (position, leaf, whether it agrees with the subject); its mood; and its
    voice. Fixed leaves are realized here, once, and a hole is left for
    each role whose filler is in the TMR. An embedded construction has no
    subject and a base-form verb; a construction that takes no arguments is
    one nominal."""
    hole = forest.hole
    if not sense.is_argument_taking:
        return ((_NOMINAL, hole(frame, "nominal")),), (), "declarative", "active"
    syn = sense.syn_struc
    bound = sense.bound_roles
    base = embedded or _mood_of(sense) == "imperative" \
        or any(node.category == "aux" for node in syn)

    # a bound bare nominal ahead of the head verb is the grammatical subject
    subject_var: int | None = None
    for node in syn:
        if node.var == 0 and not node.word:
            break
        if node.category in ("subj", "n") and not node.word and node.var in bound:
            subject_var = node.var
            break

    items: list[tuple] = []
    verbs: list[tuple] = []

    def verb(function: str, agrees: bool, lemma: str | None = None, **features) -> None:
        # finite forms agree with the subject once the clause is filled
        verbs.append((len(items), Constituent(function, lemma=lemma,
                                               features=Features(**features)), agrees))
        items.append((_VERB, None))

    skip = False
    for index, node in enumerate(syn):
        if skip:
            skip = False
            continue
        category = node.category

        if passive and category == "directobject":
            continue

        if category == "prep":
            following = syn[index + 1] if index + 1 < len(syn) else None
            if following is not None and following.category == "n" \
                    and not following.word and following.var in bound:
                skip = True
                filler = tmr.filler(frame, bound[following.var])
                # without an instance filler the whole phrase is omitted
                if isinstance(filler, InstanceRef):
                    items.append((_NOMINAL, hole(tmr.by_id[filler.id], "prepositional-phrase",
                                                 node.word)))
                continue
            if not node.word:
                continue

        if node.var == 0 and not node.word:
            if passive:
                verb("auxiliary", True, "be", tense=tense)
                verb("main-verb", False, verb_form="participle")
            elif base:
                verb("main-verb", False, verb_form="base")
            else:
                verb("main-verb", True, tense=tense)
            continue

        if node.word:
            function = _FIXED_BY_CATEGORY.get(category, "fixed-word")
            items.append((_LEAF, _piece(forest.tables, Constituent(function, lemma=node.word))))
            continue

        prop = bound.get(node.var)
        if prop is None:
            continue
        filler = tmr.filler(frame, prop)
        if filler is None:
            if passive and prop == "AGENT" and category == "subj":
                theme = tmr.filler(frame, "THEME")
                if isinstance(theme, InstanceRef):
                    items.append((_SUBJECT, hole(tmr.by_id[theme.id], "subject")))
            continue
        if (category == "subj" and embedded) or not isinstance(filler, InstanceRef):
            continue
        target = tmr.by_id[filler.id]
        if category == "v":
            items.append((_VERBAL, hole(target, "nominal", verbal=True)))
        elif node.var == subject_var:
            items.append((_SUBJECT, hole(target, "subject")))
        else:
            items.append((_NOMINAL, hole(target, _ROLE_BY_CATEGORY.get(category, "nominal"))))
    return tuple(items), tuple(verbs), _mood_of(sense), "passive" if passive else "active"


class Forest:
    """What the sets of one request share: the root frame and its tense, the
    morphology tables, and what is built per candidate of the options the
    sets share (pipeline.aggregate_sets), read from the first set built. A
    solution holds the nodes its tree is built from through its pieces."""

    def __init__(self, tmr: Tmr, root: TmrFrame, tables: MorphTables):
        self.tmr = tmr
        self.root = root
        self.tables = tables
        self.tense = derive_tense(self.root, tmr)
        self.options: tuple | None = None

    def read(self, options: tuple) -> None:
        """Start on the options of a request's sets."""
        self.options = options
        self.unit = {column[0].unit_key: u for u, column in enumerate(options)}
        self.built: dict[tuple, object] = {}
        unit = self.unit[self.root.instance_id]
        self.root_clauses = unit, [None] * len(options[unit])  # clause() builds each

    def hole(self, frame: TmrFrame, function: str, preposition: str | None = None,
             verbal: bool = False) -> tuple:
        """(unit, modifier units, table, the frame and clauses of a "v" slot):
        the frame's nominal, or with a preposition the phrase that holds it,
        as (piece, (number, person)) by the positions of those units, the
        last fastest; none where a "v" slot's choices all take arguments."""
        unit, clauses = self.unit[frame.instance_id], None
        if verbal:
            clauses = frame, self.built.setdefault(("clauses", unit), (unit, [None] * len(
                self.options[unit])))
            if all(choice.sense.is_argument_taking for choice in self.options[unit]):
                return unit, (), None, clauses
        key = (function, preposition, frame.instance_id)
        if key not in self.built:
            mods = [self.unit[modifier_key(frame.instance_id, prop)]
                    for prop in self.options[unit][0].modifiers]
            self.built[key] = mods, [self._nominal(frame, function, preposition, *chosen)
                                     for chosen in itertools.product(
                                         self.options[unit], *map(self.options.__getitem__, mods))]
        return unit, *self.built[key], clauses

    def _nominal(self, frame: TmrFrame, function: str, preposition: str | None,
                 choice: CandidateSense, *modifiers: CandidateSense) -> tuple[tuple, tuple]:
        case = "subjective" if function == "subject" else "objective"
        number, person = "plural" if frame.plural else "singular", 3
        if choice.is_pronoun:
            ref = choice.sense.reference
            if ref is not None:
                lemma, number, person = choice.lemma, ref.number, ref.person
            else:
                lemma = choice.pronoun_form
            children = [Constituent("noun-head", lemma=lemma, pronoun=True,
                                    features=Features(number=number, person=person, case=case))]
        else:
            children = []
            word = _DETERMINER_WORDS.get(choice.determiner)
            if word:
                children.append(Constituent("determiner", lemma=word))
            for mod in modifiers:
                children.append(Constituent("modifier", lemma=mod.lemma))
            children.append(Constituent("noun-head", lemma=choice.lemma, proper=choice.proper,
                                        features=Features(number=number, person=3)))
        if preposition is None:
            node = Constituent(function, children=tuple(children))
        else:
            node = Constituent(function, children=(Constituent("preposition", lemma=preposition),
                                                   Constituent("nominal", children=tuple(children))))
        return _piece(self.tables, node), (number, person)

    def clause(self, frame: TmrFrame, clauses: tuple[int, list], positions: tuple[int, ...],
               embedded: bool):
        """The clause of the frame's choice in the set, once per position:
        (plan, lemma, verb pieces by agreement), or False for an embedded
        choice that takes no arguments. A plan is compiled once per sense,
        voice and embedding, in the forest's tense or, embedded, the present."""
        unit, built = clauses
        clause = built[positions[unit]]
        if clause is None:
            choice = self.options[unit][positions[unit]]
            if embedded and not choice.sense.is_argument_taking:
                built[positions[unit]] = False
                return False
            passive = choice.passive and not embedded
            key = ("plan", frame.instance_id, choice.sense, passive, embedded)
            if key not in self.built:
                self.built[key] = _compile(
                    self.tmr, frame, choice.sense, self, passive=passive,
                    tense="present" if embedded else self.tense, embedded=embedded)
            clause = built[positions[unit]] = (self.built[key], choice.lemma, {})
        return clause

    def fill(self, positions: tuple[int, ...], clause: tuple,
             path: tuple[str, ...]) -> list[tuple]:
        """The clause's pieces for the set at positions, each verb agreeing
        with the subject if finite. path names the frames whose phrases hold
        this one, outermost first."""
        (steps, verbs, _, _), lemma, by_agreement = clause
        pieces: list[tuple] = []
        subject = ("singular", 3)  # when the construction has none
        for kind, held in steps:
            if kind == _LEAF or kind == _VERB:
                pieces.append(held)
                continue
            unit, mods, entry, verbal = held
            inner = verbal and self.clause(*verbal, positions, embedded=True)
            if inner:
                pieces.append(self.embedded_phrase(positions, verbal[0], inner, path))
                continue
            index = positions[unit]
            for mod in mods:
                index = index * len(self.options[mod]) + positions[mod]
            entry = entry[index]
            pieces.append(entry[0])
            if kind == _SUBJECT:
                subject = entry[1]
        agreeing = by_agreement.get(subject)
        if agreeing is None:
            agreeing = by_agreement[subject] = [
                (index, self.verb(leaf, lemma, subject if agrees else (None, None)))
                for index, leaf, agrees in verbs]
        for index, piece in agreeing:
            pieces[index] = piece
        return pieces

    def verb(self, leaf: Constituent, lemma: str, agreement: tuple) -> tuple:
        """The plan leaf in the lemma, unless it names its own, in the
        agreement's number and person; one piece per forest."""
        key = (leaf, leaf.lemma or lemma, *agreement)
        if key not in self.built:
            features = Features(leaf.features.tense, leaf.features.verb_form, *agreement)
            self.built[key] = _piece(self.tables, Constituent(leaf.function, lemma=key[1],
                                                              features=features))
        return self.built[key]

    def embedded_phrase(self, positions: tuple[int, ...], frame: TmrFrame, clause: tuple,
                        path: tuple[str, ...]) -> tuple:
        path += (frame.instance_id,)
        if frame.instance_id in path[:-1]:
            raise TmrError(f"a frame embeds itself: {' -> '.join(path)}", source=self.tmr.source)
        pieces = self.fill(positions, clause, path)
        return _assemble(self.tables, pieces) + (pieces,)


def build_solution(cs: CandidateSet, forest: Forest) -> CandidateSolution:
    """The root frame's clause as the set's pieces, with its mood and voice;
    unbound frames stay silent. The sets of one request pass one forest and
    share what it builds."""
    if cs.options is not forest.options:
        forest.read(cs.options)
    root_id = forest.root.instance_id
    clause = forest.clause(forest.root, forest.root_clauses, cs.positions, embedded=False)
    _, _, mood, voice = clause[0]
    return CandidateSolution(cs, forest.fill(cs.positions, clause, (root_id,)), mood,
                             forest.tense, voice, root_id)

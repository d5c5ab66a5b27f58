"""Solution building: pick each candidate set's realized pieces.

A set's tree mirrors the head construction's declared syntax. Leaves carry
a lemma plus the features the realizer needs (tense, form, number, person,
case); containers carry ordered children.

The sets of one request share a Forest, which builds what they read once
per candidate: plans, each construction compiled once per frame and sense,
from the reading syntactic pruning kept, into fixed leaves, realized once,
holes and embedded clauses; each hole's piece (its text, whether it ends
in "a", proper names and the node it came from) by candidate position; and
verb pieces by candidate position and subject agreement. One more set
costs two lookups per clause, one index per hole and one assembly per
embedded verb phrase, whose clause takes one stack frame: no node and no
syn-struc walk. A set's tree is built from the nodes its pieces hold when
first read. A frame that embeds itself, directly or through other frames,
is a TmrError.
"""

from __future__ import annotations

import functools
import itertools

from .errors import TmrError
from .pipeline import _HEARER_ROOTS, _SPEAKER_ROOTS, CandidateSense, CandidateSet, modifier_key
from .realizer import MorphTables, _assemble, _piece
from .tmr import RelativeTime, Tmr, TmrFrame, relative_time_of

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
    """The nodes the pieces hold, an embedded verb phrase's pieces made a
    verb-phrase node; the open phrases wait on a stack of their own, so
    phrases may nest as deeply as generation reaches."""
    stack = [(iter(pieces), [])]  # each open phrase's pieces left and nodes made
    while True:
        rest, nodes = stack[-1]
        for *_, node in rest:
            if isinstance(node, list):
                stack.append((iter(node), []))
                break
            nodes.append(node)
        else:
            stack.pop()
            if not stack:
                return tuple(nodes)
            stack[-1][1].append(Constituent("verb-phrase", children=tuple(nodes)))


def derive_tense(frame: TmrFrame, tmr: Tmr) -> str:
    when = relative_time_of(frame, tmr)
    return "present" if when is None else _TENSE_BY_TIME[when]


_ROLE_BY_CATEGORY = {"subj": "subject", "directobject": "direct-object", "n": "nominal"}
_FIXED_BY_CATEGORY = {"aux": "auxiliary", "adv": "adverb", "prep": "preposition"}

_DETERMINER_WORDS = {"indefinite": "a", "definite": "the", "some": "some"}


# A plan item is a piece (a fixed leaf's, or a verb's place, which each
# set fills from the frame's choice unless the leaf names its lemma), a
# hole a set fills from its choices (a nominal or a prepositional phrase),
# the subject nominal, which finite verbs agree with, or a "v" slot's
# frame, whose clause a set embeds as a verb phrase.
_PIECE, _HOLE, _SUBJECT, _EMBED = range(4)


def _compile(frame: TmrFrame, choice: CandidateSense, forest: Forest) -> tuple:
    """The choice's construction as a plan, which no set changes: its items
    in surface order, each (kind, piece, Forest.hole or the frame a "v"
    slot embeds); its verbs, each (position, leaf, whether it agrees with
    the subject); its mood; its voice; and the agreement, (number, person),
    a fixed subject word gives, else the third singular. What it says is
    the reading syntactic pruning kept; fixed leaves are realized here,
    once. Every frame but the root is embedded: no subject, a base-form
    verb, the present. One that takes no arguments is one nominal, in a
    verb phrase where a "v" slot embeds it."""
    hole = forest.hole
    sense = choice.sense
    if not sense.is_argument_taking:
        return ((_HOLE, hole(frame, "nominal")),), (), "declarative", "active", None
    passive, reading = choice.reading
    embedded = frame is not forest.root
    tense = "present" if embedded else forest.tense
    base = embedded or sense.mood == "imperative" or sense.has_aux
    items: list[tuple] = []
    verbs: list[tuple] = []
    subject = ("singular", 3)

    def verb(function: str, agrees: bool, lemma: str | None = None, **features) -> None:
        # finite forms agree with the subject once the clause is filled
        verbs.append((len(items), Constituent(function, lemma=lemma,
                                               features=Features(**features)), agrees))
        items.append((_PIECE, None))

    for category, word, target in reading:
        if category == "head":
            if passive:
                verb("auxiliary", True, "be", tense=tense)
                verb("main-verb", False, verb_form="participle")
            elif base:
                verb("main-verb", False, verb_form="base")
            else:
                verb("main-verb", True, tense=tense)
        elif target is None:
            if category == "subj" and not verbs:  # a fixed subject word, ahead of the head
                lowered = word.lower()
                subject = ("singular", 1 if lowered in _SPEAKER_ROOTS else
                           2 if lowered in _HEARER_ROOTS else 3)
            function = _FIXED_BY_CATEGORY.get(category, "fixed-word")
            items.append((_PIECE, _piece(forest.tables, Constituent(function, lemma=word))))
        elif word:
            items.append((_HOLE, hole(target, "prepositional-phrase", word)))
        elif category == "subject":
            items.append((_SUBJECT, hole(target, "subject")))
        elif category == "v":
            items.append((_EMBED, target))
        else:
            items.append((_HOLE, hole(target, _ROLE_BY_CATEGORY.get(category, "nominal"))))
    return tuple(items), tuple(verbs), sense.mood, "passive" if passive else "active", subject


class Forest:
    """What the sets of one request share: the root frame and its tense, the
    morphology tables, the options the sets hold positions in
    (pipeline.aggregate_sets), and what is built per candidate of them:
    plans and hole tables in built, verb pieces in verbs. A solution holds
    the nodes its tree is built from through its pieces."""

    def __init__(self, tmr: Tmr, root: TmrFrame, tables: MorphTables, options: tuple):
        self.tmr = tmr
        self.root = root
        self.tables = tables
        self.options = options
        self.tense = derive_tense(root, tmr)
        self.unit = {column[0].unit_key: u for u, column in enumerate(options)}
        self.built: dict[tuple, object] = {}
        self.verbs: dict[tuple, list] = {}  # by unit, position and subject agreement

    def hole(self, frame: TmrFrame, function: str, preposition: str | None = None) -> tuple:
        """(unit, modifier units, table): the frame's nominal, or with a
        preposition the phrase that holds it, as (piece, (number, person))
        by the positions of those units, the last fastest."""
        unit = self.unit[frame.instance_id]
        key = (function, preposition, frame.instance_id)
        if key not in self.built:
            mods = [self.unit[modifier_key(frame.instance_id, prop)]
                    for prop in self.options[unit][0].modifiers]
            self.built[key] = mods, [self._nominal(frame, function, preposition, *chosen)
                                     for chosen in itertools.product(
                                         self.options[unit], *map(self.options.__getitem__, mods))]
        return unit, *self.built[key]

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

    def fill(self, positions: tuple[int, ...], frame: TmrFrame,
             path: tuple[str, ...]) -> tuple[tuple, list[tuple]]:
        """The frame's plan and its clause's pieces for the set at positions,
        each verb in the choice's lemma, unless its leaf names its own, and
        agreeing with the subject if finite: a subject hole's agreement, else
        the plan's. A "v" slot's frame is filled as one more clause, which
        takes one stack frame. path names the frames whose phrases hold this
        one, outermost first, and this one."""
        unit = self.unit[frame.instance_id]
        choice = self.options[unit][positions[unit]]
        key = ("plan", frame.instance_id, choice.sense)
        plan = self.built.get(key)
        if plan is None:
            plan = self.built[key] = _compile(frame, choice, self)
        steps, verbs, _, _, subject = plan
        pieces: list[tuple] = []
        for kind, held in steps:
            if kind == _PIECE:
                pieces.append(held)
            elif kind == _EMBED:
                inner = path + (held.instance_id,)
                if held.instance_id in path:
                    raise TmrError(f"a frame embeds itself: {' -> '.join(inner)}",
                                   source=self.tmr.source)
                _, embedded = self.fill(positions, held, inner)
                pieces.append(_assemble(self.tables, embedded) + (embedded,))
            else:
                owner, mods, table = held
                index = positions[owner]
                for mod in mods:
                    index = index * len(self.options[mod]) + positions[mod]
                piece, agreement = table[index]
                pieces.append(piece)
                if kind == _SUBJECT:
                    subject = agreement
        key = (unit, positions[unit], subject)
        agreeing = self.verbs.get(key)
        if agreeing is None:
            agreeing = self.verbs[key] = []
            for index, leaf, agrees in verbs:
                features = Features(leaf.features.tense, leaf.features.verb_form,
                                    *(subject if agrees else (None, None)))
                node = Constituent(leaf.function, lemma=leaf.lemma or choice.lemma,
                                   features=features)
                agreeing.append((index, _piece(self.tables, node)))
        for index, piece in agreeing:
            pieces[index] = piece
        return plan, pieces


def build_solution(cs: CandidateSet, forest: Forest) -> CandidateSolution:
    """The root frame's clause as the set's pieces, with its mood and voice;
    unbound frames stay silent. The sets of one request pass one forest,
    built on their options, and share what it builds. Clauses nested
    deeper than the interpreter's stack holds are a TmrError."""
    root_id = forest.root.instance_id
    try:
        (_, _, mood, voice, _), pieces = forest.fill(cs.positions, forest.root, (root_id,))
    except RecursionError:
        raise TmrError("verb phrases nested too deeply", source=forest.tmr.source) from None
    return CandidateSolution(cs, pieces, mood, forest.tense, voice, root_id)

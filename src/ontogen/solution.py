"""Solution building: pick each candidate set's realized pieces.

A set's tree mirrors the head construction's declared syntax. Leaves carry
a lemma plus the features the realizer needs (tense, form, number, person,
case); containers carry ordered children.

The sets of one request share a Forest. It compiles each construction once
per frame, sense, voice and embedding into a plan of fixed leaves, realized
once, and holes each set fills from its choices; the main verb is a hole
filled by lemma and subject agreement. Each hole's piece (its text, first
token, whether it ends in "a", proper names and the node it came from) is
realized once per request, keyed by the choices the hole reads. One more
set costs one plan lookup, one piece lookup per hole and one assembly per
embedded verb phrase: no node and no syn-struc walk. Its tree is built
from the nodes its pieces hold when first read. A frame that embeds
itself, directly or through other frames, is a TmrError.
"""

from __future__ import annotations

import functools

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
# unless the leaf names one), a nominal, the subject nominal, a "v" slot
# (an embedded phrase when its frame's choice takes arguments, else a
# nominal) or a prepositional phrase.
_LEAF, _VERB, _NOMINAL, _SUBJECT, _VERBAL, _PREPOSITIONAL = range(6)


def _compile(tmr: Tmr, frame: TmrFrame, sense: LexSense, tables: MorphTables, *,
             passive: bool, tense: str, embedded: bool) -> tuple:
    """The construction as a plan, which no set changes: its items in
    surface order, each (kind, piece or target frame, function or
    preposition); its verbs, each (position, leaf, whether it agrees with
    the subject); its mood; and its voice. Fixed leaves are realized here,
    once, and a hole is left for each role whose filler is in the TMR. An
    embedded construction has no subject and a base-form verb; a
    construction that takes no arguments is one nominal."""
    if not sense.is_argument_taking:
        return ((_NOMINAL, frame, "nominal"),), (), "declarative", "active"
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
        items.append((_VERB, None, None))

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
                    items.append((_PREPOSITIONAL, tmr.by_id[filler.id], node.word))
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
            items.append((_LEAF, _piece(tables, Constituent(function, lemma=node.word)), None))
            continue

        prop = bound.get(node.var)
        if prop is None:
            continue
        filler = tmr.filler(frame, prop)
        if filler is None:
            if passive and prop == "AGENT" and category == "subj":
                theme = tmr.filler(frame, "THEME")
                if isinstance(theme, InstanceRef):
                    items.append((_SUBJECT, tmr.by_id[theme.id], "subject"))
            continue
        if (category == "subj" and embedded) or not isinstance(filler, InstanceRef):
            continue
        target = tmr.by_id[filler.id]
        if category == "v":
            items.append((_VERBAL, target, "nominal"))
        elif node.var == subject_var:
            items.append((_SUBJECT, target, "subject"))
        else:
            items.append((_NOMINAL, target, _ROLE_BY_CATEGORY.get(category, "nominal")))
    return tuple(items), tuple(verbs), _mood_of(sense), "passive" if passive else "active"


class Forest:
    """What the candidate sets of one request share: the root frame and its
    tense, the morphology tables, every plan, and every piece built so far.
    An embedded verb phrase is assembled per set.

    A plan is keyed by the values it reads: frame, sense, voice and whether
    it is embedded; a nominal's or prepositional phrase's piece by its
    function, its preposition and the identities of the choices it reads
    (a choice belongs to one frame); a verb's piece by its plan leaf, its
    lemma and the number and person it agrees with. Identity keys are sound
    because a request's sets share their choice objects, synonym clones
    too, and keep them alive while the forest is in use, and the forest
    keeps every leaf it keys; a forest must not outlive the sets it builds.
    A solution holds the nodes its tree is built from through its pieces,
    so the tree can be read after the forest is gone."""

    def __init__(self, tmr: Tmr, root: TmrFrame, tables: MorphTables):
        self.tmr = tmr
        self.root = root
        self.tables = tables
        self.tense = derive_tense(self.root, tmr)
        self.built: dict[tuple, object] = {}

    def nominal(self, cs: CandidateSet, frame: TmrFrame, function: str,
                preposition: str | None = None) -> tuple[tuple, tuple[str, int]]:
        """The frame's nominal, or with a preposition the prepositional
        phrase that holds it, as (piece, (number, person))."""
        choice = cs.choices[frame.instance_id]
        # keyed by the identities of the choices it reads: its own, which
        # stands for the frame since a choice belongs to one frame, and its
        # modifiers'
        key = (function, preposition, id(choice))
        if choice.modifiers:
            key += tuple(id(cs.choices[modifier_key(frame.instance_id, prop)])
                         for prop in choice.modifiers)
        built = self.built.get(key)
        if built is not None:
            return built
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
            for prop in choice.modifiers:
                mod = cs.choices[modifier_key(frame.instance_id, prop)]
                children.append(Constituent("modifier", lemma=mod.lemma))
            children.append(Constituent("noun-head", lemma=choice.lemma, proper=choice.proper,
                                        features=Features(number=number, person=3)))
        if preposition is None:
            node = Constituent(function, children=tuple(children))
        else:
            node = Constituent(function, children=(Constituent("preposition", lemma=preposition),
                                                   Constituent("nominal", children=tuple(children))))
        built = self.built[key] = (_piece(self.tables, node), (number, person))
        return built

    def plan(self, frame: TmrFrame, choice: CandidateSense, embedded: bool) -> tuple:
        """The choice's construction for frame, compiled once per forest: in
        the forest's tense, or in the present when embedded."""
        passive = choice.passive and not embedded
        key = ("plan", frame.instance_id, choice.sense, passive, embedded)
        built = self.built.get(key)
        if built is None:
            built = self.built[key] = _compile(
                self.tmr, frame, choice.sense, self.tables, passive=passive,
                tense="present" if embedded else self.tense, embedded=embedded)
        return built

    def fill(self, cs: CandidateSet, plan: tuple, lemma: str,
             path: tuple[str, ...]) -> list[tuple]:
        """The plan's pieces for this set: each hole filled from the forest,
        then each verb in lemma, agreeing with the subject if finite. path
        names the frames whose phrases hold this one, outermost first."""
        items, verbs, _, _ = plan
        pieces: list[tuple] = []
        subject = ("singular", 3)  # when the construction has none
        for kind, held, function in items:
            if kind == _LEAF or kind == _VERB:
                pieces.append(held)
            elif kind == _PREPOSITIONAL:
                pieces.append(self.nominal(cs, held, "prepositional-phrase", function)[0])
            else:
                inner = cs.choices.get(held.instance_id) if kind == _VERBAL else None
                if inner is not None and inner.sense.is_argument_taking:
                    pieces.append(self.embedded_phrase(cs, held, inner, path))
                    continue
                piece, agreement = self.nominal(cs, held, function)
                pieces.append(piece)
                if kind == _SUBJECT:
                    subject = agreement
        for index, leaf, agrees in verbs:
            # the leaf in the lemma, unless it names its own, and in the
            # subject's number and person when it agrees
            number, person = subject if agrees else (None, None)
            key = (leaf, leaf.lemma or lemma, number, person)
            piece = self.built.get(key)
            if piece is None:
                features = Features(tense=leaf.features.tense, verb_form=leaf.features.verb_form,
                                    number=number, person=person)
                piece = self.built[key] = _piece(self.tables, Constituent(
                    leaf.function, lemma=key[1], features=features))
            pieces[index] = piece
        return pieces

    def embedded_phrase(self, cs: CandidateSet, frame: TmrFrame, choice: CandidateSense,
                        path: tuple[str, ...]) -> tuple:
        path += (frame.instance_id,)
        if frame.instance_id in path[:-1]:
            raise TmrError(f"a frame embeds itself: {' -> '.join(path)}", source=self.tmr.source)
        pieces = self.fill(cs, self.plan(frame, choice, embedded=True), choice.lemma, path)
        return _assemble(self.tables, pieces) + (pieces,)


def build_solution(cs: CandidateSet, forest: Forest) -> CandidateSolution:
    """The root frame's clause as the set's pieces, with its mood and voice;
    unbound frames stay silent. The sets of one request pass one forest and
    share what it builds."""
    frame = forest.root
    choice = cs.choices[frame.instance_id]
    plan = forest.plan(frame, choice, embedded=False)
    return CandidateSolution(candidate_set=cs, mood=plan[2], tense=forest.tense, voice=plan[3],
                             pieces=forest.fill(cs, plan, choice.lemma, (frame.instance_id,)),
                             root_id=frame.instance_id)

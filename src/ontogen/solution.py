"""Solution building: turn a candidate set into a constituent tree.

The tree mirrors the head construction's declared syntax. Leaves carry a
lemma plus the features the realizer needs (tense, form, number, person,
case); containers carry ordered children.

The sets of one request share a Forest. It compiles each construction once
into a plan, whose fixed leaves are built once and whose holes each set
fills from its own choices, and it holds every nominal, prepositional
phrase and agreeing verb built so far. Building one more set looks up the
root plan, fills its holes from the forest and stamps subject agreement: it
costs one lookup per slot, keyed by the identities of the choices the slot
reads, and one new node for its clause and for each embedded verb phrase,
which is filled the same way from its own plan. It walks no syn-struc. A
frame that embeds itself, directly or through other frames, is a TmrError.
"""

from __future__ import annotations

from .errors import TmrError
from .knowledge import LexSense
from .pipeline import CandidateSense, CandidateSet, modifier_key
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
    root frame, whose choice heads the tree; realize sets the sentence and
    names, the proper-name lemmas of the tree in surface order."""

    def __init__(self, candidate_set: CandidateSet, root: Constituent, mood: str, tense: str,
                 voice: str, root_id: str):
        self.candidate_set = candidate_set
        self.root = root
        self.mood = mood
        self.tense = tense
        self.voice = voice
        self.root_id = root_id
        self.sentence = ""
        self.names: tuple[str, ...] = ()


def derive_tense(frame: TmrFrame, tmr: Tmr) -> str:
    when = relative_time_of(frame, tmr)
    if when is None:
        return "present"
    return _TENSE_BY_TIME[when]


_ROLE_BY_CATEGORY = {"subj": "subject", "directobject": "direct-object", "n": "nominal"}
_FIXED_BY_CATEGORY = {"aux": "auxiliary", "adv": "adverb", "prep": "preposition"}

_DETERMINER_WORDS = {"indefinite": "a", "definite": "the", "some": "some"}

# subject agreement when the construction has no subject
_THIRD_SINGULAR = Features(number="singular", person=3)


def _mood_of(sense: LexSense) -> str:
    first = sense.syn_struc[0].category
    if first == "v":
        return "imperative"
    if first == "aux":
        return "interrogative"
    return "declarative"


# A plan item is a fixed leaf or a hole a set fills from its choices: a
# nominal, the subject nominal, a "v" slot (an embedded phrase when its
# frame's choice takes arguments, else a nominal) or a prepositional phrase.
_LEAF, _NOMINAL, _SUBJECT, _VERBAL, _PREPOSITIONAL = range(5)


def _compile(tmr: Tmr, frame: TmrFrame, sense: LexSense, lemma: str, *, passive: bool,
             tense: str, embedded: bool) -> tuple:
    """The construction as a plan, which no set changes: its items in
    surface order, each (kind, leaf or target frame, function or
    preposition); the positions of the verb leaves that agree with the
    subject; and the voice. Fixed leaves are built here, once, and a hole
    is left for each role whose filler is in the TMR. An embedded
    construction has no subject and a base-form verb."""
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
    finite: list[int] = []
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
            if node.word:
                items.append((_LEAF, Constituent("preposition", lemma=node.word), None))
            continue

        if node.var == 0 and not node.word:
            # finite forms agree with the subject once the clause is filled
            if passive:
                finite.append(len(items))
                items.append((_LEAF, Constituent("auxiliary", lemma="be",
                                                 features=Features(tense=tense)), None))
                items.append((_LEAF, Constituent("main-verb", lemma=lemma,
                                                 features=Features(verb_form="participle")), None))
            elif base:
                items.append((_LEAF, Constituent("main-verb", lemma=lemma,
                                                 features=Features(verb_form="base")), None))
            else:
                finite.append(len(items))
                items.append((_LEAF, Constituent("main-verb", lemma=lemma,
                                                 features=Features(tense=tense)), None))
            continue

        if node.word:
            function = _FIXED_BY_CATEGORY.get(category, "fixed-word")
            items.append((_LEAF, Constituent(function, lemma=node.word), None))
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
    return tuple(items), tuple(finite), "passive" if passive else "active"


class Forest:
    """What the candidate sets of one request share: the root frame and its
    tense, every plan, and every nominal, prepositional phrase and agreeing
    verb built so far. An embedded verb phrase is built per set.

    A plan is keyed by the values it reads: frame, sense, lemma, voice and
    whether it is embedded; a nominal by its function and the identities of
    the choices it reads (a choice belongs to one frame); a prepositional
    phrase by its preposition and the nominal it holds; an agreeing verb by
    its plan leaf and the subject's number and person. Identity keys are
    sound because a request's sets share their choice objects, synonym
    clones too, and keep them alive while the forest is in use, and the
    forest keeps every leaf it keys; a forest must not outlive the sets it
    builds."""

    def __init__(self, tmr: Tmr, root: TmrFrame):
        self.tmr = tmr
        self.root = root
        self.tense = derive_tense(self.root, tmr)
        self.built: dict[tuple, object] = {}

    # -- nominals ----------------------------------------------------------

    def nominal(self, cs: CandidateSet, frame: TmrFrame,
                function: str) -> tuple[Constituent, Features]:
        choice = cs.choices[frame.instance_id]
        # keyed by the identities of the choices it reads: its own, which
        # stands for the frame since a choice belongs to one frame, and its
        # modifiers'
        key = (function, id(choice))
        if choice.modifiers:
            key += tuple(id(cs.choices[modifier_key(frame.instance_id, prop)])
                         for prop in choice.modifiers)
        built = self.built.get(key)
        if built is None:
            built = self.built[key] = self._nominal(cs, frame, function, choice)
        return built

    def prepositional_phrase(self, cs: CandidateSet, word: str | None,
                             frame: TmrFrame) -> Constituent:
        obj, _ = self.nominal(cs, frame, "nominal")
        key = ("prepositional-phrase", word, id(obj))
        built = self.built.get(key)
        if built is None:
            built = self.built[key] = Constituent(
                "prepositional-phrase", children=(Constituent("preposition", lemma=word), obj))
        return built

    def _nominal(self, cs: CandidateSet, frame: TmrFrame, function: str,
                 choice: CandidateSense) -> tuple[Constituent, Features]:
        case = "subjective" if function == "subject" else "objective"
        number = "plural" if frame.plural else "singular"

        if choice.is_pronoun:
            ref = choice.sense.reference
            if ref is not None:
                lemma, number, person = choice.lemma, ref.number, ref.person
            else:
                lemma, person = choice.pronoun_form, 3
            head = Constituent("noun-head", lemma=lemma, pronoun=True,
                               features=Features(number=number, person=person, case=case))
            return (Constituent(function, children=(head,)),
                    Features(number=number, person=person))

        children: list[Constituent] = []
        word = _DETERMINER_WORDS.get(choice.determiner)
        if word:
            children.append(Constituent("determiner", lemma=word))
        for prop in choice.modifiers:
            mod = cs.choices[modifier_key(frame.instance_id, prop)]
            children.append(Constituent("modifier", lemma=mod.lemma))
        children.append(Constituent("noun-head", lemma=choice.lemma, proper=choice.proper,
                                    features=Features(number=number, person=3)))
        return (Constituent(function, children=tuple(children)),
                Features(number=number, person=3))

    # -- verbal material ----------------------------------------------------

    def plan(self, frame: TmrFrame, choice: CandidateSense, embedded: bool) -> tuple:
        """The choice's construction for frame, compiled once per forest: in
        the forest's tense, or in the present when embedded."""
        passive = choice.passive and not embedded
        key = ("plan", frame.instance_id, choice.sense, choice.lemma, passive, embedded)
        built = self.built.get(key)
        if built is None:
            built = self.built[key] = _compile(
                self.tmr, frame, choice.sense, choice.lemma, passive=passive,
                tense="present" if embedded else self.tense, embedded=embedded)
        return built

    def fill(self, cs: CandidateSet, plan: tuple, path: tuple[str, ...]) -> list[Constituent]:
        """The plan's children for this set: each hole filled from the
        forest, then each finite verb agreeing with the subject. path names
        the frames whose phrases hold this one, outermost first."""
        items, finite, _ = plan
        children: list[Constituent] = []
        subject = _THIRD_SINGULAR
        for kind, held, function in items:
            if kind == _LEAF:
                children.append(held)
            elif kind == _PREPOSITIONAL:
                children.append(self.prepositional_phrase(cs, function, held))
            else:
                inner = cs.choices.get(held.instance_id) if kind == _VERBAL else None
                if inner is not None and inner.sense.is_argument_taking:
                    children.append(self.embedded_phrase(cs, held, inner, path))
                    continue
                constituent, features = self.nominal(cs, held, function)
                children.append(constituent)
                if kind == _SUBJECT:
                    subject = features
        for index in finite:
            children[index] = self._agreeing(children[index], subject)
        return children

    def _agreeing(self, verb: Constituent, subject: Features) -> Constituent:
        """verb stamped with the subject's number and person, once per forest."""
        key = ("agreement", id(verb), subject.number, subject.person)
        built = self.built.get(key)
        if built is None:
            built = self.built[key] = Constituent(verb.function, lemma=verb.lemma,
                                                  features=Features(tense=verb.features.tense,
                                                                    number=subject.number,
                                                                    person=subject.person))
        return built

    def embedded_phrase(self, cs: CandidateSet, frame: TmrFrame, choice: CandidateSense,
                        path: tuple[str, ...]) -> Constituent:
        path += (frame.instance_id,)
        if frame.instance_id in path[:-1]:
            raise TmrError(f"a frame embeds itself: {' -> '.join(path)}", source=self.tmr.source)
        plan = self.plan(frame, choice, embedded=True)
        return Constituent("verb-phrase", children=tuple(self.fill(cs, plan, path)))

    def clause(self, cs: CandidateSet, frame: TmrFrame,
               choice: CandidateSense) -> tuple[Constituent, str, str]:
        """The clause, its mood and its voice."""
        sense = choice.sense
        if not sense.is_argument_taking:
            nominal, _ = self.nominal(cs, frame, "nominal")
            return Constituent("clause", children=(nominal,)), "declarative", "active"
        plan = self.plan(frame, choice, embedded=False)
        clause = Constituent("clause", children=tuple(self.fill(cs, plan, (frame.instance_id,))))
        return clause, _mood_of(sense), plan[2]


def build_solution(cs: CandidateSet, forest: Forest) -> CandidateSolution:
    """Tree for the root frame's construction; unbound frames stay silent.
    The sets of one request pass one forest and share what they build."""
    root_frame = forest.root
    choice = cs.choices[root_frame.instance_id]
    root, mood, voice = forest.clause(cs, root_frame, choice)
    return CandidateSolution(candidate_set=cs, root=root, mood=mood, tense=forest.tense,
                             voice=voice, root_id=root_frame.instance_id)

"""Solution building: turn a candidate set into a constituent tree.

The tree mirrors the head construction's declared syntax. Leaves carry a
lemma plus the features the realizer needs (tense, form, number, person,
case); containers carry ordered children.
"""

from __future__ import annotations

from .errors import EmptySolution
from .knowledge import LexSense
from .pipeline import CandidateSense, CandidateSet, modifier_key
from .tmr import InstanceRef, RelativeTime, Tmr, TmrFrame, find_root_frame, relative_time_of

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
    """mood is declarative, interrogative or imperative; realize sets the
    sentence."""

    def __init__(self, candidate_set: CandidateSet, root: Constituent, mood: str, tense: str,
                 voice: str, sentence: str | None = None):
        self.candidate_set = candidate_set
        self.root = root
        self.mood = mood
        self.tense = tense
        self.voice = voice
        self.sentence = sentence

    def proper_names(self) -> list[str]:
        return [c.lemma for c in self.root.walk() if c.proper and c.lemma]


def derive_tense(frame: TmrFrame, tmr: Tmr) -> str:
    when = relative_time_of(frame, tmr)
    if when is None:
        return "present"
    return _TENSE_BY_TIME[when]


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


def _pronoun_number(form: str) -> str:
    return "plural" if form in ("they", "them", "we", "us") else "singular"


class Forest:
    """What the candidate sets of one request share: the root frame and its
    tense, and every nominal and embedded phrase built so far, so that sets
    differing in one unit rebuild only what that unit reaches.

    A nominal or embedded phrase is keyed by its frame, its function and
    the identities of every choice it reads; a prepositional phrase by its
    preposition and the nominal it holds. Identity keys are sound because a
    request's sets share their choice objects and keep them alive while the
    forest is in use; a forest must not outlive the sets it builds. Subject
    agreement is stamped per clause, outside the forest."""

    def __init__(self, tmr: Tmr):
        if not tmr.frames:
            raise EmptySolution("the meaning representation has no frames")
        self.tmr = tmr
        self.root = find_root_frame(tmr)
        self.tense = derive_tense(self.root, tmr)
        self.built: dict[tuple, object] = {}


class _Builder:
    def __init__(self, cs: CandidateSet, forest: Forest):
        self.cs = cs
        self.tmr = forest.tmr
        self.built = forest.built

    def _shared(self, key: tuple, make):
        """What make builds, built once per key in the forest."""
        built = self.built.get(key)
        if built is None:
            built = self.built[key] = make()
        return built

    def _reads(self, frame: TmrFrame, choice: CandidateSense) -> tuple[int, ...]:
        """Identities of the choices a nominal for frame reads: its own and
        its modifiers'."""
        return (id(choice),) + tuple(id(self.cs.choices[modifier_key(frame.instance_id, prop)])
                                     for prop in choice.modifiers)

    def _phrase_reads(self, frame: TmrFrame, choice: CandidateSense,
                      outer: tuple[str, ...] = ()) -> tuple:
        """What an embedded phrase for frame reads: its nominal reads and,
        for each frame its roles bind, that frame's, recursively."""
        outer += (frame.instance_id,)
        reads = [self._reads(frame, choice)]
        for prop in choice.sense.bound_roles.values():
            filler = frame.get(prop)
            if isinstance(filler, InstanceRef) and filler.id not in outer:
                target, inner = self.tmr.frame(filler.id), self.cs.choices.get(filler.id)
                if target is not None and inner is not None:
                    reads.append(self._phrase_reads(target, inner, outer))
        return tuple(reads)

    # -- nominals ----------------------------------------------------------

    def nominal(self, frame: TmrFrame, function: str) -> tuple[Constituent, Features]:
        choice = self.cs.choices.get(frame.instance_id)
        if choice is None:
            raise EmptySolution(f"no chosen sense for {frame.instance_id}")
        return self._shared((frame.instance_id, function, self._reads(frame, choice)),
                            lambda: self._nominal(frame, function, choice))

    def prepositional_phrase(self, word: str | None, frame: TmrFrame) -> Constituent:
        obj, _ = self.nominal(frame, "nominal")
        return self._shared(("prepositional-phrase", word, id(obj)), lambda: Constituent(
            "prepositional-phrase", children=(Constituent("preposition", lemma=word), obj)))

    def _nominal(self, frame: TmrFrame, function: str,
                 choice: CandidateSense) -> tuple[Constituent, Features]:
        case = "subjective" if function == "subject" else "objective"
        number = "plural" if frame.plural else "singular"

        if choice.is_pronoun:
            ref = choice.sense.reference
            if ref is not None:
                lemma, number, person = choice.lemma, ref.number, ref.person
            else:
                lemma = choice.decoration.pronoun_form
                number, person = _pronoun_number(lemma), 3
            head = Constituent("noun-head", lemma=lemma, pronoun=True,
                               features=Features(number=number, person=person, case=case))
            return (Constituent(function, children=(head,)),
                    Features(number=number, person=person))

        children: list[Constituent] = []
        decoration = choice.decoration
        determiner = decoration.determiner if decoration else "none"
        word = _DETERMINER_WORDS.get(determiner)
        if word:
            children.append(Constituent("determiner", lemma=word))
        for prop in choice.modifiers:
            mod = self.cs.choices[modifier_key(frame.instance_id, prop)]
            children.append(Constituent("modifier", lemma=mod.lemma))
        children.append(Constituent("noun-head", lemma=choice.lemma, proper=choice.proper,
                                    features=Features(number=number, person=3)))
        return (Constituent(function, children=tuple(children)),
                Features(number=number, person=3))

    # -- verbal material ----------------------------------------------------

    def construction(self, frame: TmrFrame, choice: CandidateSense, *,
                     tense: str, suppress_subject: bool,
                     base_only: bool) -> tuple[list[Constituent], Features, str]:
        """Children for one construction plus subject agreement features."""
        sense = choice.sense
        syn = sense.syn_struc
        bound = sense.bound_roles
        passive = choice.passive and not suppress_subject
        has_aux = any(node.category == "aux" for node in syn)
        subject = Features(number="singular", person=3)
        voice = "passive" if passive else "active"

        # a bound bare nominal ahead of the head verb is the grammatical subject
        subject_var: int | None = None
        for node in syn:
            if node.var == 0 and not node.roots:
                break
            if node.category in ("subj", "n") and not node.roots and node.var in bound:
                subject_var = node.var
                break

        children: list[Constituent] = []
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
                        and not following.roots and following.var in bound:
                    prop = bound[following.var]
                    filler = frame.get(prop)
                    skip = True
                    if not isinstance(filler, InstanceRef):
                        continue  # the whole phrase is omitted, preposition too
                    target = self.tmr.frame(filler.id)
                    if target is None:
                        continue
                    children.append(self.prepositional_phrase(sense.root_choice(node), target))
                    continue
                word = sense.root_choice(node)
                if word:
                    children.append(Constituent("preposition", lemma=word))
                continue

            if node.var == 0 and not node.roots:
                # finite forms agree with the subject once the clause is done
                if passive:
                    children.append(Constituent("auxiliary", lemma="be",
                                                features=Features(tense=tense)))
                    children.append(Constituent("main-verb", lemma=choice.lemma,
                                                features=Features(verb_form="participle")))
                elif base_only or has_aux:
                    children.append(Constituent("main-verb", lemma=choice.lemma,
                                                features=Features(verb_form="base")))
                else:
                    children.append(Constituent("main-verb", lemma=choice.lemma,
                                                features=Features(tense=tense)))
                continue

            if node.roots:
                word = sense.root_choice(node)
                function = _FIXED_BY_CATEGORY.get(category, "fixed-word")
                children.append(Constituent(function, lemma=word))
                continue

            prop = bound.get(node.var)
            if prop is None:
                continue
            filler = frame.get(prop)
            if filler is None:
                if passive and prop == "AGENT" and category == "subj":
                    theme = frame.get("THEME")
                    if isinstance(theme, InstanceRef):
                        target = self.tmr.frame(theme.id)
                        if target is not None:
                            constituent, subject = self.nominal(target, "subject")
                            children.append(constituent)
                continue
            if category == "subj" and suppress_subject:
                continue
            if not isinstance(filler, InstanceRef):
                continue
            target = self.tmr.frame(filler.id)
            if target is None:
                continue
            inner = self.cs.choices.get(target.instance_id)
            if category == "v" and inner is not None and inner.sense.is_argument_taking:
                children.append(self.embedded_phrase(target, inner))
                continue
            function = _ROLE_BY_CATEGORY.get(category, "nominal")
            if node.var == subject_var:
                function = "subject"
            constituent, feats = self.nominal(target, function)
            children.append(constituent)
            if node.var == subject_var:
                subject = feats
        return children, subject, voice

    def embedded_phrase(self, frame: TmrFrame, choice: CandidateSense) -> Constituent:
        def make():
            children, _, _ = self.construction(frame, choice, tense="present",
                                               suppress_subject=True, base_only=True)
            return Constituent("verb-phrase", children=tuple(children))
        return self._shared((frame.instance_id, "verb-phrase",
                             self._phrase_reads(frame, choice)), make)

    def _stamp_agreement(self, children: list[Constituent],
                         subject: Features) -> list[Constituent]:
        out = []
        for child in children:
            if child.function in ("main-verb", "auxiliary") and child.features.tense \
                    and child.features.verb_form is None:
                feats = Features(tense=child.features.tense, number=subject.number,
                                 person=subject.person)
                child = Constituent(child.function, lemma=child.lemma, features=feats)
            out.append(child)
        return out

    def clause(self, frame: TmrFrame, choice: CandidateSense,
               tense: str) -> tuple[Constituent, str, str, str]:
        sense = choice.sense
        if not sense.is_argument_taking:
            nominal, _ = self.nominal(frame, "nominal")
            return Constituent("clause", children=(nominal,)), "declarative", tense, "active"
        mood = _mood_of(sense)
        base_only = mood == "imperative"
        children, subject, voice = self.construction(frame, choice, tense=tense,
                                                     suppress_subject=False,
                                                     base_only=base_only)
        children = self._stamp_agreement(children, subject)
        return Constituent("clause", children=tuple(children)), mood, tense, voice


def build_solution(cs: CandidateSet, tmr: Tmr, forest: Forest | None = None) -> CandidateSolution:
    """Tree for the root frame's construction; unbound frames stay silent.
    The sets of one request pass one forest and share what they build."""
    forest = forest or Forest(tmr)
    root_frame = forest.root
    choice = cs.choices.get(root_frame.instance_id)
    if choice is None:
        raise EmptySolution(f"no chosen sense for root frame {root_frame.instance_id}")
    root, mood, tense, voice = _Builder(cs, forest).clause(root_frame, choice, forest.tense)
    return CandidateSolution(candidate_set=cs, root=root, mood=mood,
                             tense=tense, voice=voice)

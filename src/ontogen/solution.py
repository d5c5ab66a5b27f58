"""Solution building: turn a candidate set into a constituent tree.

The tree mirrors the head construction's declared syntax. Leaves carry a
lemma plus the features the realizer needs (tense, form, number, person,
case); containers carry ordered children.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptySolution
from .knowledge import LexSense
from .pipeline import CandidateSense, CandidateSet
from .tmr import InstanceRef, RelativeTime, Tmr, TmrFrame, find_root_frame, relative_time_of

_TENSE_BY_TIME = {
    RelativeTime.BEFORE: "past",
    RelativeTime.AT: "present",
    RelativeTime.AFTER: "future",
}


@dataclass(frozen=True)
class Features:
    tense: str | None = None
    verb_form: str | None = None  # base | participle
    number: str | None = None
    person: int | None = None
    case: str | None = None  # subjective | objective


@dataclass(frozen=True)
class Constituent:
    function: str
    lemma: str | None = None
    features: Features = Features()
    children: tuple[Constituent, ...] = ()
    proper: bool = False
    pronoun: bool = False

    @property
    def is_leaf(self) -> bool:
        return self.lemma is not None

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class CandidateSolution:
    candidate_set: CandidateSet
    root: Constituent
    mood: str  # declarative | interrogative | imperative
    tense: str
    voice: str
    sentence: str | None = None

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


class _Builder:
    def __init__(self, cs: CandidateSet, tmr: Tmr):
        self.cs = cs
        self.tmr = tmr

    # -- nominals ----------------------------------------------------------

    def nominal(self, frame: TmrFrame, function: str) -> tuple[Constituent, Features]:
        choice = self.cs.choices.get(frame.instance_id)
        if choice is None:
            raise EmptySolution(f"no chosen sense for {frame.instance_id}")
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

        if choice.proper:
            head = Constituent("noun-head", lemma=choice.lemma, proper=True,
                               features=Features(number=number, person=3))
            return (Constituent(function, children=(head,)),
                    Features(number=number, person=3))

        children: list[Constituent] = []
        decoration = choice.decoration
        determiner = decoration.determiner if decoration else "none"
        word = _DETERMINER_WORDS.get(determiner)
        if word:
            children.append(Constituent("determiner", lemma=word))
        for mod in self.cs.choices.values():  # the choices for the frame's property units
            if mod.frame_id == frame.instance_id and mod.unit_key != mod.frame_id:
                children.append(Constituent("modifier", lemma=mod.lemma))
        children.append(Constituent("noun-head", lemma=choice.lemma,
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
                    prep = Constituent("preposition", lemma=sense.root_choice(node))
                    obj, _ = self.nominal(target, "nominal")
                    children.append(Constituent("prepositional-phrase",
                                                children=(prep, obj)))
                    continue
                word = sense.root_choice(node)
                if word:
                    children.append(Constituent("preposition", lemma=word))
                continue

            if node.var == 0 and not node.roots:
                if passive:
                    children.append(Constituent("auxiliary", lemma="be",
                                                features=Features(tense=tense,
                                                                  number=subject.number,
                                                                  person=subject.person)))
                    children.append(Constituent("main-verb", lemma=choice.lemma,
                                                features=Features(verb_form="participle")))
                elif base_only or has_aux:
                    children.append(Constituent("main-verb", lemma=choice.lemma,
                                                features=Features(verb_form="base")))
                else:
                    children.append(Constituent("main-verb", lemma=choice.lemma,
                                                features=Features(tense=tense,
                                                                  number=subject.number,
                                                                  person=subject.person)))
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
        children, _, _ = self.construction(frame, choice, tense="present",
                                           suppress_subject=True, base_only=True)
        return Constituent("verb-phrase", children=tuple(children))

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

    def clause(self, frame: TmrFrame, choice: CandidateSense) -> tuple[Constituent, str, str, str]:
        tense = derive_tense(frame, self.tmr)
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


def build_solution(cs: CandidateSet, tmr: Tmr) -> CandidateSolution:
    """Tree for the root frame's construction; unbound frames stay silent."""
    if not tmr.frames:
        raise EmptySolution("the meaning representation has no frames")
    root_frame = find_root_frame(tmr)
    choice = cs.choices.get(root_frame.instance_id)
    if choice is None:
        raise EmptySolution(f"no chosen sense for root frame {root_frame.instance_id}")
    builder = _Builder(cs, tmr)
    root, mood, tense, voice = builder.clause(root_frame, choice)
    return CandidateSolution(candidate_set=cs, root=root, mood=mood,
                             tense=tense, voice=voice)

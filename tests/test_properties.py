"""Structural invariants checked over randomized small knowledge bases, and
the loaders checked over arbitrary file contents."""
from __future__ import annotations

import contextlib
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import DATA, KB_DIR, TMR_DIR
from genscen import build_scenario, reference_mismatches, tokens_conserved
from ontogen import (
    AllSetsPruned,
    GenerationConfig,
    OntogenError,
    bundled_morphology,
    generate,
    load_config,
    load_frequency,
    load_knowledge_base,
    load_morphology,
    parse_tmr_file,
    pipeline,
    serialize_tmr,
)
from ontogen.cli import _render_json
from ontogen.pipeline import (
    CandidateSense,
    aggregate_sets,
    extract_candidates,
    manage_reference,
    prune_semantic,
    prune_syntactic,
    run_lexical_selection,
)
from ontogen.tmr import Tmr, TmrFrame, find_root_frame

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)
seeds = st.integers(min_value=0, max_value=9999)
scales = st.sampled_from([0.25, 0.5, 2.0, 3.5, 10.0])

TABLES = bundled_morphology()


def _report(seed: int, config: GenerationConfig | None = None):
    kb, tmr = build_scenario(seed)
    try:
        return generate(tmr, kb, config=config)
    except AllSetsPruned:
        assume(False)


def check_product_cardinality(seed: int) -> None:
    """Aggregation combines exactly the per-unit survivors of pruning into
    its base sets (those with no synonym clone); a smaller cap keeps the
    first `cap` base sets with one message; and pruning traces each
    exclusion once."""
    kb, tmr = build_scenario(seed)
    config = GenerationConfig()
    root = find_root_frame(tmr)
    units = manage_reference(extract_candidates(tmr, kb, root), tmr, kb, config)
    trace = {}
    try:
        survivors = prune_syntactic(prune_semantic(units, tmr, config, trace), tmr, root,
                                    trace)
    except AllSetsPruned:
        survivors = None
    assert len(set(trace)) == len(trace)
    if survivors is None:
        return
    expected = math.prod(len(u.candidates) for u in survivors)
    assert expected <= config.set_cap

    def base_signatures(sets):
        return [cs.signature() for cs in sets
                if not any(c.lemma_override for c in cs.choices.values())]

    sets, messages = aggregate_sets(survivors, config)
    signatures = base_signatures(sets)
    assert len(signatures) == expected
    assert messages == []
    assert len(set(signatures)) == expected
    capped, messages = aggregate_sets(survivors, config._replace(set_cap=2))
    assert base_signatures(capped) == signatures[:2]
    assert len(messages) == (expected > 2)


def test_generate_ranks_as_building_every_set_alone():
    """Every fixture, genscen seeds 0-299 and the attached family n = 1..6,
    under the default config and one with inexact sums, rank as
    genscen.rank_every_set does it the long way: each set on its own
    forest, its tree linearized and its total summed as fractions in the
    test."""
    compared, mismatches = reference_mismatches()
    assert compared > 3000
    assert not mismatches, "\n".join(mismatches)


def check_ledger_sums(seed: int) -> None:
    report = _report(seed)
    config = GenerationConfig()
    for scored in report.sentences:
        terms = dict(scored.terms)
        assert math.isclose(scored.total, sum(terms.values()), abs_tol=1e-9)
        deltas = sum(entry.delta for _, entry in scored.ledger)
        assert math.isclose(terms["pipeline"], config.pipeline_weight * deltas, abs_tol=1e-9)


def check_rank_permutation(seed: int) -> None:
    report = _report(seed)
    ranks = [s.rank for s in report.sentences]
    assert ranks == list(range(1, len(ranks) + 1))
    keys = [(-s.total, s.sentence) for s in report.sentences]
    assert keys == sorted(keys)
    sentences = [s.sentence for s in report.sentences]
    assert len(set(sentences)) == len(sentences)


def check_scaling_invariance(seed: int, factor: float) -> None:
    base = GenerationConfig()
    scaled = base._replace(
        pipeline_weight=base.pipeline_weight * factor,
        frequency_weight=base.frequency_weight * factor,
        repetition_penalty=base.repetition_penalty * factor,
        length_tie_break=base.length_tie_break * factor,
    )
    first = _report(seed, base)
    second = _report(seed, scaled)
    assert [s.sentence for s in first.sentences] == [s.sentence for s in second.sentences]


def check_determinism(seed: int) -> None:
    kb_a, tmr_a = build_scenario(seed)
    kb_b, tmr_b = build_scenario(seed)
    assert serialize_tmr(tmr_a) == serialize_tmr(tmr_b)
    try:
        first = generate(tmr_a, kb_a)
        second = generate(tmr_b, kb_b)
    except AllSetsPruned:
        assume(False)
    rows = lambda r: [(s.rank, s.sentence, s.total) for s in r.sentences]
    assert rows(first) == rows(second)
    assert first.counts == second.counts


def check_token_conservation(seed: int) -> None:
    report = _report(seed)
    for scored in report.sentences:
        assert tokens_conserved(scored, TABLES), scored.sentence


@SETTINGS
@given(seed=seeds)
def test_aggregation_is_cartesian_product(seed):
    check_product_cardinality(seed)


@SETTINGS
@given(seed=seeds)
def test_every_score_is_explained_by_its_ledger(seed):
    check_ledger_sums(seed)


@SETTINGS
@given(seed=seeds)
def test_ranks_are_a_permutation_sorted_by_total(seed):
    check_rank_permutation(seed)


@SETTINGS
@given(seed=seeds, factor=scales)
def test_positive_weight_scaling_keeps_the_order(seed, factor):
    check_scaling_invariance(seed, factor)


@SETTINGS
@given(seed=seeds)
def test_identical_inputs_give_identical_reports(seed):
    check_determinism(seed)


@SETTINGS
@given(seed=seeds)
def test_realization_conserves_solution_tokens(seed):
    check_token_conservation(seed)


def _json_report(tmr, kb) -> dict:
    """The full JSON report, or the error that ends the request."""
    try:
        return json.loads(_render_json(generate(tmr, kb), 10 ** 6, True, True))
    except AllSetsPruned as exc:
        return {"error": str(exc), "trace": exc.trace}


@SETTINGS
@given(seed=seeds, picks=st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                                  max_size=3))
def test_unreached_frames_only_add_one_note(seed, picks):
    """Appended frames that nothing attaches to, each a slotless copy of a
    concept of the scenario: the full JSON report is the same, but for one
    added message naming exactly those frames."""
    kb, tmr = build_scenario(seed)
    root = find_root_frame(tmr)
    silent = [TmrFrame(f"{tmr.frames[pick % len(tmr.frames)].concept}-{50 + n}")
              for n, pick in enumerate(picks)]
    extended = Tmr(frames=[*tmr.frames, *silent], speaker_id=tmr.speaker_id,
                   hearer_id=tmr.hearer_id, reference_time=tmr.reference_time,
                   source=tmr.source)
    assume(find_root_frame(extended) is root)
    plain, report = _json_report(tmr, kb), _json_report(extended, kb)
    if "error" in plain:
        assert report == plain
        return
    note = report["messages"].pop(0)
    assert report == plain
    names, _, tail = note.partition(" not expressed: nothing attaches ")
    assert names.split(", ") == [frame.instance_id for frame in silent]
    assert tail == f"{'them' if len(silent) > 1 else 'it'} to {root.instance_id}"


@SETTINGS
@given(seed=seeds)
def test_synonym_expansion_only_changes_the_head_lemma(seed):
    kb, tmr = build_scenario(seed)
    try:
        result = run_lexical_selection(tmr, kb, GenerationConfig())
    except AllSetsPruned:
        assume(False)
    for cs in result.sets:
        for key, choice in cs.choices.items():
            if choice.lemma_override is not None:
                assert choice.lemma_override in choice.sense.synonyms


def test_no_candidate_record_changes_once_aggregation_returns(kb, monkeypatch):
    """Selection narrows candidate records in place until aggregate_sets
    returns. Every set of a request then shares its options, so each
    option is its own record, and each reads the same when the report is
    rendered in full as it did when aggregation returned. Over every
    fixture and genscen seeds 0-49."""
    taken = []

    def aggregate_recorded(units, config):
        sets, messages = aggregate_sets(units, config)
        records = [choice for column in sets[0].options for choice in column]
        taken.append((records, [_fields(choice) for choice in records]))
        return sets, messages

    monkeypatch.setattr(pipeline, "aggregate_sets", aggregate_recorded)
    requests = [(kb, parse_tmr_file(path)) for path in sorted(TMR_DIR.glob("*.json"))]
    requests += [build_scenario(seed) for seed in range(50)]
    checked = 0
    for request_kb, tmr in requests:
        taken.clear()
        with contextlib.suppress(AllSetsPruned):
            _render_json(generate(tmr, request_kb), 10 ** 6, True, True)
        for records, fields in taken:
            assert len({id(choice) for choice in records}) == len(records)
            assert [_fields(choice) for choice in records] == fields
            checked += 1
    assert checked > 40


def _fields(choice: CandidateSense) -> tuple:
    return tuple(getattr(choice, name) for name in CandidateSense.__slots__)


# --- input files ---------------------------------------------------------------

_KB = {kind: KB_DIR / f"{kind}.json" for kind in ("ontology", "lexicon", "memory")}
_LOADERS = {
    "tmr": parse_tmr_file,
    "ontology": lambda path: load_knowledge_base(path, _KB["lexicon"], _KB["memory"]),
    "lexicon": lambda path: load_knowledge_base(_KB["ontology"], path, _KB["memory"]),
    "memory": lambda path: load_knowledge_base(_KB["ontology"], _KB["lexicon"], path),
    "config": load_config,
    "frequency": load_frequency,
    "morphology": load_morphology,
}
# raw bytes, plus UTF-8 text so that most examples reach the JSON decoder
file_bytes = st.binary(max_size=200) | st.text(max_size=200).map(str.encode)


@pytest.mark.parametrize("loader", list(_LOADERS))
@SETTINGS
@given(content=file_bytes)
def test_arbitrary_file_bytes_raise_only_typed_errors(loader, content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_bytes(content)
        with contextlib.suppress(OntogenError):
            _LOADERS[loader](path)


# --- parser bodies -------------------------------------------------------------

# integers past 1e308 are valid JSON that no float can hold
huge_integers = st.integers(min_value=10 ** 308, max_value=10 ** 400) \
    | st.integers(min_value=-10 ** 400, max_value=-10 ** 308)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | huge_integers
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=10),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=10), inner,
                                                               max_size=4),
    max_leaves=10)
# every expressible TMR fixture, each parsed and then generated from
_TMRS = {f"tmr:{path.stem}": path for path in sorted(TMR_DIR.glob("*.json"))
         if path.stem != "empty"}
_BUNDLED = {**_KB, "morphology": DATA / "morphology.json", "config": DATA / "config.json",
            "frequency": DATA / "frequency.json", **_TMRS}


def _paths(value, path=()):
    """The path to every value inside a JSON value, the value itself first."""
    yield path
    children = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


_PATHS = {kind: list(_paths(json.loads(path.read_text()))) for kind, path in _BUNDLED.items()}


@pytest.mark.parametrize("kind", list(_BUNDLED))
@SETTINGS
@given(data=st.data(), junk=json_values)
def test_arbitrary_json_anywhere_in_a_bundled_document_raises_only_typed_errors(kind, data, junk,
                                                                               kb):
    doc = json.loads(_BUNDLED[kind].read_text())
    path = data.draw(st.sampled_from(_PATHS[kind]))
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = junk
    else:
        doc = junk
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "input.json"
        target.write_text(json.dumps(doc))
        with contextlib.suppress(OntogenError):
            if kind in _TMRS:
                generate(parse_tmr_file(target), kb)
            else:
                _LOADERS[kind](target)

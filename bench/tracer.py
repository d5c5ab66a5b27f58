"""In-memory span tracer for the benchmark.

Spans are recorded from the benchmark's side of each layer boundary: the
tracer swaps a module-level function (the global a caller looks up at call
time, such as ``ontogen.engine.realize``) for a wrapper that records the
call, and swaps it back afterwards. The engine itself is not modified.

A span is the tuple ``(request, span_id, parent_id, name, start_ns, end_ns)``
with ``span_id`` equal to its index in ``Tracer.spans``. Times come from
``time.perf_counter_ns``, which on Linux reads the system-wide monotonic
clock, so spans recorded in a child process line up with the parent's.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

perf_ns = time.perf_counter_ns

_STAGES = ("extract_candidates", "manage_reference", "aggregate_sets",
           "prune_semantic", "prune_syntactic", "expand_synonyms")

# (module, attribute, span name). The calls the engine makes between its
# own layers; shared by the library workloads and the traced CLI child.
ENGINE_TARGETS = (
    ("ontogen.engine", "run_lexical_selection", "pipeline.run_lexical_selection"),
    ("ontogen.engine", "build_solution", "solution.build_solution"),
    ("ontogen.engine", "realize", "realizer.realize"),
    ("ontogen.engine", "rank", "selector.rank"),
    ("ontogen.engine", "bundled_morphology", "realizer.bundled_morphology"),
) + tuple(("ontogen.pipeline", stage, f"pipeline.{stage}") for stage in _STAGES)

# What the benchmark calls itself in a library request.
LIBRARY_TARGETS = (
    ("ontogen.tmr", "parse_tmr", "tmr.parse_tmr"),
    ("ontogen.engine", "generate", "engine.generate"),
) + ENGINE_TARGETS

# What ``ontogen.cli.cmd_generate`` calls through its own module globals.
CLI_TARGETS = (
    ("ontogen.cli", "load_knowledge_base", "knowledge.load_knowledge_base"),
    ("ontogen.cli", "parse_tmr_file", "tmr.parse_tmr"),
    ("ontogen.cli", "bundled_frequency", "selector.bundled_frequency"),
    ("ontogen.cli", "generate", "engine.generate"),
) + ENGINE_TARGETS

ONTOLOGY_METHODS = ("ancestors", "is_a", "constraint_on", "satisfies")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.request = 0
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int | None]:
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, parent, name: str, start: int) -> None:
        self._stack.pop()
        self.spans[span_id] = (self.request, span_id, parent, name, start, perf_ns())

    @contextmanager
    def span(self, name: str):
        start = perf_ns()
        span_id, parent = self._open()
        try:
            yield
        finally:
            self._close(span_id, parent, name, start)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_ns()
            span_id, parent = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span_id, parent, name, start)
        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap every target that exists; a layer a later version removed is
        simply absent from the spans."""
        with _patched((module, attr, lambda fn, n=name: self.wrap(fn, n))
                      for module, attr, name in targets):
            yield


@contextmanager
def _patched(replacements):
    saved = []
    try:
        for module_name, attr, make in replacements:
            owner = importlib.import_module(module_name) if isinstance(module_name, str) \
                else module_name
            original = getattr(owner, attr, None)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextmanager
def counting_ontology_calls(counter: list[int]):
    """Count calls to the ontology's lookup methods, nested calls included,
    into ``counter[0]``. Kept apart from span tracing so that the counting
    cost does not inflate the traced stage times."""
    from ontogen.knowledge import Ontology

    def make(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counter[0] += 1
            return fn(*args, **kwargs)
        return counted

    with _patched((Ontology, method, make) for method in ONTOLOGY_METHODS):
        yield


def self_times(spans) -> dict[int, dict[str, list[int]]]:
    """Per request and span name: [self ns, total ns, calls].

    A span's self time is its duration minus the durations of its direct
    children; children nest inside their parent and do not overlap, so the
    self times under a root add up to the root's duration exactly."""
    child_ns: dict[int, int] = {}
    for span in spans:
        if span[2] is not None:
            child_ns[span[2]] = child_ns.get(span[2], 0) + span[5] - span[4]
    out: dict[int, dict[str, list[int]]] = {}
    for request, span_id, _parent, name, start, end in spans:
        entry = out.setdefault(request, {}).setdefault(name, [0, 0, 0])
        entry[0] += end - start - child_ns.get(span_id, 0)
        entry[1] += end - start
        entry[2] += 1
    return out


def write_spans(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write("request\tspan\tparent\tname\tstart_ns\tend_ns\n")
        for request, span_id, parent, name, start, end in spans:
            out.write(f"{request}\t{span_id}\t{'' if parent is None else parent}"
                      f"\t{name}\t{start}\t{end}\n")

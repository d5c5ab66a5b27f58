"""Self-tests for the benchmark: its oracles, inputs, calibration and tracer.

    python3 bench/selftest.py

Run from the repository root. Takes a few seconds and starts a handful of
CLI processes one at a time.
"""

from __future__ import annotations

import itertools
import sys
import unittest
from dataclasses import replace
from unittest import mock

import run
import workloads
from calibration import LoopCalibration, ProcessCalibration
from tracer import Tracer, self_times

sys.path.insert(0, str(run.SRC))
run.OUT.mkdir(exist_ok=True)


def one_cycle(cycle):
    return iter([cycle])


def first_cycle(workload: str, seed: int = 3):
    return next(workloads.cycles(workload, seed))


class OracleTest(unittest.TestCase):
    """A perturbed expected output is counted as a failed request."""

    def failed(self, runner, cycle) -> int:
        return run.measure(runner, one_cycle(cycle), 0, 1, None, LoopCalibration()).failed

    def test_fixtures_top_sentence(self):
        runner = run.LibraryRunner("fixtures")
        cycle = first_cycle("fixtures")
        self.assertEqual(self.failed(runner, cycle), 0)
        perturbed = dict(workloads.FIXTURES,
                         fasten_painting=("Tom secured a painting to a wall.", 10))
        with mock.patch.object(workloads, "FIXTURES", perturbed):
            self.assertEqual(self.failed(runner, cycle), 1)

    def test_scaling_sentence_list(self):
        runner = run.LibraryRunner("scaling")
        cycle = [r for r in first_cycle("scaling") if r.label in ("k=0", "k=1")]
        self.assertEqual(self.failed(runner, cycle), 0)
        perturbed = workloads.SCALING_SENTENCES[:-2] + workloads.SCALING_SENTENCES[:-3:-1]
        with mock.patch.object(workloads, "SCALING_SENTENCES", perturbed):
            self.assertEqual(self.failed(runner, cycle), len(cycle))

    def test_discourse_repetition_count(self):
        runner = run.LibraryRunner("discourse")
        cycle = [r for r in first_cycle("discourse")
                 if r.label in ("walk_named_agent", "fasten_painting")]
        self.assertEqual(self.failed(runner, cycle), 0)
        # the engine sees the real history; the oracle counts one more name
        real_check = workloads.check

        def check_with_extra_mention(workload, request, code, ranked):
            extra = request.history + ("Tom met Johnny.",)
            return real_check(workload, replace(request, history=extra), code, ranked)

        with mock.patch.object(workloads, "check", check_with_extra_mention):
            self.assertEqual(self.failed(runner, cycle), 2)

    def test_cli_top_sentence_and_exit_code(self):
        runner = run.CliRunner()
        cycle = [r for r in first_cycle("cli") if r.label in ("moor_ship", "empty")]
        self.assertEqual(self.failed(runner, cycle), 0)
        perturbed = dict(workloads.FIXTURES, moor_ship=("They moored a ship.", 12),
                         empty=("Nothing.", 1))
        with mock.patch.object(workloads, "FIXTURES", perturbed):
            self.assertEqual(self.failed(runner, cycle), 2)


class InputTest(unittest.TestCase):
    def serialized(self, workload: str, seed: int) -> bytes:
        cycles = itertools.islice(workloads.cycles(workload, seed), 4)
        return repr([list(cycle) for cycle in cycles]).encode()

    def test_one_seed_reproduces_byte_identical_inputs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.serialized(workload, 11), self.serialized(workload, 11))
                self.assertNotEqual(self.serialized(workload, 11),
                                    self.serialized(workload, 12))

    def test_discourse_history_is_full(self):
        for request in first_cycle("discourse"):
            self.assertEqual(len(request.history), workloads.HISTORY_LINES)
            self.assertIn("HUMAN-104", request.context)


class CalibrationTest(unittest.TestCase):
    def test_process_factor_uses_references_on_both_sides(self):
        references = iter(range(1, 100))
        cal = ProcessCalibration(lambda: next(references), every=2)
        tokens = [cal.around(lambda: None)[1] for _ in range(6)]
        cal.finish()
        # a reference before calls 0, 2 and 4, and two after the last call
        self.assertEqual(cal.samples, [1, 2, 3, 4, 5])
        self.assertEqual(tokens, [1, 1, 2, 2, 3, 3])
        ref = ProcessCalibration.reference_ns
        self.assertEqual(cal.factor(1), ref / 2)  # median of 1, 2, 3
        self.assertEqual(cal.factor(2), ref / 2.5)  # of 1, 2, 3, 4
        self.assertEqual(cal.factor(3), ref / 3.5)  # of 2, 3, 4, 5

    def test_reference_process_runs(self):
        cal = ProcessCalibration(run.time_reference, every=1)
        cal.around(lambda: None)
        self.assertGreater(cal.factor(1), 0)


class SpanTest(unittest.TestCase):
    """The self times of a request's spans add up to its traced wall time."""

    def assert_self_times_add_up(self, tracer: Tracer, root_name: str, phase):
        roots = {s[0]: s for s in tracer.spans if s[3] == root_name}
        children: dict[int, list[int]] = {}
        for span in tracer.spans:
            if span[2] is not None:
                children.setdefault(span[2], []).append(span[1])
        for request, root in roots.items():
            subtree, stack = [], [root[1]]
            while stack:
                span_id = stack.pop()
                subtree.append(tracer.spans[span_id])
                stack.extend(children.get(span_id, ()))
            per_name = self_times(subtree)[request]
            self.assertTrue(all(entry[0] >= 0 for entry in per_name.values()), per_name)
            self.assertEqual(sum(entry[0] for entry in per_name.values()), root[5] - root[4])
        # the measured latency, taken around the root span, is in
        # reference-host time; undo the calibration to compare
        self.assertEqual(len(roots), len(phase.latencies))
        for root, latency in zip(sorted(roots.values()), phase.latencies):
            self.assertLessEqual(root[5] - root[4], latency / phase.factors[root[0]] + 1)

    def test_library_request(self):
        for workload in ("fixtures", "scaling"):
            runner = run.LibraryRunner(workload)
            cycle = [r for r in first_cycle(workload) if r.label != "k=4"]
            tracer = Tracer()
            with tracer.installed(run.LIBRARY_TARGETS):
                phase = run.measure(runner, one_cycle(cycle), 0, 1, tracer, LoopCalibration())
            names = {s[3] for s in tracer.spans}
            self.assertLessEqual({"request", "engine.generate", "pipeline.prune_semantic",
                                  "realizer.realize", "selector.rank"}, names)
            self.assert_self_times_add_up(tracer, "request", phase)

    def test_cli_request(self):
        runner = run.CliRunner()
        cycle = [r for r in first_cycle("cli") if r.label in ("moor_ship", "empty")]
        tracer = Tracer()
        phase = run.measure(runner, one_cycle(cycle), 0, 1, tracer, LoopCalibration())
        names = {s[3] for s in tracer.spans}
        self.assertLessEqual({"cli.startup", "cli.import", "cli.main", "engine.generate",
                              "knowledge.load_knowledge_base"}, names)
        self.assert_self_times_add_up(tracer, "cli.request", phase)


if __name__ == "__main__":
    unittest.main()

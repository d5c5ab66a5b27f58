"""ontogen benchmark: one closed-loop caller, no threads.

    python3 bench/run.py --workload {fixtures,scaling,discourse,cli} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the engine is imported from ./src. With
``--trace 0`` it measures requests untraced and reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics and the
tracing overhead. Every output is checked against the oracles in
workloads.py. The last line of stdout is one JSON object; spans of a traced
run are written to .bench_build/spans/<workload>.tsv. See README.md for
the workloads and for which layer metric should move which end-to-end one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from calibration import Calibration, LoopCalibration, ProcessCalibration
from tracer import (LIBRARY_TARGETS, Tracer, counting_ontology_calls, perf_ns, self_times,
                    write_spans)

ROOT = workloads.ROOT
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_build"
MIN_REQUESTS = 100  # p90 then has at least ten samples beyond it
SETUP_PROBES = 15
NS_PER_MS = 1e6


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # see main
    return env


def spawn(argv: list[str], stdout: Path, stderr: Path) -> tuple[int, int, int, int]:
    """Run argv to completion; return (spawn ns, exit ns, exit code, max RSS KiB)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644)]
    start = perf_ns()
    pid = os.posix_spawn(sys.executable, argv, child_env(), file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    end = perf_ns()
    return start, end, os.waitstatus_to_exitcode(status), usage.ru_maxrss


def time_reference() -> int:
    """Spawn-to-exit time of the reference process (calibration.py)."""
    stdout, stderr = OUT / "reference.out", OUT / "reference.err"
    start, end, code, _ = spawn([sys.executable, str(BENCH / "child.py"), "reference"],
                                stdout, stderr)
    if code != 0:
        raise RuntimeError(f"reference process failed: {stderr.read_text()[-2000:]}")
    return end - start


def setup_probes() -> list[dict]:
    """Fresh processes that import ontogen and load the KB and tables, with
    a reference process before every other one."""
    cal = ProcessCalibration(time_reference, every=2)
    raw = []
    for _ in range(SETUP_PROBES):
        stdout, stderr = OUT / "setup.out", OUT / "setup.err"
        (start, _, code, _), token = cal.around(lambda: spawn(
            [sys.executable, str(BENCH / "child.py"), "setup"], stdout, stderr))
        if code != 0:
            raise RuntimeError(f"setup probe failed: {stderr.read_text()[-2000:]}")
        probe = json.loads(stdout.read_text())
        probe["startup_ns"] = probe["t0"] - start
        raw.append((probe, token))
    cal.finish()
    return [{key: value * cal.factor(token) for key, value in probe.items() if key != "t0"}
            for probe, token in raw]


# ---------------------------------------------------------------------------
# one request

def layer_record(counts: dict, trace_pairs, messages: list[str], sentences: int) -> dict:
    return {
        "candidates": counts.get("candidates", 0),
        "sets": counts.get("sets", 0),
        "after_semantic": counts.get("after-semantic", 0),
        "after_synonyms": counts.get("after-synonyms", 0),
        "truncations": sum("truncated" in m for m in messages),
        "trace_records": len(trace_pairs),
        "trace_reasons": len(set(trace_pairs)),
        "sentences": sentences,
    }


class LibraryRunner:
    """A request is parse_tmr plus generate() on a KB loaded once."""

    @staticmethod
    def calibration():
        return LoopCalibration()

    def __init__(self, workload: str):
        import ontogen
        import ontogen.cli
        self.workload, self.library = workload, self
        # a scaling cycle costs about 0.7 s, so a run of --seconds would time
        # each member only about twenty times; see CliRunner
        self.seconds_factor = 1.5 if workload == "scaling" else 1
        self.errors, self.engine, self.tmr_mod, self.cli = (
            ontogen.errors, ontogen.engine, ontogen.tmr, ontogen.cli)
        self.reported = False
        kb_dir = SRC / "ontogen" / "data" / "kb"
        self.kb = ontogen.load_knowledge_base(kb_dir / "ontology.json",
                                              kb_dir / "lexicon.json", kb_dir / "memory.json")
        self.freq = ontogen.bundled_frequency()
        self.morph = ontogen.bundled_morphology()

    def _generate(self, request):
        tmr = self.tmr_mod.parse_tmr(request.tmr)
        return self.engine.generate(tmr, self.kb, freq=self.freq, morph=self.morph,
                                    context=request.context, history=request.history)

    def run(self, request, tracer: Tracer | None):
        """Return (latency ns, outcome ok, layer record or None)."""
        report, code = None, 0
        start = perf_ns()
        try:
            if tracer is None:
                report = self._generate(request)
            else:
                with tracer.span("request"):
                    report = self._generate(request)
        except (self.errors.AllSetsPruned, self.errors.NoRealizableSense):
            code = 2
        except Exception:  # a failed request, not a crash; show the first
            code = 1
            if not self.reported:
                traceback.print_exc()
                self.reported = True
        latency = perf_ns() - start
        ranked = [] if report is None else [
            (s.rank, s.sentence, s.total, dict(s.terms)) for s in report.sentences]
        ok = workloads.check(self.workload, request, code, ranked)
        if tracer is None or report is None:
            return latency, ok, None
        render = getattr(self.cli, "_render_json", None)
        if render is not None:
            with tracer.span("cli.render"):
                render(report, workloads.TOP_ALL, True, True)
        record = layer_record(report.counts, [(r.subject, r.rule) for r in report.trace],
                              report.messages, len(report.sentences))
        return latency, ok, record

    def count_ontology_calls(self, requests) -> list[int]:
        counts = []
        for request in requests:
            counter = [0]
            with counting_ontology_calls(counter):
                try:
                    self._generate(request)
                except self.errors.OntogenError:
                    pass
            counts.append(counter[0])
        return counts


class CliRunner:
    """A request is one `python -m ontogen.cli generate` process."""

    # One process costs about 0.15 s, and its time varies far more than a
    # library call's, so the median of each fixture needs many processes:
    # a cli run measures 2.5 times --seconds, a dozen or so of each.
    seconds_factor = 2.5

    def __init__(self):
        # ontology calls are a property of generate() on the input, so they
        # are counted in-process on the same TMR files, as is the cap probe
        self.library = LibraryRunner("fixtures")
        self.max_rss_kib = 0

    @staticmethod
    def calibration():
        return ProcessCalibration(time_reference, every=4)

    def _argv(self, request, traced: bool) -> list[str]:
        head = [sys.executable, str(BENCH / "child.py"), "cli"] if traced \
            else [sys.executable, "-m", "ontogen.cli"]
        return head + ["generate", "--tmr", str(request.path), "--format", "json",
                       "--trace", "--dump-solutions", "--top", str(workloads.TOP_ALL)]

    def run(self, request, tracer: Tracer | None):
        stdout, stderr = OUT / "cli.out", OUT / "cli.err"
        start, end, code, rss = spawn(self._argv(request, tracer is not None), stdout, stderr)
        self.max_rss_kib = max(self.max_rss_kib, rss)
        doc, ranked = None, []
        if code == 0:
            try:
                doc = json.loads(stdout.read_text(encoding="utf-8"))
                ranked = [(s["rank"], s["sentence"], s["total"], s["terms"])
                          for s in doc["sentences"]]
                ok = len(doc["solutions"]) == len(ranked)
            except (ValueError, KeyError, TypeError):
                code, ok = 1, False
        else:
            ok = stderr.read_text(encoding="utf-8").startswith("error: ")
        ok = ok and workloads.check("cli", request, code, ranked)
        if tracer is None:
            return end - start, ok, None
        self._merge_spans(tracer, stderr, start, end)
        record = None
        if doc is not None:
            record = layer_record(doc["counts"],
                                  [(r["subject"], r["rule"]) for r in doc.get("trace", [])],
                                  doc["messages"], len(ranked))
        return end - start, ok, record

    @staticmethod
    def _merge_spans(tracer: Tracer, stderr: Path, start: int, end: int) -> None:
        """Re-home the child's spans under one cli.request span spanning
        spawn to exit, after a cli.startup span for the interpreter start."""
        last = stderr.read_text(encoding="utf-8").rstrip("\n").rsplit("\n", 1)[-1]
        if not last.startswith("bench-spans "):
            return
        child = json.loads(last[len("bench-spans "):])
        rid, root = tracer.request, len(tracer.spans)
        tracer.spans.append((rid, root, None, "cli.request", start, end))
        tracer.spans.append((rid, root + 1, root, "cli.startup", start, child["t0"]))
        offset = root + 2
        for _, span_id, parent, name, s, e in child["spans"]:
            tracer.spans.append((rid, span_id + offset,
                                 root if parent is None else parent + offset, name, s, e))


# ---------------------------------------------------------------------------
# measurement

class Phase:
    def __init__(self):
        self.latencies: list[float] = []  # ns in reference-host time
        self.labels: list[str] = []  # request kind of each latency
        self.failed = 0
        self.records: list[dict] = []
        self.factors: dict[int, float] = {}  # calibration factor per traced request


def measure(runner, plan, seconds: float, min_requests: int, tracer: Tracer | None,
            cal) -> Phase:
    """Whole cycles until `seconds` have passed and at least `min_requests`
    are done (or three times `seconds`, whichever comes first). `cal` is
    the runner's calibration()."""
    phase = Phase()
    timed = []  # (raw latency ns, calibration token, traced request id)
    start = time.monotonic()
    while True:
        for request in next(plan):
            if tracer is not None:
                tracer.request += 1
            (latency, ok, record), token = cal.around(lambda: runner.run(request, tracer))
            timed.append((latency, token, None if tracer is None else tracer.request))
            phase.labels.append(request.label)
            phase.failed += not ok
            if record is not None:
                phase.records.append(record)
        elapsed = time.monotonic() - start
        if elapsed >= 3 * seconds or (elapsed >= seconds and len(timed) >= min_requests):
            break
    cal.finish()
    for latency, token, request_id in timed:
        factor = cal.factor(token)
        phase.latencies.append(latency * factor)
        if request_id is not None:
            phase.factors[request_id] = factor
    return phase


def typical_latencies(phase: Phase) -> list[float]:
    """Each request's latency replaced by the median of its kind's latencies
    over the run.

    The work of one request kind is fixed, so its latency varies only with
    the host. The median ignores the requests a burst hit, without resting
    on one lucky request as the minimum would. And with an even number of
    kinds, the middle of the raw latencies would fall between two kinds and
    read the extremes of both."""
    by_kind: dict[str, list[float]] = {}
    for label, latency in zip(phase.labels, phase.latencies):
        by_kind.setdefault(label, []).append(latency)
    typical = {label: statistics.median(values) for label, values in by_kind.items()}
    return [typical[label] for label in phase.labels]


def percentile(phase: Phase, q: int) -> float:
    """The q-th percentile of the request mix, in typical latencies."""
    return statistics.quantiles(typical_latencies(phase), n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, runner, phase: Phase, probes: list[dict]) -> dict:
    ok = len(phase.latencies) - phase.failed
    if workload == "cli":
        rss_kib = runner.max_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup = [(p["import_ns"] + p["kb_ns"] + p["tables_ns"]) / 1e9 for p in probes]
    return {
        "request_ms_p50": (percentile(phase, 50) / NS_PER_MS, "ms"),
        "request_ms_p90": (percentile(phase, 90) / NS_PER_MS, "ms"),
        # closed loop, one caller: completed requests over the time spent in
        # them, in typical latencies; oracle checks are not counted
        "requests_per_s": (ok / (sum(typical_latencies(phase)) / 1e9), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }


def per_layer(workload: str, untraced: Phase, traced: Phase, spans, ontology_calls,
              probes: list[dict], cap_failures: int, cal: Calibration) -> dict:
    requests = self_times(spans)
    n = len(requests)

    def mean_ms(name: str, field: int = 0) -> float:
        return sum(r.get(name, (0, 0, 0))[field] * traced.factors.get(rid, 1.0)
                   for rid, r in requests.items()) / n / NS_PER_MS

    def calls(name: str) -> float:
        return sum(r.get(name, (0, 0, 0))[2] for r in requests.values()) / n

    def rec_sum(key: str) -> int:
        return sum(r[key] for r in traced.records)

    def rec_mean(key: str) -> float:
        return rec_sum(key) / max(len(traced.records), 1)

    def probe_ms(*keys: str) -> float:
        return statistics.mean(sum(p[k] for k in keys) for p in probes) / NS_PER_MS

    generate_ms = mean_ms("engine.generate", 1) - mean_ms("realizer.bundled_morphology", 1)
    if workload == "cli":
        startup, imported = mean_ms("cli.startup"), mean_ms("cli.import")
        kb = mean_ms("knowledge.load_knowledge_base")
        load = kb + mean_ms("selector.bundled_frequency") + mean_ms("realizer.bundled_morphology")
        render = mean_ms("cli.main")
    else:
        startup, imported = probe_ms("startup_ns"), probe_ms("import_ns")
        kb, load = probe_ms("kb_ns"), probe_ms("kb_ns", "tables_ns")
        render = mean_ms("cli.render")
    realized = calls("realizer.realize") * n
    ms, count, ratio = "ms", "count", "ratio"
    return {
        "pipeline.extract_candidates.ms": (mean_ms("pipeline.extract_candidates"), ms),
        "pipeline.manage_reference.ms": (mean_ms("pipeline.manage_reference"), ms),
        "pipeline.aggregate_sets.ms": (mean_ms("pipeline.aggregate_sets"), ms),
        "pipeline.prune_semantic.ms": (mean_ms("pipeline.prune_semantic"), ms),
        "pipeline.prune_syntactic.ms": (mean_ms("pipeline.prune_syntactic"), ms),
        "pipeline.expand_synonyms.ms": (mean_ms("pipeline.expand_synonyms"), ms),
        "pipeline.run_lexical_selection.self_ms": (mean_ms("pipeline.run_lexical_selection"), ms),
        "engine.generate.self_ms": (mean_ms("engine.generate"), ms),
        "solution.build_solution.ms": (mean_ms("solution.build_solution"), ms),
        "solution.build_solution.calls": (calls("solution.build_solution"), count),
        "realizer.realize.ms": (mean_ms("realizer.realize"), ms),
        "realizer.realize.calls": (calls("realizer.realize"), count),
        "selector.rank.ms": (mean_ms("selector.rank"), ms),
        "tmr.parse_tmr.ms": (mean_ms("tmr.parse_tmr"), ms),
        "knowledge.load_knowledge_base.ms": (kb, ms),
        "cli.startup_ms": (startup, ms),
        "cli.import_ms": (imported, ms),
        "cli.load_ms": (load, ms),
        "cli.generate_ms": (generate_ms, ms),
        "cli.render_ms": (render, ms),
        "pipeline.candidates": (rec_mean("candidates"), count),
        "pipeline.sets": (rec_mean("sets"), count),
        # base: pipeline.sets
        "pipeline.semantic_keep_ratio": (rec_sum("after_semantic") / max(rec_sum("sets"), 1),
                                         ratio),
        "pipeline.after_synonyms": (rec_mean("after_synonyms"), count),
        "pipeline.truncations": (rec_mean("truncations"), count),
        "pipeline.trace_records": (rec_mean("trace_records"), count),
        "pipeline.trace_reasons": (rec_mean("trace_reasons"), count),
        "pipeline.cap_failures": (cap_failures, count),
        "knowledge.ontology_calls": (statistics.mean(ontology_calls), count),
        # base: realizer.realize.calls
        "selector.distinct_ratio": (rec_sum("sentences") / max(realized, 1), ratio),
        # base of every per-request mean above
        "trace.requests": (n, count),
        "host.calibration_ms": (statistics.median(cal.samples) / NS_PER_MS, ms),
        "trace.overhead_ms": ((percentile(traced, 50) - percentile(untraced, 50))
                              / NS_PER_MS, ms),
    }


def cap_probe(library: LibraryRunner, seed: int) -> int:
    """How many of the over-cap scaling TMRs miss the scaling oracle."""
    ids = workloads.scaling_ids(seed)
    failures = 0
    for k in workloads.CAP_PROBE_KS:
        request = workloads.Request(f"k={k}", workloads.scaling_text(k, ids))
        try:
            sentences = tuple(s.sentence for s in library._generate(request).sentences)
        except library.errors.OntogenError:
            sentences = None
        failures += sentences != workloads.SCALING_SENTENCES
    return failures


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ontogen" / "__init__.py").is_file():
        print(f"error: no ontogen sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    # Every process reads ontogen's compiled bytecode, as an installed
    # package does, whatever PYTHONDONTWRITEBYTECODE says: compiling the
    # sources in each process would make start-up time the compiler's.
    # The runner's own imports write it under src/ before any child starts.
    sys.dont_write_bytecode = False
    import ontogen
    if Path(ontogen.__file__).resolve().parent != SRC / "ontogen":
        print(f"error: imported ontogen from {ontogen.__file__}, not {SRC}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    print(f"host {platform.node()} python {platform.python_version()} "
          f"nproc {os.cpu_count()} workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")

    runner = CliRunner() if args.workload == "cli" else LibraryRunner(args.workload)
    plan = workloads.cycles(args.workload, args.seed)
    cal = runner.calibration()
    probes = setup_probes()
    if args.workload != "cli":
        for request in next(plan):  # warm-up: caches and lazy set-up, untimed
            runner.run(request, None)

    seconds = args.seconds * runner.seconds_factor
    if args.trace == 0:
        phase = measure(runner, plan, seconds, MIN_REQUESTS, None, cal)
        attempted, failed = len(phase.latencies), phase.failed
        metrics = end_to_end(args.workload, runner, phase, probes)
    else:
        untraced = measure(runner, plan, seconds / 2, 1, None, cal)
        tracer = Tracer()
        targets = () if args.workload == "cli" else LIBRARY_TARGETS
        with tracer.installed(targets):
            traced = measure(runner, plan, seconds / 2, 1, tracer, cal)
        ontology_calls = runner.library.count_ontology_calls(next(plan))
        cap_failures = cap_probe(runner.library, args.seed)
        (OUT / "spans").mkdir(exist_ok=True)
        write_spans(tracer.spans, OUT / "spans" / f"{args.workload}.tsv")
        attempted = len(untraced.latencies) + len(traced.latencies)
        failed = untraced.failed + traced.failed
        metrics = per_layer(args.workload, untraced, traced, tracer.spans, ontology_calls,
                            probes, cap_failures, cal)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} attempted {attempted} failed {failed}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

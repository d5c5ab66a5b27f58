"""Load time and peak RSS of large generated knowledge bases.

Each case's three files are written once, by tests/genscen.py's
generators: a broad lexicon of N senses over a shallow or a deep ontology
(genscen.broad_kb), or an IS-A chain of n concepts and no senses
(genscen.isa_chain). Every load then runs in a fresh child process that
imports ontogen from one of the --src trees, times load_knowledge_base
alone and reports its own peak RSS (interpreter and import included;
Linux only, read from /proc/self/status).
The trees alternate, and which goes first alternates from run to run.
Prints one JSON object: per case and tree, every run and the medians.

    PYTHONPATH=src:tests python tests/kbload.py --src src --src ../parent/src --runs 3

These loads take seconds and hundreds of MB each, so they are not tier-1
tests; tests/test_knowledge.py checks a 2,000-concept chain's load.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from genscen import broad_kb, isa_chain, write_kb

CASES = {
    **{f"senses-{n}-{shape}": (lambda n=n, shape=shape: broad_kb(n, shape == "deep"))
       for n in (10_000, 100_000) for shape in ("shallow", "deep")},
    **{f"chain-{n}": (lambda n=n: (isa_chain(n), [])) for n in (1_000, 2_000, 4_000)},
}

# peak RSS is VmHWM, this process's own high-water mark: getrusage's
# ru_maxrss in a child also counts the parent's RSS at the fork
CHILD = """\
import json, re, sys, time
from ontogen import load_knowledge_base
start = time.perf_counter()
kb = load_knowledge_base(*sys.argv[1:4])
load_s = time.perf_counter() - start
with open("/proc/self/status") as status:
    peak_kb = int(re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1))
print(json.dumps({"load_s": load_s, "peak_rss_mb": peak_kb / 1024,
                  "concepts": len(kb.ontology.concepts), "senses": len(kb.lexicon.senses)}))
"""


def load_in_child(src: str, paths: tuple[Path, ...]) -> dict:
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", CHILD, *map(str, paths)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True,
                        help="a source tree to import ontogen from; give one per tree")
    parser.add_argument("--runs", type=int, default=3, help="loads per case and tree")
    parser.add_argument("--case", action="append", choices=sorted(CASES),
                        help="a case to run (default: all)")
    args = parser.parse_args(argv)
    srcs = [str(Path(src).resolve()) for src in args.src]
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in args.case or CASES:
            directory = Path(tmp) / case
            directory.mkdir()
            paths = write_kb(directory, *CASES[case]())
            runs: dict[str, list[dict]] = {src: [] for src in srcs}
            for run in range(args.runs):
                for src in srcs if run % 2 == 0 else reversed(srcs):
                    runs[src].append(load_in_child(src, paths))
            results[case] = {src: {
                "concepts": runs[src][0]["concepts"], "senses": runs[src][0]["senses"],
                "load_s": [round(r["load_s"], 4) for r in runs[src]],
                "peak_rss_mb": [round(r["peak_rss_mb"], 1) for r in runs[src]],
                "load_s_median": round(statistics.median(r["load_s"] for r in runs[src]), 4),
                "peak_rss_mb_median": round(
                    statistics.median(r["peak_rss_mb"] for r in runs[src]), 1),
            } for src in srcs}
            print(case, {src: (entry["load_s_median"], entry["peak_rss_mb_median"])
                         for src, entry in results[case].items()}, file=sys.stderr)
    print(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

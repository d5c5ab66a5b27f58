"""Fresh-process probes started by run.py.

    child.py setup        import ontogen and load the KB, frequency and
                          morphology tables; print the step times as JSON
    child.py cli ARGS...  run ``ontogen.cli.main(ARGS)`` with its layers
                          traced; stdout is the CLI's own, and the spans
                          go to the last line of stderr as JSON
    child.py reference    fixed work that does not touch ontogen, timed
                          from spawn to exit to calibrate process times
                          (see calibration.py)

Run with ``PYTHONPATH=src`` from the repository root.
"""

import time

T0 = time.perf_counter_ns()

import sys  # noqa: E402


def setup() -> int:
    t0 = time.perf_counter_ns()
    import ontogen.cli
    from pathlib import Path
    from ontogen import bundled_frequency, bundled_morphology, load_knowledge_base
    t1 = time.perf_counter_ns()
    kb_dir = Path(ontogen.__file__).parent / "data" / "kb"
    load_knowledge_base(kb_dir / "ontology.json", kb_dir / "lexicon.json",
                        kb_dir / "memory.json")
    t2 = time.perf_counter_ns()
    bundled_frequency()
    bundled_morphology()
    t3 = time.perf_counter_ns()
    import json
    print(json.dumps({"t0": T0, "import_ns": t1 - t0, "kb_ns": t2 - t1,
                      "tables_ns": t3 - t2}))
    return 0


def cli(argv: list[str]) -> int:
    from tracer import CLI_TARGETS, Tracer
    tracer = Tracer()
    with tracer.span("cli.import"):
        import ontogen.cli
    with tracer.installed(CLI_TARGETS), tracer.span("cli.main"):
        code = ontogen.cli.main(argv)
    sys.stdout.flush()
    import json
    print("\nbench-spans " + json.dumps({"t0": T0, "spans": tracer.spans}), file=sys.stderr)
    return code


def reference() -> int:
    """What a CLI process does, in kind: import the standard modules
    ontogen imports, build dataclasses, parse JSON and run pure-Python work."""
    import argparse  # noqa: F401
    import dataclasses
    import datetime  # noqa: F401
    import enum  # noqa: F401
    import json
    import logging  # noqa: F401
    import re
    from pathlib import Path  # noqa: F401
    from calibration import work
    classes = [dataclasses.make_dataclass(f"C{i}", [("a", int), ("b", str, "")], frozen=True)
               for i in range(20)]
    data = json.loads(json.dumps([{"k": i, "v": str(i), "w": [i, i + 1]}
                                  for i in range(4000)]))
    patterns = [re.compile(rf"\b{i}x\w+-(\d+)") for i in range(20)]
    print(len(classes) + len(data) + len(patterns) + sum(work() for _ in range(3)))
    return 0


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    sys.exit({"setup": setup, "reference": reference}.get(mode, lambda: cli(args))())

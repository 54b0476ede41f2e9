"""Record the golden digests that run.py checks at the default seed.

    python3 perfbench/pin.py [--reps N] [--workload NAME ...]

Each repetition of the default workload seed is run once, untraced, and the
sha256 of its trace.tsv and metrics.json text is written to pins.json.
Re-record only when a change is meant to alter behaviour, and say why.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
import tracer
import workloads


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--reps", type=int, default=128)
    p.add_argument("--workload", action="append",
                   choices=workloads.WORKLOADS)
    args = p.parse_args(argv)
    scenario = run.load_manetsec()
    attack_docs = workloads.attack_documents(run.ROOT)
    clock = tracer.RunClock()
    clock.install()
    pins = {"seed": run.DEFAULT_SEED, "workloads": {}}
    if os.path.exists(run.PINS):
        with open(run.PINS, "r", encoding="utf-8") as fh:
            pins = json.load(fh)
    for name in args.workload or workloads.WORKLOADS:
        digests = []
        for rep in range(args.reps):
            runs = workloads.repetition_runs(name, run.DEFAULT_SEED, rep,
                                             attack_docs)
            rec = run.repetition(scenario, clock, runs)
            if rec["problems"]:
                print("error: %s repetition %d: %s"
                      % (name, rep, "; ".join(rec["problems"])),
                      file=sys.stderr)
                return 1
            digests.append(rec["digests"])
        pins["workloads"][name] = digests
        print("pinned %d repetitions of %s" % (len(digests), name))
    with open(run.PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

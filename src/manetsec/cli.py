"""Command line front end.

Three subcommands:

* keygen        derive the pre-distributed identity registry for a scenario
* run           execute a scenario, emit metrics.json and trace.tsv
* verify-trace  re-run a scenario and check a previously written trace

`run` exits 1 when a secure-mode run ends with any attack judged successful
(that is the regression signal); baseline runs are expected to be harmed and
exit 0. Malformed scenarios exit 2 without writing anything, as does an
output path that cannot be written (one "error: cannot write output:" line),
and any other error exits 3 with a one-line "internal error:" message.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from . import identity, scenario, sim

_DISPOSITIONS = frozenset(["delivered", "lost"]
                          + [sim.dropped(r) for r in sim.DROP_REASONS])


class OutputError(Exception):
    """An output file or directory cannot be written."""


def _write_files(files, directory=None) -> None:
    """Write each (path, text) of `files`, first making `directory`."""
    try:
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
        for path, text in files:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as err:
        raise OutputError("cannot write output: %s" % err) from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="manetsec",
        description="deterministic ad hoc network simulator with "
                    "identity-authenticated routing and transport")
    sub = p.add_subparsers(dest="command", required=True)
    scenario_opts = argparse.ArgumentParser(add_help=False)
    scenario_opts.add_argument("--scenario", required=True, metavar="FILE")
    scenario_opts.add_argument("--seed", type=int, default=None,
                               help="override the scenario seed")
    mode_opts = argparse.ArgumentParser(add_help=False)
    mode_opts.add_argument("--mode", choices=scenario.MODES, default=None,
                           help="override the scenario's mode")
    mode_opts.add_argument("--sec-level", type=int, choices=(0, 1),
                           default=None,
                           help="override the scenario's security level")

    kg = sub.add_parser("keygen", parents=[scenario_opts],
                        help="print the identity registry a scenario implies")
    kg.add_argument("--out", metavar="FILE", default=None,
                    help="write registry JSON here instead of stdout")
    kg.set_defaults(fn=cmd_keygen)

    rn = sub.add_parser("run", parents=[scenario_opts, mode_opts],
                        help="execute a scenario")
    rn.add_argument("--out", metavar="DIR", default=None,
                    help="write metrics.json and trace.tsv into this "
                         "directory (default: metrics to stdout)")
    rn.set_defaults(fn=cmd_run)

    vt = sub.add_parser("verify-trace", parents=[scenario_opts, mode_opts],
                        help="re-run a scenario and compare against a saved "
                             "trace")
    vt.add_argument("--trace", required=True, metavar="FILE")
    vt.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (scenario.ScenarioError, OutputError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except Exception as err:
        # a bug, not bad input: one line naming where it was raised, in
        # place of a traceback
        where = traceback.extract_tb(err.__traceback__)[-1]
        print("internal error: %s: %s (%s:%d)"
              % (type(err).__name__, " ".join(str(err).split()),
                 os.path.basename(where.filename), where.lineno),
              file=sys.stderr)
        return 3


def cmd_keygen(args) -> int:
    sc = scenario.parse(scenario.load_file(args.scenario), seed=args.seed)
    reg, _ = scenario.build_registry(sc)
    text = identity.registry_to_json(reg)
    if args.out:
        _write_files([(args.out, text)])
        print("wrote %s (%d identities)" % (args.out, len(sc.nodes)),
              file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _run(args) -> scenario.RunResult:
    """The run a `run` or `verify-trace` command line asks for."""
    return scenario.run_scenario(scenario.load_file(args.scenario),
                                 mode=args.mode, sec_level=args.sec_level,
                                 seed=args.seed)


def cmd_run(args) -> int:
    result = _run(args)
    metrics = result.metrics_json()
    if args.out:
        paths = [os.path.join(args.out, name)
                 for name in ("metrics.json", "trace.tsv")]
        _write_files(zip(paths, (metrics, result.trace_text())), args.out)
        print("wrote %s and %s" % tuple(paths), file=sys.stderr)
    else:
        sys.stdout.write(metrics)

    verdicts = result.metrics.attack_verdicts
    if verdicts:
        print("verdicts: " + ", ".join("%s=%s" % kv
                                       for kv in sorted(verdicts.items())),
              file=sys.stderr)
    if result.scenario.mode == "secure":
        broken = sorted(k for k, v in verdicts.items() if v == "succeeded")
        if broken:
            print("FAIL: attack(s) succeeded against the secure "
                  "configuration: %s" % ", ".join(broken), file=sys.stderr)
            return 1
    return 0


def _lint_trace(text: str):
    """Structural problems in a trace file, as a list of messages."""
    known_kinds = sim.ROUTING_KINDS | sim.SEGMENT_KINDS | {"RAW"}
    problems = []
    last_tick = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split("\t")
        if len(parts) != 6:
            problems.append("line %d: expected 6 tab-separated fields, got %d"
                            % (lineno, len(parts)))
            continue
        tick_s, src, dst, kind, size_s, disp = parts
        if not (tick_s.isascii() and tick_s.isdigit()):
            problems.append("line %d: tick is not an integer" % lineno)
            continue
        tick = int(tick_s)
        if tick < last_tick:
            problems.append("line %d: ticks must not decrease" % lineno)
        last_tick = tick
        if not src or not dst:
            problems.append("line %d: empty endpoint name" % lineno)
        if kind not in known_kinds:
            problems.append("line %d: unknown message kind %r"
                            % (lineno, kind))
        if not (size_s.isascii() and size_s.isdigit()):
            problems.append("line %d: size is not an integer" % lineno)
        if disp not in _DISPOSITIONS:
            problems.append("line %d: unrecognized disposition %r"
                            % (lineno, disp))
    return problems


def cmd_verify(args) -> int:
    try:
        with open(args.trace, "r", encoding="utf-8") as fh:
            recorded = fh.read()
    except OSError as err:
        print("error: cannot read trace: %s" % err, file=sys.stderr)
        return 2
    except UnicodeDecodeError as err:
        problems = ["trace is not UTF-8 (%s)" % err.reason]
    else:
        problems = _lint_trace(recorded)
    if problems:
        for msg in problems[:10]:
            print("lint: %s" % msg, file=sys.stderr)
        print("trace file is structurally invalid", file=sys.stderr)
        return 1
    result = _run(args)
    fresh = result.trace_text()
    if fresh == recorded:
        print("trace matches the re-run (%d records)"
              % len(result.net.trace), file=sys.stderr)
        return 0
    old_lines = recorded.splitlines()
    new_lines = fresh.splitlines()
    for i, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
        if a != b:
            print("first difference at line %d:\n  recorded: %s\n  re-run:   "
                  "%s" % (i, a, b), file=sys.stderr)
            break
    else:
        print("trace length differs: recorded %d lines, re-run %d lines"
              % (len(old_lines), len(new_lines)), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())

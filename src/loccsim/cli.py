"""Command line front end.

Subcommands: ``classify``, ``bound``, ``verdict``, ``run``, ``sweep`` and
``demo``, which takes one of ``prop1``, ``prop2``, ``prop3``, ``intro`` and
``ghz2epr``.  Human-readable tables go to standard output; ``--json PATH``
additionally writes a machine-readable document.  Every rejected input
prints one ``error:`` line to standard error.  Exit codes: 0 on success, 2
on parse or usage errors and unreadable or unwritable files, 3 when
``verdict`` finds a conversion impossible, 1 on other domain errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from .convert import IMPOSSIBLE, catalysis_verdict, splitting_bound
from .errors import LoccSimError, ParseError, SemanticError
from .invariants import ProbeConfig, slocc_class
from .prebuilt import (
    bipartite_catalysis_pair,
    ghz_to_epr,
    intro_teleport,
    prop3,
    prop3_target,
    tripartite_catalysis_pair,
)
from .protofile import _to_float, parse_protocol_file
from .states import ReportFile, _doc, load_state, schmidt, state_to_dict

OPTIMALITY_TOL = 1e-9

# the most points a sweep may tabulate: it builds every point's protocol
# (about 1.9 KB each) before it prints a line, so ten million points would
# ask for some 19 GB
MAX_POINTS = 10_000


def _number(text: str) -> float:
    try:
        return _to_float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _int_from(low: int, high: int | None = None):
    """An argparse type: a decimal integer no smaller than ``low`` and, when
    ``high`` is given, no larger than it."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low or (high is not None and value > high):
            want = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"want an integer {want}, got {text!r}")
        return value

    return parse


def _prob(p: float) -> str:
    return f"{p:.12f}"


# ---------------------------------------------------------------------------
# subcommands: each prints its table and returns (exit code, JSON report)


def _cmd_classify(args):
    s = load_state(args.state)
    info = slocc_class(s)
    print(f"state: {s.fingerprint()}")
    print(f"class: {info.label}")
    ranks = " ".join(f"{p}={r}" for p, r in zip(info.parties, info.ranks))
    print(f"flattening ranks: {ranks}")
    print(f"three-tangle: {_prob(info.tangle)}")
    return 0, {"state": state_to_dict(s), **info.to_dict()}


def _cmd_bound(args):
    src = load_state(args.source)
    dst = load_state(args.target)
    b = splitting_bound(src, dst)
    _print_bound(b)
    return 0, {"source_id": args.source, "target_id": args.target, **b.to_dict()}


def _print_bound(b) -> None:
    for cut, p in sorted(b.per_cut.items()):
        print(f"cut {cut:<8} P = {_prob(p)}")
    print(f"bound: {_prob(b.bound)}")


def _cmd_verdict(args):
    doc = _verdict_report(args, load_state(args.source), load_state(args.target), {})
    return (3 if doc["feasible"] == IMPOSSIBLE else 0), doc


def _verdict_report(args, src, dst, doc: dict) -> dict:
    """Decide the catalysis verdict with the probe seed of ``args``, print
    it, and return ``doc`` followed by the verdict's report."""
    v = catalysis_verdict(src, dst, ProbeConfig(seed=args.seed))
    for party, rs, rt in v.party_ranks:
        print(f"rank({party}): source {rs}, target {rt}")
    if v.product_term_obstruction is not None:
        o = v.product_term_obstruction
        tag = " (heuristic)" if o.heuristic else ""
        print(f"product terms: source {o.source_terms}, target {o.target_terms}{tag}")
    for note in v.notes:
        print(f"note: {note}")
    print(f"verdict: {v.feasible}")
    return {**doc, **v.to_dict()}


def _cmd_run(args):
    try:
        with open(args.protocol, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{args.protocol}: {exc}") from None
    return 0, _doc(_run_report(parse_protocol_file(text, name=args.protocol), {"protocol": args.protocol}))


def _run_report(prepared, head: dict) -> dict:
    """Run the protocol, print its leaves and success probability, and
    return ``head`` followed by the success probability and the branch tree."""
    tree = prepared.run()
    p = tree.success_probability
    print("outcome  probability     status")
    for leaf in tree.leaves():
        print(f"{leaf.record:<8} {_prob(leaf.prob)}  {leaf.status}")
    print(f"success probability: {_prob(p)}")
    return {**head, "success_probability": p, "tree": tree}


def _demo_prop1(args):
    return 0, _verdict_report(args, *bipartite_catalysis_pair(), {"demo": "prop1"})


def _demo_prop2(args):
    src, dst = tripartite_catalysis_pair(args.catalyst)
    print(f"catalyst: {args.catalyst}")
    return 0, _verdict_report(args, src, dst, {"demo": "prop2", "catalyst": args.catalyst})


def _demo_prop3(args):
    a, placement = args.value, args.placement
    prepared = prop3(a, placement)
    doc = _run_report(prepared, {"demo": "prop3", "a": a, "placement": placement})
    b = splitting_bound(prepared.state, prop3_target(placement))
    _print_bound(b)
    achieved = abs(doc["success_probability"] - b.bound) <= OPTIMALITY_TOL
    print(f"optimal: {'achieved' if achieved else 'NOT matched'}")
    labels = {"source_id": f"prop3 input a={a}", "target_id": "prop3 target"}
    return 0, _doc({**doc, "bound": {**labels, **b.to_dict()}, "optimal": achieved})


def _demo_intro(args):
    return 0, _doc(_run_report(intro_teleport(), {"demo": "intro"}))


def _demo_ghz2epr(args):
    doc = _run_report(ghz_to_epr(), {"demo": "ghz2epr"})
    tree, spectra = doc.pop("tree"), {}
    for leaf in tree.leaves():
        coeffs = spectra[leaf.record] = schmidt(leaf.state, ["B"]).tolist()
        pretty = ", ".join(_prob(x) for x in coeffs)
        print(f"outcome {leaf.record}: pair spectrum {{{pretty}}}")
    return 0, _doc({**doc, "spectra": spectra, "tree": tree})


def _cmd_sweep(args):
    grid = np.linspace(args.start, args.stop, args.points).tolist()
    built = [prop3(a, args.placement) for a in grid]  # rejects a bad point before any output
    rows = []
    print("a               engine          closed form 2a  bound")
    for a, prepared in zip(grid, built):
        p = prepared.run().success_probability
        b = splitting_bound(prepared.state, prop3_target(args.placement))
        print(f"{_prob(a)}  {_prob(p)}  {_prob(2 * a)}  {_prob(b.bound)}")
        rows.append({"a": a, "engine": p, "closed_form": 2 * a, "bound": b.bound})
    return 0, _doc({"sweep": "prop3", "placement": args.placement, "rows": rows})


# ---------------------------------------------------------------------------
# wiring


class _UsageError(Exception):
    """A command line the parser rejects."""


class _Parser(argparse.ArgumentParser):
    # subparsers are built with the class of their parent, so one override
    # turns every argparse rejection into an error main reports and returns
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="loccsim",
        description="Local transformations of few-qubit entangled states.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(sub, name, func, summary, *positionals, seed=False):
        p = sub.add_parser(name, help=summary)
        for dest, text in positionals:
            p.add_argument(dest, help=text)
        p.add_argument("--json", metavar="PATH", help="also write a JSON report")
        if seed:
            default = ProbeConfig().seed
            p.add_argument(
                "--seed",
                type=_int_from(0),
                default=default,
                help=f"seed for the randomized rank probes (default {default:#x})",
            )
        p.set_defaults(func=func)
        return p

    command(commands, "classify", _cmd_classify, "SLOCC class of a saved state", ("state", "state JSON file"))
    pair = [("source", "source state JSON file"), ("target", "target state JSON file")]
    command(commands, "bound", _cmd_bound, "bipartite-splitting conversion bound", *pair)
    command(commands, "verdict", _cmd_verdict, "catalysis feasibility verdict", *pair, seed=True)
    command(commands, "run", _cmd_run, "run a protocol file", ("protocol", "protocol text file"))

    demos = commands.add_parser("demo", help="bundled reproductions").add_subparsers(dest="demo", required=True)
    command(demos, "prop1", _demo_prop1, "W vs GHZ with a pair catalyst", seed=True)
    p = command(demos, "prop2", _demo_prop2, "W vs GHZ with a triple catalyst", seed=True)
    p.add_argument("catalyst", nargs="?", choices=["w", "ghz"], default="w", help="catalyst (default w)")
    p = command(demos, "prop3", _demo_prop3, "weights (a, a, 1-2a) + EPR -> GHZ, p = 2a")
    p.add_argument("value", type=_number, metavar="VALUE", help="weight parameter (fractions allowed)")
    p.add_argument("--placement", choices=["BC", "AC"], default="BC", help="helper pair (default BC)")
    command(demos, "intro", _demo_intro, "W-type sharing + EPR -> GHZ by teleportation")
    command(demos, "ghz2epr", _demo_ghz2epr, "GHZ -> EPR pair")

    p = command(commands, "sweep", _cmd_sweep, "tabulate a protocol family over a parameter grid")
    p.add_argument("family", choices=["prop3"])
    p.add_argument("--from", dest="start", type=_number, required=True)
    p.add_argument("--to", dest="stop", type=_number, required=True)
    p.add_argument("--points", type=_int_from(1, MAX_POINTS), default=10)
    p.add_argument("--placement", choices=["BC", "AC"], default="BC")
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        # the report path is opened before the command runs, so an unwritable
        # one fails first; a failed command leaves it as it was
        with ReportFile(args.json) if args.json is not None else contextlib.nullcontext() as report:
            code, doc = args.func(args)
            if report:
                text = json.dumps(doc, indent=2) + "\n"
                sys.stdout.flush()  # a report sent to standard output follows the table
                report.write(text)
        return code
    except (_UsageError, ParseError, SemanticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LoccSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Subcommands: ``classify``, ``bound``, ``verdict``, ``run``, ``demo``,
``sweep``.  Human-readable tables go to standard output; ``--json PATH``
additionally writes a machine-readable document.  Exit codes: 0 on success,
2 on parse or usage errors, 3 when ``verdict`` finds a conversion impossible,
1 on other domain errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .convert import (
    IMPOSSIBLE,
    catalysis_verdict,
    default_rank_probe,
    splitting_bound,
)
from .errors import LoccSimError, ParseError, SemanticError
from .invariants import ProbeConfig, slocc_class
from .prebuilt import (
    PreparedProtocol,
    bipartite_catalysis_pair,
    ghz_to_epr,
    intro_teleport,
    prop3,
    prop3_target,
    tripartite_catalysis_pair,
)
from .protocol import ProtocolResult, run_protocol
from .protofile import _to_float, parse_protocol_file
from .states import load_state, schmidt, state_to_dict

OPTIMALITY_TOL = 1e-9


def _number(text: str) -> float:
    try:
        return _to_float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _prob(p: float) -> str:
    return f"{p:.12f}"


def _jprob(p: float) -> float:
    return float(f"{p:.12g}")


def _emit(args, doc: dict) -> None:
    if getattr(args, "json", None):
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_classify(args) -> int:
    s = load_state(args.state)
    info = slocc_class(s)
    print(f"state: {s.fingerprint()}")
    print(f"class: {info.label}")
    ranks = " ".join(f"{p}={r}" for p, r in zip(info.parties, info.ranks))
    print(f"flattening ranks: {ranks}")
    print(f"three-tangle: {_prob(info.tangle)}")
    _emit(args, {"state": state_to_dict(s), **info.to_dict()})
    return 0


def _cmd_bound(args) -> int:
    src = load_state(args.source)
    dst = load_state(args.target)
    b = splitting_bound(src, dst, source_id=args.source, target_id=args.target)
    _print_bound(b)
    _emit(args, b.to_dict())
    return 0


def _print_bound(b) -> None:
    for cut, p in sorted(b.per_cut.items()):
        print(f"cut {cut:<8} P = {_prob(p)}")
    print(f"bound: {_prob(b.bound)}")


def _cmd_verdict(args) -> int:
    v = _verdict_and_report(args, load_state(args.source), load_state(args.target), {})
    return 3 if v.feasible == IMPOSSIBLE else 0


def _verdict_and_report(args, src, dst, doc: dict):
    """Decide the catalysis verdict with the probe seed of ``args``, print
    it, and write ``doc`` followed by the verdict's report; returns the
    verdict."""
    cfg = ProbeConfig() if args.seed is None else ProbeConfig(seed=args.seed)
    v = catalysis_verdict(src, dst, rank_probe=default_rank_probe(cfg))
    for party, rs, rt in v.party_ranks:
        print(f"rank({party}): source {rs}, target {rt}")
    if v.product_term_obstruction is not None:
        o = v.product_term_obstruction
        tag = " (heuristic)" if o.heuristic else ""
        print(f"product terms: source {o.source_terms}, target {o.target_terms}{tag}")
    for note in v.notes:
        print(f"note: {note}")
    print(f"verdict: {v.feasible}")
    _emit(args, {**doc, **v.to_dict()})
    return v


def _cmd_run(args) -> int:
    with open(args.protocol) as fh:
        text = fh.read()
    state, proto = parse_protocol_file(text, name=args.protocol)
    doc: dict = {"protocol": proto.name}
    _run_and_report(PreparedProtocol(state, proto), doc)
    _emit(args, doc)
    return 0


def _run_and_report(prepared, doc: dict) -> ProtocolResult:
    """Run the protocol, print its leaves and success probability, and add
    both to the report; returns the result."""
    result = run_protocol(prepared.state, prepared.protocol)
    print("outcome  probability     status")
    for leaf in result.leaves():
        print(f"{leaf.record:<8} {_prob(leaf.prob)}  {leaf.status}")
    print(f"success probability: {_prob(result.success_probability)}")
    doc["success_probability"] = _jprob(result.success_probability)
    doc["tree"] = result.root.to_dict()
    return result


def _demo_prop3(args) -> int:
    a = args.value
    placement = args.placement or "BC"
    prepared = prop3(a, placement)
    doc: dict = {"demo": "prop3", "a": a, "placement": placement}
    p = _run_and_report(prepared, doc).success_probability
    b = splitting_bound(
        prepared.state,
        prop3_target(placement),
        source_id=f"prop3 input a={a}",
        target_id="prop3 target",
    )
    _print_bound(b)
    achieved = abs(p - b.bound) <= OPTIMALITY_TOL
    print(f"optimal: {'achieved' if achieved else 'NOT matched'}")
    doc["bound"] = b.to_dict()
    doc["optimal"] = achieved
    _emit(args, doc)
    return 0


def _demo_prop1(args) -> int:
    _verdict_and_report(args, *bipartite_catalysis_pair(), {"demo": "prop1"})
    return 0


def _demo_prop2(args) -> int:
    catalyst = args.value if args.value is not None else "w"
    if catalyst not in ("w", "ghz"):
        print(f"error: demo prop2 takes catalyst w or ghz, got {catalyst!r}", file=sys.stderr)
        return 2
    src, dst = tripartite_catalysis_pair(catalyst)
    print(f"catalyst: {catalyst}")
    _verdict_and_report(args, src, dst, {"demo": "prop2", "catalyst": catalyst})
    return 0


def _demo_intro(args) -> int:
    doc: dict = {"demo": "intro"}
    _run_and_report(intro_teleport(), doc)
    _emit(args, doc)
    return 0


def _demo_ghz2epr(args) -> int:
    doc: dict = {"demo": "ghz2epr"}
    result = _run_and_report(ghz_to_epr(), doc)
    spectra = doc["spectra"] = {}
    for leaf in result.leaves():
        coeffs = schmidt(leaf.state, ["B"]).coeffs
        spectra[leaf.record] = [_jprob(x) for x in coeffs]
        pretty = ", ".join(_prob(x) for x in coeffs)
        print(f"outcome {leaf.record}: pair spectrum {{{pretty}}}")
    doc["tree"] = doc.pop("tree")  # the report keeps spectra before the tree
    _emit(args, doc)
    return 0


# the demos that run the rank probe, so the only ones --seed acts on
_PROBE_DEMOS = ("prop1", "prop2")

_DEMOS = {
    "prop1": _demo_prop1,
    "prop2": _demo_prop2,
    "prop3": _demo_prop3,
    "intro": _demo_intro,
    "ghz2epr": _demo_ghz2epr,
}


def _cmd_demo(args) -> int:
    if args.which == "prop3" and args.value is None:
        print("error: demo prop3 needs the weight parameter, e.g. demo prop3 0.4", file=sys.stderr)
        return 2
    if args.seed is not None and args.which not in _PROBE_DEMOS:
        print(f"error: demo {args.which} runs no rank probe, so --seed has no effect", file=sys.stderr)
        return 2
    if args.placement is not None and args.which != "prop3":
        print(f"error: demo {args.which} uses no helper pair, so --placement has no effect", file=sys.stderr)
        return 2
    return _DEMOS[args.which](args)


def _cmd_sweep(args) -> int:
    if args.family != "prop3":
        print(f"error: unknown sweep family {args.family!r}", file=sys.stderr)
        return 2
    if args.points < 1:
        print(f"error: --points must be at least 1, got {args.points}", file=sys.stderr)
        return 2
    grid = np.linspace(args.start, args.stop, args.points)
    rows = []
    print("a               engine          closed form 2a  bound")
    for a in grid:
        a = float(a)
        prepared = prop3(a, args.placement)
        p = run_protocol(prepared.state, prepared.protocol).success_probability
        b = splitting_bound(prepared.state, prop3_target(args.placement))
        print(f"{_prob(a)}  {_prob(p)}  {_prob(2 * a)}  {_prob(b.bound)}")
        rows.append(
            {"a": _jprob(a), "engine": _jprob(p), "closed_form": _jprob(2 * a), "bound": _jprob(b.bound)}
        )
    _emit(args, {"sweep": "prop3", "placement": args.placement, "rows": rows})
    return 0


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loccsim",
        description="Local transformations of few-qubit entangled states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", metavar="PATH", help="also write a JSON report")

    def seed(p):
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help=f"seed for the randomized rank probes (default {ProbeConfig().seed:#x})",
        )

    p = sub.add_parser("classify", help="SLOCC class of a saved state")
    p.add_argument("state", help="state JSON file")
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("bound", help="bipartite-splitting conversion bound")
    p.add_argument("source", help="source state JSON file")
    p.add_argument("target", help="target state JSON file")
    common(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("verdict", help="catalysis feasibility verdict")
    p.add_argument("source", help="source state JSON file")
    p.add_argument("target", help="target state JSON file")
    common(p)
    seed(p)
    p.set_defaults(func=_cmd_verdict)

    p = sub.add_parser("run", help="run a protocol file")
    p.add_argument("protocol", help="protocol text file")
    common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("demo", help="bundled reproductions")
    p.add_argument("which", choices=sorted(_DEMOS))
    p.add_argument(
        "value",
        nargs="?",
        default=None,
        help="prop3: weight parameter (fractions allowed); prop2: catalyst w|ghz",
    )
    p.add_argument("--placement", choices=["BC", "AC"], help="prop3 only (default BC)")
    common(p)
    seed(p)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("sweep", help="tabulate a protocol family over a parameter grid")
    p.add_argument("family", help="only prop3 is available")
    p.add_argument("--from", dest="start", type=_number, required=True)
    p.add_argument("--to", dest="stop", type=_number, required=True)
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--placement", choices=["BC", "AC"], default="BC")
    common(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "value", None) is not None and args.command == "demo" and args.which == "prop3":
        try:
            args.value = _to_float(args.value)
        except ValueError:
            print(f"error: not a number: {args.value!r}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except (ParseError, SemanticError, json.JSONDecodeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LoccSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

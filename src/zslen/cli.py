"""Command-line front end.

Every subcommand prints either a human-readable text block or, with
``--json``, a schema-stable JSON document (sorted keys, sorted lists), so
identical inputs give byte-identical output.  Exit codes: 0 success, 1
claim or expectation failure, 2 usage error, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .budget import (
    DEFAULT_BUDGET,
    DEFAULT_FACTORIZATION_CAP,
    Budget,
    BudgetExceededError,
    CapExceededError,
)
from .atoms import davenport, enumerate_atoms
from .factorize import (
    LengthSet,
    catenary_of_parts,
    factorizations,
    index_factorizations,
    length_set,
    parse_length_set,
)
from .groups import parse_group
from .lsystem import (
    check_additively_closed,
    decide_length_set,
    delta_bounded,
    delta_star_bounded,
    enumerate_system,
    is_aamp,
    minimal_aamp_bound,
    rho_k,
)
from .sequences import Sequence, format_sequence, parse_sequence
from .verify import run_all, run_scenario, scenario_ids

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _emit(args, payload: dict, text_lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def _support(args, group):
    return parse_sequence(group, args.support).support() if args.support else None


def _seq_payload(seq: Sequence, ls: LengthSet, catenary=None, count=None) -> dict:
    """The JSON keys that ``lengths``, ``factorize`` and ``catenary`` share."""
    return {
        "seq": str(seq),
        "lengths": list(ls.values),
        "delta": list(ls.delta()),
        "catenary": catenary,
        "num_factorizations": count,
    }


def cmd_atoms(args) -> int:
    group = parse_group(args.group)
    support = _support(args, group)
    aset = enumerate_atoms(
        group,
        support,
        max_len=args.max_len,
        budget=args.budget,
    )
    capped = args.max_len is not None and args.max_len < group.order()
    payload = {
        "group": str(group),
        "support": [format_sequence(Sequence(group, [e])) for e in aset.support],
        "davenport": None if capped else aset.max_len,
        "atoms": [str(a) for a in aset.atoms],
        "count": len(aset.atoms),
    }
    summary = f"atoms, Davenport constant {aset.max_len}"
    if capped:  # longer atoms may exist, so max_len is no Davenport constant
        summary = f"atoms of length <= {args.max_len} (search capped below |G|)"
    lines = [f"group {group}: {len(aset.atoms)} {summary}"]
    lines += [f"  {a}" for a in aset.atoms]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_davenport(args) -> int:
    group = parse_group(args.group)
    value = davenport(group, _support(args, group), args.budget)
    payload = {"group": str(group), "davenport": value}
    _emit(args, payload, [str(value)])
    return EXIT_OK


def cmd_factorize(args) -> int:
    group = parse_group(args.group)
    seq = parse_sequence(group, args.seq)
    zs = factorizations(seq, cap=args.cap, budget=args.budget)
    payload = _seq_payload(seq, LengthSet(len(z) for z in zs), count=len(zs))
    payload["factorizations"] = [[str(p) for p in z.parts] for z in zs]
    lines = [f"{len(zs)} factorizations of {seq}"] + [
        "  " + " * ".join(f"[{p}]" for p in z.parts) for z in zs
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_lengths(args) -> int:
    group = parse_group(args.group)
    seq = parse_sequence(group, args.seq)
    ls = length_set(seq, budget=args.budget)
    _emit(args, _seq_payload(seq, ls), [repr(ls)])
    return EXIT_OK


def cmd_catenary(args) -> int:
    group = parse_group(args.group)
    seq = parse_sequence(group, args.seq)
    bud = Budget(args.budget)
    _, zs = index_factorizations(seq, cap=args.cap, budget=bud)
    cat = catenary_of_parts(zs, bud)
    payload = _seq_payload(seq, LengthSet(len(z) for z in zs), cat, len(zs))
    _emit(args, payload, [f"catenary degree {cat} ({len(zs)} factorizations)"])
    return EXIT_OK


def cmd_system(args) -> int:
    group = parse_group(args.group)
    support = _support(args, group)
    system = enumerate_system(group, support, args.bound_kind, args.bound, args.budget)
    payload = {
        "group": str(group),
        "bound_kind": system.bound_kind,
        "bound": system.bound,
        "sets": [
            {"lengths": list(ls.values), "witness": str(w)}
            for ls, w in system.sets
        ],
        "count": len(system.sets),
    }
    lines = [
        f"{len(system.sets)} distinct sets of lengths over {group} "
        f"({system.bound_kind} <= {system.bound})"
    ] + [f"  {ls!r}  e.g. {w}" for ls, w in system.sets]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_decide(args) -> int:
    group = parse_group(args.group)
    target = parse_length_set(args.set)
    res = decide_length_set(group, target, args.budget)
    verdict = {True: "realizable", False: "not realizable", None: "inconclusive"}[
        res.realizable
    ]
    payload = {
        "group": str(group),
        "set": list(target.values),
        "verdict": verdict,
        "witness": str(res.witness) if res.witness is not None else None,
    }
    lines = [verdict if res.witness is None else f"{verdict}: {res.witness}"]
    _emit(args, payload, lines)
    if res.realizable is None:
        return EXIT_BUDGET
    if args.expect is not None:
        expected = args.expect == "realizable"
        if res.realizable is not expected:
            return EXIT_CLAIM_FAILED
    return EXIT_OK


def cmd_closed(args) -> int:
    group = parse_group(args.group)
    report = check_additively_closed(group, bound=args.bound, budget=args.budget)
    payload = {
        "group": str(group),
        "bound": report.bound,
        "verdict": report.verdict,
        "witness_pair": (
            [list(report.witness_pair[0].values), list(report.witness_pair[1].values)]
            if report.witness_pair
            else None
        ),
        "failed_sumset": (
            list(report.failed_sumset.values) if report.failed_sumset else None
        ),
        "inconclusive": [
            {
                "left": list(sc.left.values),
                "right": list(sc.right.values),
                "sumset": list(sc.sumset.values),
            }
            for sc in report.inconclusive
        ],
        "pairs_checked": report.pairs_checked,
        "system_size": report.system_size,
    }
    lines = [f"{group}: {report.verdict} (bound {report.bound})"]
    if report.exhausted_phase:
        payload["exhausted_phase"] = report.exhausted_phase
        lines.append(f"  budget exhausted in {report.exhausted_phase}")
    if report.witness_pair:
        lines.append(
            f"  witness pair {report.witness_pair[0]!r} + {report.witness_pair[1]!r}"
            f" = {report.failed_sumset!r} is not realizable"
        )
    for sc in report.inconclusive:
        lines.append(f"  inconclusive: {sc.left!r} + {sc.right!r} = {sc.sumset!r}")
    _emit(args, payload, lines)
    if report.verdict == "INCONCLUSIVE":
        return EXIT_BUDGET
    return EXIT_OK


def cmd_rho(args) -> int:
    group = parse_group(args.group)
    value = rho_k(group, args.k, args.budget)
    payload = {"group": str(group), "k": args.k, "rho": value}
    _emit(args, payload, [str(value)])
    return EXIT_OK


def cmd_delta(args) -> int:
    group = parse_group(args.group)
    if args.star:
        report = delta_star_bounded(group, args.bound, args.budget)
        payload = {
            "group": str(group),
            "bound": report.bound,
            "kind": "minimal-distances-estimate",
            "entries": [
                {
                    "support": [
                        format_sequence(Sequence(group, [e])) for e in sup
                    ],
                    "estimate": est,
                }
                for sup, est in report.entries
            ],
            "values": list(report.values()),
        }
        lines = [
            f"minimal-distance estimates over {group} at bound {report.bound} "
            f"(bound-dependent, not exact): {sorted(report.values())}"
        ] + [
            "  {" + " ".join(format_sequence(Sequence(group, [e])) for e in sup) + "}"
            f" -> {est}"
            for sup, est in report.entries
        ]
    else:
        support = _support(args, group)
        deltas = delta_bounded(group, support, args.bound, args.budget)
        payload = {
            "group": str(group),
            "bound": args.bound,
            "kind": "distances-at-bound",
            "delta": list(deltas),
        }
        lines = [f"distances observed at bound {args.bound}: {list(deltas)}"]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_aamp(args) -> int:
    target = parse_length_set(args.set)
    if args.min_bound:
        m = minimal_aamp_bound(target, args.d)
        payload = {
            "set": list(target.values),
            "d": args.d,
            "minimal_bound": m,
        }
        _emit(args, payload, [f"minimal fringe bound: {m}"])
        return EXIT_OK
    witness = is_aamp(target, args.d, args.M)
    payload = {
        "set": list(target.values),
        "d": args.d,
        "M": args.M,
        "witness": (
            None
            if witness is None
            else {
                "y": witness.y,
                "period": list(witness.period),
                "head": list(witness.head),
                "central": list(witness.central),
                "tail": list(witness.tail),
            }
        ),
    }
    lines = (
        ["no decomposition"]
        if witness is None
        else [
            f"y={witness.y} period={list(witness.period)} "
            f"head={list(witness.head)} central={list(witness.central)} "
            f"tail={list(witness.tail)}"
        ]
    )
    _emit(args, payload, lines)
    return EXIT_OK if witness is not None else EXIT_CLAIM_FAILED


def cmd_verify(args) -> int:
    if args.scenario == "all":
        scenarios = run_all(heavy=args.heavy, budget=args.budget)
    else:
        scenarios = [
            run_scenario(args.scenario, heavy=args.heavy, budget=args.budget)
        ]
    payload = {
        "scenarios": [
            {
                "scenario": sc.id,
                "group": str(sc.group) if sc.group is not None else None,
                "passed": sc.passed,
                "claims": [
                    {
                        "desc": c.description,
                        "ref": c.reference,
                        "pass": c.passed,
                        "computed": c.computed,
                        "expected": c.expected,
                    }
                    for c in sc.claims
                ],
            }
            for sc in scenarios
        ]
    }
    lines = []
    for sc in scenarios:
        lines.append(f"scenario {sc.id}: {'PASS' if sc.passed else 'FAIL'}")
        for c in sc.claims:
            mark = "ok  " if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.description}")
            if not c.passed:
                lines.append(f"         computed: {c.computed}")
                lines.append(f"         expected: {c.expected}")
    _emit(args, payload, lines)
    return EXIT_OK if all(sc.passed for sc in scenarios) else EXIT_CLAIM_FAILED


def _at_least(least: int):
    """An argparse type: an integer no smaller than ``least``."""

    def limit(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"{value} is below {least}")
        return value

    return limit


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zslen",
        description=(
            "Arithmetic of zero-sum sequences over finite abelian groups: "
            "atoms, Davenport constants, factorizations, sets of lengths, "
            "and additive closure of the length system."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, group=True):
        if group:
            p.add_argument("--group", required=True, help="group spec, e.g. C2xC4 or 2,4")
        p.add_argument("--json", action="store_true", help="JSON output")
        # a string default goes through the type check too, so a bad
        # ZSLEN_BUDGET is a usage error like a bad --budget
        p.add_argument("--budget", type=_at_least(1),
                       default=os.environ.get("ZSLEN_BUDGET") or str(DEFAULT_BUDGET),
                       help=f"node budget (default $ZSLEN_BUDGET, else {DEFAULT_BUDGET})")
        # --threads 0 meant machine parallelism, so 0 stays accepted
        p.add_argument("--threads", type=_at_least(0), default=0,
                       help="accepted for compatibility; has no effect")

    def symmetry(p):
        p.add_argument("--symmetry", action="store_true",
                       help="accepted for compatibility; has no effect")

    def cap(p):
        p.add_argument("--cap", type=_at_least(1), default=DEFAULT_FACTORIZATION_CAP,
                       help="factorization materialization cap")

    p = sub.add_parser("atoms", help="enumerate minimal zero-sum sequences")
    common(p)
    p.add_argument("--support", default=None, help="support elements, e.g. '(0,1) (1,0)'")
    p.add_argument("--max-len", type=int, default=None)
    symmetry(p)
    p.set_defaults(fn=cmd_atoms)

    p = sub.add_parser("davenport", help="Davenport constant")
    common(p)
    p.add_argument("--support", default=None)
    p.set_defaults(fn=cmd_davenport)

    p = sub.add_parser("factorize", help="all factorizations of a zero-sum sequence")
    common(p)
    p.add_argument("--seq", required=True, help="sequence, e.g. '(0,1)^3 (1,0) (1,1)'")
    cap(p)
    p.set_defaults(fn=cmd_factorize)

    p = sub.add_parser("lengths", help="set of lengths of a zero-sum sequence")
    common(p)
    p.add_argument("--seq", required=True)
    p.set_defaults(fn=cmd_lengths)

    p = sub.add_parser("catenary", help="catenary degree of a zero-sum sequence")
    common(p)
    p.add_argument("--seq", required=True)
    cap(p)
    p.set_defaults(fn=cmd_catenary)

    p = sub.add_parser("system", help="all sets of lengths within a bound")
    common(p)
    p.add_argument("--bound", type=int, default=12)
    p.add_argument("--bound-kind", choices=("seq_length", "num_atom_factors"),
                   default="seq_length")
    p.add_argument("--support", default=None)
    p.set_defaults(fn=cmd_system)

    p = sub.add_parser("decide", help="exact realizability of a length set")
    common(p)
    p.add_argument("--set", required=True, help="length set, e.g. '2,4,5' or '{2,4,5}'")
    symmetry(p)
    p.add_argument("--expect", choices=("realizable", "not-realizable"), default=None,
                   help="exit 1 unless the verdict matches")
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("closed", help="additive closure check of the length system")
    common(p)
    p.add_argument("--bound", type=int, default=12)
    symmetry(p)
    p.set_defaults(fn=cmd_closed)

    p = sub.add_parser("rho", help="elasticity-style invariant rho_k")
    common(p)
    p.add_argument("--k", type=int, required=True)
    symmetry(p)
    p.set_defaults(fn=cmd_rho)

    p = sub.add_parser("delta", help="bounded distance-set estimates")
    common(p)
    p.add_argument("--bound", type=int, default=12)
    p.add_argument("--star", action="store_true",
                   help="per-support minimal-distance estimates")
    p.add_argument("--support", default=None)
    p.set_defaults(fn=cmd_delta)

    p = sub.add_parser("aamp", help="almost arithmetical multiprogression check")
    p.add_argument("--set", required=True)
    p.add_argument("--d", type=int, required=True, help="difference")
    p.add_argument("--M", type=int, default=0, help="fringe bound")
    p.add_argument("--min-bound", action="store_true",
                   help="report the minimal fringe bound instead")
    common(p, group=False)
    p.set_defaults(fn=cmd_aamp)

    p = sub.add_parser("verify", help="run named verification scenarios")
    p.add_argument("--scenario", default="all",
                   help="scenario id or 'all'; known: " + ", ".join(scenario_ids()))
    p.add_argument("--heavy", action="store_true", help="include heavy claims")
    common(p, group=False)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (BudgetExceededError, CapExceededError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

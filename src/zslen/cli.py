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
from dataclasses import dataclass

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


@dataclass
class Config:
    """Runtime limits shared by the subcommands."""

    budget: int = DEFAULT_BUDGET
    factorization_cap: int = DEFAULT_FACTORIZATION_CAP
    threads: int = 0  # accepted for compatibility; has no effect

    def __post_init__(self):
        # --threads 0 meant machine parallelism, so 0 stays accepted
        if self.budget < 1 or self.factorization_cap < 1 or self.threads < 0:
            raise ValueError("caps must be >= 1 and thread counts >= 0")


def _emit(args, payload: dict, text_lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def _config(args) -> Config:
    env_budget = os.environ.get("ZSLEN_BUDGET")
    budget = args.budget if args.budget is not None else (
        int(env_budget) if env_budget else DEFAULT_BUDGET
    )
    return Config(
        budget=budget,
        factorization_cap=args.cap,
        threads=args.threads if args.threads is not None else 0,
    )


def _group(args):
    return parse_group(args.group)


def _seq(args, group):
    return parse_sequence(group, args.seq)


def _support(args, group):
    if not getattr(args, "support", None):
        return None
    return [
        e for e in (parse_sequence(group, args.support)).support()
    ]


def _lengths_payload(ls: LengthSet) -> list[int]:
    return list(ls.values)


def cmd_atoms(args) -> int:
    cfg = _config(args)
    group = _group(args)
    support = _support(args, group)
    aset = enumerate_atoms(
        group,
        support,
        max_len=args.max_len,
        budget=cfg.budget,
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
    cfg = _config(args)
    group = _group(args)
    support = _support(args, group)
    if support is None:
        value = davenport(group)
    else:
        value = enumerate_atoms(group, support, budget=cfg.budget).max_len
    payload = {"group": str(group), "davenport": value}
    _emit(args, payload, [str(value)])
    return EXIT_OK


def cmd_factorize(args) -> int:
    cfg = _config(args)
    group = _group(args)
    seq = _seq(args, group)
    zs = factorizations(seq, cap=cfg.factorization_cap, budget=cfg.budget)
    ls = LengthSet(len(z) for z in zs)
    payload = {
        "seq": str(seq),
        "lengths": _lengths_payload(ls),
        "delta": list(ls.delta()),
        "catenary": None,
        "num_factorizations": len(zs),
        "factorizations": [[str(p) for p in z.parts] for z in zs],
    }
    lines = [f"{len(zs)} factorizations of {seq}"] + [
        "  " + " * ".join(f"[{p}]" for p in z.parts) for z in zs
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_lengths(args) -> int:
    cfg = _config(args)
    group = _group(args)
    seq = _seq(args, group)
    ls = length_set(seq, budget=cfg.budget)
    payload = {
        "seq": str(seq),
        "lengths": _lengths_payload(ls),
        "delta": list(ls.delta()),
        "catenary": None,
        "num_factorizations": None,
    }
    _emit(args, payload, [repr(ls)])
    return EXIT_OK


def cmd_catenary(args) -> int:
    cfg = _config(args)
    group = _group(args)
    seq = _seq(args, group)
    bud = Budget(cfg.budget)
    _, zs = index_factorizations(seq, cap=cfg.factorization_cap, budget=bud)
    cat = catenary_of_parts(zs, bud)
    ls = LengthSet(len(z) for z in zs)
    payload = {
        "seq": str(seq),
        "lengths": _lengths_payload(ls),
        "delta": list(ls.delta()),
        "catenary": cat,
        "num_factorizations": len(zs),
    }
    _emit(args, payload, [f"catenary degree {cat} ({len(zs)} factorizations)"])
    return EXIT_OK


def cmd_system(args) -> int:
    cfg = _config(args)
    group = _group(args)
    support = _support(args, group)
    system = enumerate_system(group, support, args.bound_kind, args.bound, cfg.budget)
    payload = {
        "group": str(group),
        "bound_kind": system.bound_kind,
        "bound": system.bound,
        "sets": [
            {"lengths": _lengths_payload(ls), "witness": str(w)}
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
    cfg = _config(args)
    group = _group(args)
    target = parse_length_set(args.set)
    res = decide_length_set(group, target, cfg.budget)
    verdict = {True: "realizable", False: "not realizable", None: "inconclusive"}[
        res.realizable
    ]
    payload = {
        "group": str(group),
        "set": _lengths_payload(target),
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
    cfg = _config(args)
    group = _group(args)
    report = check_additively_closed(group, bound=args.bound, budget=cfg.budget)
    payload = {
        "group": str(group),
        "bound": report.bound,
        "verdict": report.verdict,
        "witness_pair": (
            [_lengths_payload(report.witness_pair[0]), _lengths_payload(report.witness_pair[1])]
            if report.witness_pair
            else None
        ),
        "failed_sumset": (
            _lengths_payload(report.failed_sumset) if report.failed_sumset else None
        ),
        "inconclusive": [
            {
                "left": _lengths_payload(sc.left),
                "right": _lengths_payload(sc.right),
                "sumset": _lengths_payload(sc.sumset),
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
    cfg = _config(args)
    group = _group(args)
    value = rho_k(group, args.k, cfg.budget)
    payload = {"group": str(group), "k": args.k, "rho": value}
    _emit(args, payload, [str(value)])
    return EXIT_OK


def cmd_delta(args) -> int:
    cfg = _config(args)
    group = _group(args)
    if args.star:
        report = delta_star_bounded(group, args.bound, cfg.budget)
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
        deltas = delta_bounded(group, support, args.bound, cfg.budget)
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
    _config(args)  # validates --budget, --cap and --threads like every subcommand
    target = parse_length_set(args.set)
    if args.min_bound:
        m = minimal_aamp_bound(target, args.d)
        payload = {
            "set": _lengths_payload(target),
            "d": args.d,
            "minimal_bound": m,
        }
        _emit(args, payload, [f"minimal fringe bound: {m}"])
        return EXIT_OK
    witness = is_aamp(target, args.d, args.M)
    payload = {
        "set": _lengths_payload(target),
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
    cfg = _config(args)
    if args.scenario == "all":
        scenarios = run_all(heavy=args.heavy, budget=cfg.budget)
    else:
        scenarios = [
            run_scenario(args.scenario, heavy=args.heavy, budget=cfg.budget)
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
        p.add_argument("--budget", type=int, default=None, help="node budget")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility; has no effect")
        p.add_argument("--cap", type=int, default=DEFAULT_FACTORIZATION_CAP,
                       help="factorization materialization cap")

    def symmetry(p):
        p.add_argument("--symmetry", action="store_true",
                       help="accepted for compatibility; has no effect")

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
    p.set_defaults(fn=cmd_factorize)

    p = sub.add_parser("lengths", help="set of lengths of a zero-sum sequence")
    common(p)
    p.add_argument("--seq", required=True)
    p.set_defaults(fn=cmd_lengths)

    p = sub.add_parser("catenary", help="catenary degree of a zero-sum sequence")
    common(p)
    p.add_argument("--seq", required=True)
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
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except CapExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

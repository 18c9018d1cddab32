"""Benchmark worker: answers zslen queries, one JSON object per line.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``, once per round of
queries, so atom sets and length memos start cold in every round, as they
do for one ``zslen`` command.
It prints ``{"ready": true}`` as soon as ``import zslen`` returns, then
answers each query line with its output and the seconds the library calls
took, and answers ``{"stop": true}`` with its peak RSS and, under
``--trace``, the tracer's totals (calls, seconds and counts per layer).

Queries call the public functions the ``zslen`` subcommands call, with the
command-line defaults: budget 5,000,000 per query, factorization cap
200,000 and threads = machine parallelism.

With ``--trace SPANS_FILE`` the worker wraps those functions from outside
(module globals and ``AbelianGroup`` methods), records one span per call
and writes all spans to SPANS_FILE, as JSON lines, when it stops.  The
library is not changed.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import zslen  # set-up time ends when this import returns
from zslen import atoms, factorize, groups, lsystem
from zslen.budget import Budget

BUDGET = 5_000_000
FACTORIZATION_CAP = 200_000
THREADS = os.cpu_count() or 1


def run_decide(q):
    group = zslen.parse_group(q["group"])
    target = factorize.parse_length_set(q["set"])
    res = lsystem.decide_length_set(group, target, BUDGET, symmetry=q["symmetry"])
    verdict = {True: "realizable", False: "not realizable", None: "inconclusive"}[
        res.realizable
    ]
    witness = str(res.witness) if res.witness is not None else None
    return {"verdict": verdict, "witness": witness, "nodes": res.nodes}


def run_closed(q):
    group = zslen.parse_group(q["group"])
    report = lsystem.check_additively_closed(
        group, bound=q["bound"], budget=BUDGET, threads=THREADS
    )
    return {
        "verdict": report.verdict,
        "witness_pair": (
            [list(s.values) for s in report.witness_pair] if report.witness_pair else None
        ),
        "failed_sumset": (
            list(report.failed_sumset.values) if report.failed_sumset else None
        ),
        "inconclusive": len(report.inconclusive),
        "pairs_checked": report.pairs_checked,
        "system_size": report.system_size,
    }


def run_atoms(q):
    group = zslen.parse_group(q["group"])
    budget = Budget(BUDGET)
    aset = atoms.enumerate_atoms(group, symmetry=q["symmetry"], budget=budget)
    return {"count": len(aset.atoms), "davenport": aset.max_len, "nodes": budget.used}


def run_catenary(q):
    group = zslen.parse_group(q["group"])
    seq = zslen.parse_sequence(group, q["seq"])
    zs = factorize.factorizations(seq, cap=FACTORIZATION_CAP, budget=BUDGET)
    cat = factorize.catenary_degree(seq, cap=FACTORIZATION_CAP, budget=BUDGET)
    return {
        "catenary": cat,
        "num_factorizations": len(zs),
        "lengths": sorted({len(z) for z in zs}),
    }


RUNNERS = {
    "decide": run_decide,
    "closed": run_closed,
    "atoms": run_atoms,
    "catenary": run_catenary,
}


def send(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv) -> int:
    tracer = None
    if len(argv) == 2 and argv[0] == "--trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(atoms, factorize, groups, lsystem)
    elif argv:
        sys.stderr.write("usage: worker.py [--trace SPANS_FILE]\n")
        return 2
    send({"ready": True})
    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("stop"):
            reply = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
            if tracer is not None:
                reply["layers"] = tracer.totals()
                tracer.write_spans(argv[1])
            send(reply)
            return 0
        if tracer is not None:
            tracer.query_id = msg["id"]
        start = time.perf_counter()
        try:
            out = RUNNERS[msg["kind"]](msg)
        except Exception as exc:  # a failed query is reported, not fatal
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        else:
            reply = {"out": out}
        send({"id": msg["id"], "s": time.perf_counter() - start, **reply})
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

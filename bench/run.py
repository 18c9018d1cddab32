#!/usr/bin/env python3
"""The zslen benchmark.

    python3 bench/run.py --workload oracle|closure|structure --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  The client makes the workload's queries
from the seed and sends them to a worker process (``worker.py``, importing
``zslen`` from ``src``) in a closed loop: one client, and the next query
is sent only when the previous answer has arrived.  Queries come in rounds
that each hold the workload's whole menu (``workloads.py``), and every
round gets a fresh worker, so each round starts with cold atom sets and
length memos, as a ``zslen`` command does.  ``--seconds`` sets the number
of whole rounds a run makes: ``ROUNDS`` per 30 seconds, so that a run at
the commit that defined the benchmark lasts 35 to 45 s on a shared 2-core
host.  A fixed number of rounds keeps the samples that the median and
tail latency are taken from the same on both sides of a comparison, and
from run to run; a faster program makes a shorter run.  Every answer is
checked (``checks.py``); a query that raises, answers wrongly or answers
inconclusive counts as failed.

``--trace 0`` prints the end-to-end metrics: set-up time (median over the
run's worker start-ups, at least five, each from spawn until ``import
zslen`` returns), queries per second, median and tail latency and the
highest peak RSS of the run's workers.  A query's latency is the time its
library calls take, timed in the worker; queries per second is completed
queries over the sum of those times.  Both leave out the pipe round trip
between client and worker, which is not part of zslen and costs about a
millisecond a query on a busy host, as much as the median oracle query;
the run's wall time is reported with the facts.
``--trace 1`` runs a fixed number of rounds once untraced and once traced
(``tracer.py``), and prints the per-layer metrics of the traced pass and
the queries per second of both passes; the difference is the tracing
overhead.  Spans are written to ``bench/out``, one JSON-lines file per
traced worker.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name and unit, the tail percentile and its sample
count, and the machine facts.

Other modes:
    --record-reference   answer every menu query once and write reference.json
    --baseline           check the node counts the ROADMAP baseline states,
                         each in two fresh workers

``zslen verify --scenario all`` is not a workload: it takes about 62 s per
run, so the 22 runs each side of a comparison needs would take over
twenty minutes per side.  Its heavy scenarios are covered here: prop-3.9
by ``oracle``; lemma-3.5, lemma-3.5_2 and lemma-3.4 (length sets and
factorizations of products of atoms, atom sets of subsets) by
``structure`` and ``closure``.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import tracer
import workloads
from checks import Checker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

SETUP_SAMPLES = 5
# whole rounds per 30 s of --seconds (see the module docstring); a round
# takes about 9 s (oracle), 6 s (closure) and 15 s (structure).  With 6
# closure rounds the tail sample is one of the 12 answers of the two
# bound-8 scans of order 16.
ROUNDS = {"oracle": 4, "closure": 6, "structure": 3}
# rounds run twice (untraced, then traced) by --trace 1
TRACE_ROUNDS = {"oracle": 3, "closure": 3, "structure": 1}
# The whole program ends within 180 s: no query is sent after STOP_SENDING_S
# and no reply is awaited after GIVE_UP_S (counted from start-up); a reply
# that has not come by then ends the run without a result.
STARTED = time.perf_counter()
STOP_SENDING_S = 140.0
GIVE_UP_S = 165.0


class WorkerError(RuntimeError):
    pass


class Worker:
    """One worker process and its line protocol."""

    def __init__(self, trace_file: Path | None = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        args = [sys.executable, str(BENCH / "worker.py")]
        if trace_file is not None:
            args += ["--trace", str(trace_file)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            args, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT
        )
        self._buf = b""
        try:
            ready = self.recv()
        except WorkerError:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start
        if not ready.get("ready"):
            raise WorkerError(f"worker did not start: {ready}")

    def send(self, obj) -> None:
        self.proc.stdin.write(json.dumps(obj).encode() + b"\n")
        self.proc.stdin.flush()

    def recv(self) -> dict:
        deadline = STARTED + GIVE_UP_S
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise WorkerError("worker timed out")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise WorkerError(f"worker exited with code {self.proc.wait()}")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def stop(self) -> dict:
        try:
            self.send({"stop": True})
            return self.recv()
        finally:
            self.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def inputs(q: dict) -> dict:
    """What the worker receives: the query without client-side labels."""
    return {k: v for k, v in q.items() if k != "base"}


class Served(NamedTuple):
    records: list  # (query, reply, seconds in the library), one per query
    wall_s: float
    rounds: int  # whole rounds done
    setups: list  # set-up seconds of each round's worker
    stops: list  # the stop reply of each round's worker


def serve(stream, n_rounds: int, trace_prefix=None) -> Served:
    """Closed loop over ``n_rounds`` whole rounds, each on a fresh worker.
    With a trace prefix the workers trace and round i writes its spans to
    ``<prefix>-<i>.jsonl``."""
    records, setups, stops = [], [], []
    late = False
    start = time.perf_counter()
    while not late and len(stops) < n_rounds:
        trace_file = None
        if trace_prefix is not None:
            trace_file = trace_prefix.with_name(f"{trace_prefix.name}-{len(stops)}.jsonl")
        worker = Worker(trace_file)
        try:
            setups.append(worker.setup_s)
            for q in next(stream):
                late = time.perf_counter() - STARTED > STOP_SENDING_S
                if late:
                    break
                worker.send({**inputs(q), "id": len(records)})
                reply = worker.recv()
                records.append((q, reply, reply["s"]))
            stops.append(worker.stop())
        finally:
            worker.close()
    done = len(stops) - late
    return Served(records, time.perf_counter() - start, done, setups, stops)


def judge(checker: Checker, records) -> list[str]:
    """One entry per failed query: why it failed."""
    failures = []
    for q, reply, _ in records:
        key = workloads.query_key(q)
        if "error" in reply:
            failures.append(f"{key}: {reply['error']}")
            continue
        out = dict(reply["out"])
        out.pop("nodes", None)  # search work, not part of the answer
        if out.get("verdict") in ("inconclusive", "INCONCLUSIVE"):
            failures.append(f"{key}: inconclusive")
            continue
        why = checker.check(key, q, out)
        if why is not None:
            failures.append(f"{key}: {why}")
    return failures


def corrupt(q: dict, out: dict) -> dict:
    """A wrong answer of the same shape."""
    bad = copy.deepcopy(out)
    if q["kind"] == "decide":
        bad["verdict"] = "not realizable" if out["verdict"] == "realizable" else "realizable"
    elif q["kind"] == "closed":
        bad["pairs_checked"] += 1
    elif q["kind"] == "catenary":
        bad["catenary"] += 1
    else:
        bad["count"] += 1
    return bad


def self_check(checker: Checker, records) -> None:
    """The harness must not pass a wrong answer: for one query of every
    kind answered right, a corrupted answer, and the right answer held
    against a corrupted reference, must both be judged failed."""
    seen = {}
    for record in records:
        if record[0]["kind"] not in seen and not judge(checker, [record]):
            seen[record[0]["kind"]] = record
    for q, reply, lat in seen.values():
        key = workloads.query_key(q)
        wrong_answer = (q, {"out": corrupt(q, reply["out"])}, lat)
        wrong_reference = Checker({**checker.reference, key: corrupt(q, checker.reference[key])})
        if not judge(checker, [wrong_answer]) or not judge(wrong_reference, [(q, reply, lat)]):
            raise SystemExit(f"harness self-check failed: a wrong {q['kind']} answer passed")


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value)."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]


def machine_facts(workload: str, seed: int) -> dict:
    commit = None
    try:
        got = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        lines = got.stdout.split()
        if got.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass  # not a git checkout: the source digest identifies the code
    digest = hashlib.sha256()
    for path in sorted((SRC / "zslen").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def node_counts(records) -> dict:
    """Node counts the answers report (decide and atoms), per query: every
    query does the same work in every round and under every seed, so the
    counts of one query must all be equal."""
    nodes: dict[str, set] = {}
    for q, reply, _ in records:
        if "nodes" in reply.get("out", {}):
            nodes.setdefault(workloads.query_key(q), set()).add(reply["out"]["nodes"])
    return nodes


def node_facts(records) -> dict:
    nodes = node_counts(records)
    one = {k: min(v) for k, v in sorted(nodes.items())}
    return {
        "node_counts_repeat": all(len(v) == 1 for v in nodes.values()),
        "nodes_per_round": sum(one.values()),
        "nodes_digest": hashlib.sha256(json.dumps(one).encode()).hexdigest()[:16],
    }


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def measure(args) -> int:
    records, wall, n_rounds, setups, stops = serve(
        workloads.rounds(args.workload, args.seed),
        max(1, round(ROUNDS[args.workload] * args.seconds / 30)),
    )
    while len(setups) < SETUP_SAMPLES:
        probe = Worker()
        setups.append(probe.setup_s)
        probe.stop()
    checker = Checker(json.loads(REFERENCE.read_text()))
    failures = judge(checker, records)
    self_check(checker, records)

    lat = [r[2] for r in records]
    pct, tail_s = tail(lat)
    attempted = len(records)
    busy = sum(lat)
    report = {
        "setup_s": (statistics.median(setups), "s"),
        "queries_per_s": ((attempted - len(failures)) / busy, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "latency_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (max(s["peak_rss_kb"] for s in stops) / 1024, "MB"),
    }
    facts = machine_facts(args.workload, args.seed)
    facts.update({
        "rounds": n_rounds,
        "queries": attempted,
        "wall_s": wall,
        "busy_s": busy,
        "tail_percentile": pct,
        "tail_samples_beyond": 10 if attempted >= 11 else 0,
        **node_facts(records),
        "failures": failures[:20],
    })
    for name, (value, unit) in report.items():
        print(f"{name:<16} {value:14.6f} {unit}")
    print(f"{'failed_ratio':<16} {len(failures) / attempted:14.6f} ratio")
    print(f"tail is p{pct:.2f} of {attempted} samples; {n_rounds} rounds, "
          f"{busy:.3f} s in the library, {wall:.3f} s wall")
    print("facts " + json.dumps(facts))
    write_result(args, {"facts": facts, "metrics": report,
                        "latency_ms": [[workloads.query_key(q), t * 1000] for q, _, t in records]})
    emit(not failures, attempted, len(failures), report)
    return 0


def measure_traced(args) -> int:
    n = TRACE_ROUNDS[args.workload]
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-{args.seed}"
    passes = {
        traced: serve(workloads.rounds(args.workload, args.seed), n_rounds=n,
                      trace_prefix=spans if traced else None)
        for traced in (False, True)
    }
    records = passes[True].records
    checker = Checker(json.loads(REFERENCE.read_text()))
    failures = judge(checker, records) + judge(checker, passes[False].records)
    self_check(checker, records)
    qps = {t: len(p.records) / sum(r[2] for r in p.records) for t, p in passes.items()}
    totals = None
    for stopped in passes[True].stops:
        totals = tracer.merge(totals, stopped["layers"])
    metrics = tracer.layer_metrics(totals)
    metrics["trace.untraced_queries_per_s"] = (qps[False], "1/s")
    metrics["trace.traced_queries_per_s"] = (qps[True], "1/s")
    facts = machine_facts(args.workload, args.seed)
    facts.update({
        "rounds": n,
        "queries": len(records),
        "trace_overhead_queries_per_s": qps[True] - qps[False],
        **node_facts(records + passes[False].records),
        "spans_files": f"{spans.relative_to(ROOT)}-<round>.jsonl",
        "failures": failures[:20],
    })
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:16.6f} {unit}")
    print("factorize.catenary_pairs is computed as n(n-1)/2 per catenary_degree call")
    print(f"trace overhead (traced - untraced queries_per_s): "
          f"{qps[True] - qps[False]:+.4f} 1/s")
    print("facts " + json.dumps(facts))
    write_result(args, {"facts": facts, "metrics": metrics})
    attempted = len(records) + len(passes[False].records)
    emit(not failures, attempted, len(failures), metrics)
    return 0


def write_result(args, record: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")


def record_reference() -> int:
    """Answer every menu query once, in fresh workers, and write the
    reference table.  Catenary answers are recorded for the base
    sequences; their automorphism images must give the same answer."""
    ref = {}
    answered = []
    for workload in workloads.WORKLOADS:
        menu = workloads.menu(workload)
        for q in menu:
            if q["kind"] == "catenary":
                q["seq"] = workloads.CATENARY_BASES[q["base"]][2]
        records = serve(iter([menu]), n_rounds=1).records
        answered += records
        for q, reply, _ in records:
            if "out" not in reply:
                raise SystemExit(f"{workloads.query_key(q)}: {reply['error']}")
            out = dict(reply["out"])
            out.pop("nodes", None)
            ref[workloads.query_key(q)] = out
    bad = judge(Checker(ref), answered)
    if bad:
        raise SystemExit("reference fails its own checks:\n" + "\n".join(bad))
    REFERENCE.write_text(
        "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(ref[k])}" for k in sorted(ref)) + "\n}\n"
    )
    print(f"wrote {len(ref)} reference answers to {REFERENCE.relative_to(ROOT)}")
    return 0


# (label, queries, expected total nodes) from the ROADMAP baseline
BASELINE = (
    ("decide {2,d} over C4xC4, d = 3..5", [
        {"kind": "decide", "group": "C4xC4", "set": f"2,{d}", "symmetry": False}
        for d in (3, 4, 5)], 805_654),
    ("decide {2,d} over C4xC4, d = 3..5, symmetry", [
        {"kind": "decide", "group": "C4xC4", "set": f"2,{d}", "symmetry": True}
        for d in (3, 4, 5)], 31_662),
    ("atoms over C5xC5, symmetry", [
        {"kind": "atoms", "group": "C5xC5", "symmetry": True}], 23_113),
)


def baseline() -> int:
    """Each baseline case twice, each time in a fresh worker: the node
    counts must repeat exactly and equal the ROADMAP figures."""
    ok = True
    for label, queries, expected in BASELINE:
        totals = []
        for _ in range(2):
            records, wall, *_ = serve(iter([queries]), n_rounds=1)
            totals.append(sum(r["out"]["nodes"] for _, r, _ in records))
        good = totals[0] == totals[1] == expected
        ok &= good
        print(f"{'ok ' if good else 'BAD'} {label}: nodes {totals}, expected {expected} "
              f"({wall:.2f} s)")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)  # BENCHMARK.json run_seconds
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true")
    p.add_argument("--baseline", action="store_true")
    args = p.parse_args(argv)
    if not (SRC / "zslen" / "__init__.py").is_file():
        print(f"no zslen sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # for the checks, after the measured runs
    if args.record_reference:
        return record_reference()
    if args.baseline:
        return baseline()
    if args.workload is None:
        p.error("--workload is required")
    return measure_traced(args) if args.trace else measure(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)

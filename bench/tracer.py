"""Spans and per-layer counts for the traced benchmark run.

The tracer wraps the library's public functions from outside: the module
globals through which the library calls itself (``lsystem.length_mask``,
``factorize.length_mask``, ``lsystem.decide_length_set``,
``lsystem.enumerate_system``, the ``atom_set_for`` imports, ...) and the
``AbelianGroup`` methods.  Each call records a span (name, start, end,
parent span, query id) and the counts measured at that boundary.  Spans
stay in memory and are written out once, when the worker stops.

A span's self time is its duration minus the part of it that its child
spans cover.  Children that ran on another thread (the closure scan's
thread pool) may overlap each other, so their intervals are merged before
they are subtracted.  Spans and counts are kept per thread, so the pool
threads never update shared state.

A worker reports raw totals (``Tracer.totals``); the client adds the
totals of its traced workers (``merge``) and derives the per-layer
metrics from the sum (``layer_metrics``).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from array import array
from collections import Counter

# span names, in the order of their codes
SPAN_NAMES = (
    "factorize.length_mask",
    "factorize.factorizations",
    "factorize.catenary_degree",
    "lsystem.decide_length_set",
    "lsystem.enumerate_system",
    "lsystem.check_additively_closed",
    "lsystem._orbit_minimal_flags",
    "atoms.enumerate_atoms",
    "atoms.atom_set_for",
    "groups.build_tables",
    "groups.automorphism_generators",
    "groups.orbit_of_tuple",
)
CODE = {name: i for i, name in enumerate(SPAN_NAMES)}
FIELDS = ("sid", "code", "start", "end", "self", "parent", "query")
TYPECODES = ("q", "b", "d", "d", "d", "q", "q")


class _Frame:
    """An open span."""

    __slots__ = ("sid", "code", "parent", "start", "child_s", "cross", "foreign", "note")

    def __init__(self, sid, code, parent, start, foreign):
        self.sid = sid
        self.code = code
        self.parent = parent
        self.start = start
        self.child_s = 0.0  # closed children on this span's own thread
        self.cross = []  # (start, end) of children on other threads
        self.foreign = foreign  # the parent is open on another thread
        self.note = 0  # per-call scratch of the span's hooks


def _covered(intervals) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class _ThreadState:
    """One thread's open spans, closed spans (one array per field) and counts."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.columns = tuple(array(t) for t in TYPECODES)
        self.appends = tuple(col.append for col in self.columns)
        self.counts = Counter()


class Tracer:
    def __init__(self):
        self.query_id = -1
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._main = self._state()

    # -- spans ------------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def _parent(self, state: _ThreadState):
        """(parent frame or None, whether it is open on another thread)."""
        if state.stack:
            return state.stack[-1], False
        # on a pool thread the parent is the span that started the pool,
        # which is the one open on the main thread
        main = self._main.stack
        if main and state is not self._main:
            return main[-1], True
        return None, False

    def _record(self, state, sid, code, start, end, own, parent, foreign):
        psid = -1
        if parent is not None:
            psid = parent.sid
            if foreign:
                parent.cross.append((start, end))
            else:
                parent.child_s += end - start
        a_sid, a_code, a_start, a_end, a_self, a_parent, a_query = state.appends
        a_sid(sid)
        a_code(code)
        a_start(start)
        a_end(end)
        a_self(own)
        a_parent(psid)
        a_query(self.query_id)

    def _wrap(self, name, fn, after=None, before=None):
        """``fn`` recording a span per call.  ``before(frame, args, kwargs)``
        runs as the span opens, ``after(counts, frame, result, args,
        kwargs)`` once it has closed."""
        code = CODE[name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            parent, foreign = tracer._parent(state)
            frame = _Frame(next(tracer._ids), code, parent, time.perf_counter(), foreign)
            if before is not None:
                before(frame, args, kwargs)
            state.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                state.stack.pop()
                own = end - frame.start - frame.child_s
                if frame.cross:
                    own -= _covered(frame.cross)
                tracer._record(state, frame.sid, code, frame.start, end, own, parent, foreign)
            if after is not None:
                after(state.counts, frame, result, args, kwargs)
            return result

        return wrapper

    # -- instrumented calls ----------------------------------------------------------

    def install(self, atoms, factorize, groups, lsystem) -> None:
        from zslen.budget import Budget

        # length_mask(aset, counts, budget): nodes are the budget's delta
        def before_mask(frame, args, kwargs):
            frame.note = args[2].used

        def after_mask(counts, frame, result, args, kwargs):
            spent = args[2].used - frame.note
            counts["length_mask_nodes"] += spent
            if not spent:
                counts["length_mask_hits"] += 1

        length_mask = self._wrap(
            "factorize.length_mask", factorize.length_mask, after_mask, before_mask
        )
        factorize.length_mask = length_mask
        lsystem.length_mask = length_mask

        closure_code = CODE["lsystem.check_additively_closed"]

        def after_decide(counts, frame, result, args, kwargs):
            counts["decide_nodes"] += result.nodes
            if frame.parent is not None and frame.parent.code == closure_code:
                counts["closure_decide_calls"] += 1

        def after_system(counts, frame, result, args, kwargs):
            counts["system_sets"] += len(result.sets)

        def after_closure(counts, frame, result, args, kwargs):
            counts["closure_pairs_checked"] += result.pairs_checked

        lsystem.decide_length_set = self._wrap(
            "lsystem.decide_length_set", lsystem.decide_length_set, after_decide
        )
        lsystem.enumerate_system = self._wrap(
            "lsystem.enumerate_system", lsystem.enumerate_system, after_system
        )
        lsystem.check_additively_closed = self._wrap(
            "lsystem.check_additively_closed", lsystem.check_additively_closed, after_closure
        )
        lsystem._orbit_minimal_flags = self._wrap(
            "lsystem._orbit_minimal_flags", lsystem._orbit_minimal_flags
        )

        atom_set_code = CODE["atoms.atom_set_for"]

        def after_enumerate(counts, frame, result, args, kwargs):
            # atoms.nodes: only a Budget the caller passed can be read
            budget = kwargs.get("budget", args[4] if len(args) > 4 else None)
            if isinstance(budget, Budget):
                counts["atoms_nodes"] += budget.used
            if frame.parent is not None and frame.parent.code == atom_set_code:
                frame.parent.note = 1

        def after_atom_set(counts, frame, result, args, kwargs):
            if not frame.note:
                counts["atom_set_for_hits"] += 1

        atoms.enumerate_atoms = self._wrap(
            "atoms.enumerate_atoms", atoms.enumerate_atoms, after_enumerate
        )
        atom_set_for = self._wrap("atoms.atom_set_for", atoms.atom_set_for, after_atom_set)
        atoms.atom_set_for = atom_set_for
        factorize.atom_set_for = atom_set_for
        lsystem.atom_set_for = atom_set_for

        catenary_code = CODE["factorize.catenary_degree"]

        def after_factorizations(counts, frame, result, args, kwargs):
            counts["factorizations_count"] += len(result)
            if frame.parent is not None and frame.parent.code == catenary_code:
                frame.parent.note = len(result)

        def after_catenary(counts, frame, result, args, kwargs):
            counts["catenary_pairs"] += frame.note * (frame.note - 1) // 2

        factorize.factorizations = self._wrap(
            "factorize.factorizations", factorize.factorizations, after_factorizations
        )
        factorize.catenary_degree = self._wrap(
            "factorize.catenary_degree", factorize.catenary_degree, after_catenary
        )

        cls = groups.AbelianGroup
        cls._build_tables = self._wrap("groups.build_tables", cls._build_tables)
        cls.automorphism_generators = self._wrap(
            "groups.automorphism_generators", cls.automorphism_generators
        )
        cls.orbit_of_tuple = self._wrap("groups.orbit_of_tuple", cls.orbit_of_tuple)

    # -- results -----------------------------------------------------------------------

    def totals(self) -> dict:
        """Calls, busy seconds and self seconds per span name, and the counts."""
        calls = [0] * len(SPAN_NAMES)
        busy = [0.0] * len(SPAN_NAMES)
        own = [0.0] * len(SPAN_NAMES)
        counts = Counter()
        for state in self._threads:
            _, code, start, end, self_s, _, _ = state.columns
            for k, s, e, o in zip(code, start, end, self_s):
                calls[k] += 1
                busy[k] += e - s
                own[k] += o
            counts.update(state.counts)
        return {"calls": calls, "busy": busy, "self": own, "counts": dict(counts)}

    def write_spans(self, path: str) -> None:
        """Write every span as JSON lines: a header naming the fields and the
        span codes, then one ``[sid, code, start, end, self, parent, query]``
        array per span.  Times are ``time.perf_counter`` seconds; a parent of
        -1 is a root span."""
        with open(path, "w") as f:
            f.write(json.dumps({"fields": FIELDS, "names": SPAN_NAMES}) + "\n")
            for state in self._threads:
                for span in zip(*state.columns):
                    f.write(json.dumps(span) + "\n")


def merge(a: dict | None, b: dict) -> dict:
    """The sum of two workers' totals."""
    if a is None:
        return b
    return {
        "calls": [x + y for x, y in zip(a["calls"], b["calls"])],
        "busy": [x + y for x, y in zip(a["busy"], b["busy"])],
        "self": [x + y for x, y in zip(a["self"], b["self"])],
        "counts": dict(Counter(a["counts"]) + Counter(b["counts"])),
    }


def layer_metrics(totals: dict) -> dict:
    """Per-layer metrics as ``{"<module>.<metric>": (value, unit)}``.

    ``groups.orbit_s`` covers ``orbit_of_tuple`` and the oracle's orbit
    flags; the orbit closure inlined in ``enumerate_atoms`` cannot be
    wrapped from outside and counts in ``atoms.enumerate_s``.
    ``atoms.nodes`` counts only the calls that pass their own fresh
    ``Budget``, which are the benchmark's direct ``enumerate_atoms``
    calls."""
    c = Counter(totals["counts"])

    def n(name):
        return totals["calls"][CODE[name]]

    def s(name):
        return totals["busy"][CODE[name]]

    def own(name):
        return totals["self"][CODE[name]]

    mask_calls = n("factorize.length_mask")
    mask_s = s("factorize.length_mask")
    set_calls = n("atoms.atom_set_for")
    metrics = (
        ("factorize.length_mask_calls", mask_calls, "count"),
        ("factorize.length_mask_s", mask_s, "s"),
        ("factorize.length_mask_nodes", c["length_mask_nodes"], "count"),
        ("factorize.length_mask_hit_ratio",
         c["length_mask_hits"] / mask_calls if mask_calls else 0.0, "ratio"),
        ("factorize.nodes_per_s", c["length_mask_nodes"] / mask_s if mask_s else 0.0, "1/s"),
        ("factorize.factorizations_count", c["factorizations_count"], "count"),
        ("factorize.factorizations_s", s("factorize.factorizations"), "s"),
        ("factorize.catenary_s", s("factorize.catenary_degree"), "s"),
        # computed as n(n-1)/2 per catenary_degree call, not counted
        ("factorize.catenary_pairs", c["catenary_pairs"], "pairs"),
        ("lsystem.decide_calls", n("lsystem.decide_length_set"), "count"),
        ("lsystem.decide_s", s("lsystem.decide_length_set"), "s"),
        ("lsystem.decide_self_s", own("lsystem.decide_length_set"), "s"),
        ("lsystem.decide_nodes", c["decide_nodes"], "count"),
        ("lsystem.enumerate_system_s", s("lsystem.enumerate_system"), "s"),
        ("lsystem.enumerate_system_self_s", own("lsystem.enumerate_system"), "s"),
        ("lsystem.system_sets", c["system_sets"], "count"),
        ("lsystem.closure_s", s("lsystem.check_additively_closed"), "s"),
        ("lsystem.closure_pairs_checked", c["closure_pairs_checked"], "count"),
        ("lsystem.closure_decide_calls", c["closure_decide_calls"], "count"),
        ("atoms.enumerate_calls", n("atoms.enumerate_atoms"), "count"),
        ("atoms.enumerate_s", s("atoms.enumerate_atoms"), "s"),
        ("atoms.nodes", c["atoms_nodes"], "count"),
        ("atoms.atom_set_for_hit_ratio",
         c["atom_set_for_hits"] / set_calls if set_calls else 0.0, "ratio"),
        ("groups.tables_s", s("groups.build_tables"), "s"),
        ("groups.automorphism_generators_calls", n("groups.automorphism_generators"), "count"),
        ("groups.automorphism_generators_s", s("groups.automorphism_generators"), "s"),
        ("groups.orbit_s", s("groups.orbit_of_tuple") + s("lsystem._orbit_minimal_flags"), "s"),
    )
    return {name: (value, unit) for name, value, unit in metrics}

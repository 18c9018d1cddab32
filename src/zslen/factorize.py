"""Factorizations of zero-sum sequences and their sets of lengths.

The length-set computation is a memoized recursion over zero-sum divisors:
L(B) is the union of 1 + L(B/A) over all atoms A dividing B, with L(empty)
= {0}.  Every factorization contributes its length through each of its
parts, so the unordered recursion is complete; sets are carried as integer
bitmasks and the memo is shared through the AtomSet instance, which lets
large enumerations reuse each other's subproblems.  The atoms that divide a
node are found with bitset ANDs over per-element tables of atom indices.
Nodes are packed integers, one whole-byte field per element with the
elements ordered by atom load, so the pivot is the lowest nonzero field and
a child is one subtraction; the fields start 1, 2, 4 or 8 bytes wide, as
the first call's counts need, and a later count that needs wider fields
rebuilds the layout at that width and empties the memo, whose keys were
packed at the old one.  Factorizations walk the same packed keys and find
their atoms by the same ANDs.  Layout and tables are built on first use
for an atom set and cached on it, so enumerating atoms never pays for
them.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from operator import itemgetter
from typing import Callable, NamedTuple

from .budget import Budget, CapExceededError, as_budget, phase
from .atoms import AtomSet, atom_set_for
from .sequences import Sequence


class LengthSet:
    """A finite set of non-negative factorization lengths."""

    __slots__ = ("values",)

    def __init__(self, values):
        vs = sorted(set(values))
        if any(v < 0 for v in vs):
            raise ValueError("lengths must be non-negative")
        object.__setattr__(self, "values", tuple(vs))

    def __setattr__(self, name, value):
        raise AttributeError("LengthSet is immutable")

    @classmethod
    def from_mask(cls, mask: int) -> "LengthSet":
        vals = []
        i = 0
        while mask:
            if mask & 1:
                vals.append(i)
            mask >>= 1
            i += 1
        return cls(vals)

    @property
    def mask(self) -> int:
        m = 0
        for v in self.values:
            m |= 1 << v
        return m

    def __contains__(self, v) -> bool:
        vs = self.values
        try:
            i = bisect_left(vs, v)
        except TypeError:  # not comparable with an int, so not a length
            return False
        return i < len(vs) and vs[i] == v

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __bool__(self):
        return bool(self.values)

    @property
    def min(self) -> int:
        if not self.values:
            raise ValueError("empty length set has no minimum")
        return self.values[0]

    @property
    def max(self) -> int:
        if not self.values:
            raise ValueError("empty length set has no maximum")
        return self.values[-1]

    def delta(self) -> tuple[int, ...]:
        """Successive gaps between the sorted values."""
        return tuple(
            b - a for a, b in zip(self.values, self.values[1:])
        )

    def shift(self, y: int) -> "LengthSet":
        return LengthSet(v + y for v in self.values)

    def __add__(self, other):
        if not isinstance(other, LengthSet):
            return NotImplemented
        if not self.values or not other.values:
            raise ValueError("sumset of an empty length set")
        return LengthSet(a + b for a in self.values for b in other.values)

    def __eq__(self, other):
        return isinstance(other, LengthSet) and self.values == other.values

    def __hash__(self):
        return hash(("LengthSet", self.values))

    def __lt__(self, other):
        if not isinstance(other, LengthSet):
            return NotImplemented
        return self.values < other.values

    def __repr__(self):
        return "{" + ",".join(str(v) for v in self.values) + "}"


def parse_length_set(text: str) -> LengthSet:
    """Parse a comma-separated integer list, braces optional."""
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    if not body.strip():
        raise ValueError("empty length set literal")
    try:
        return LengthSet(int(p.strip()) for p in body.split(","))
    except ValueError as e:
        raise ValueError(f"malformed length set literal {text!r}") from e


def delta_of_set(values) -> tuple[int, ...]:
    """Set of distances of a set of integers: its successive gaps."""
    vs = sorted(set(values))
    return tuple(b - a for a, b in zip(vs, vs[1:]))


class Factorization:
    """A multiset of atoms with a given product, in canonical form."""

    __slots__ = ("parts", "product")

    def __init__(self, parts, product: Sequence | None = None):
        ordered = tuple(sorted(parts, key=Sequence.sort_key, reverse=True))
        object.__setattr__(self, "parts", ordered)
        if product is None:
            if not ordered:
                raise ValueError("an empty factorization needs an explicit product")
            product = ordered[0]
            for p in ordered[1:]:
                product = product * p
        object.__setattr__(self, "product", product)

    def __setattr__(self, name, value):
        raise AttributeError("Factorization is immutable")

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        return isinstance(other, Factorization) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return " * ".join(f"[{p}]" for p in self.parts) if self.parts else "[empty]"


def _resolve_atoms(b: Sequence, atoms: AtomSet | None) -> AtomSet:
    if atoms is None:
        return atom_set_for(b.group, b.support())
    if atoms.group != b.group:
        raise ValueError("atom set belongs to a different group")
    if not atoms.covers(b):
        raise ValueError("atom set does not cover the support of the sequence")
    return atoms


def _require_zero_sum(b: Sequence):
    if not b.is_zero_sum():
        raise ValueError(f"sequence is not zero-sum: {b}")


class _Layout(NamedTuple):
    """Packed memo-key layout of an atom set; see ``_divisor_tables``."""

    fields: struct.Struct  # one whole-byte field per element, field 0 first
    bits: int  # bits per field
    pick: Callable  # counts in element order -> counts in field order
    order: tuple[int, ...]  # field f holds the count of element order[f]
    through: tuple[int, ...]  # by field: the atoms containing its element
    packed: tuple[int, ...]  # atom k's vector in the layout
    fitting: Callable  # (key, fit) -> the atoms of fit that divide node key


_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _divisor_tables(aset: AtomSet, width: int = 1) -> _Layout:
    """Packed-key layout and bitset tables of an atom set, built at
    ``width`` and cached on it.  The caller builds them only when the atom
    set has no layout yet or needs a wider one than it has.

    A node of the length recursion is keyed by one integer with a field of
    ``width`` whole bytes per group element, field 0 least significant.
    ``order`` lists the element indices sorted by (load, index), where the
    load of an element is the number of atoms through it, and field f
    holds the count of ``order[f]``; so the lowest nonzero field of a key
    is the support element through the fewest atoms, the first on ties.
    ``through[f]`` is the set of atoms through that element.  Bit k of a
    set stands for atom k, and ``packed[k]`` is atom k's vector in the
    layout, so a child key is the node key minus ``packed[k]``.
    ``fitting(key, fit)`` unpacks ``key`` with one ``struct`` call and, for
    each field whose element some atom contains, ANDs ``fit`` with the set
    of atoms holding at most as many copies of that element as the field
    counts (a count of at least the element's largest multiplicity in an
    atom fits every atom); a closure, so a node pays no attribute lookups.

    Replacing a narrower layout empties the atom set's memo, whose keys
    were packed at the old width.
    """
    old = aset._divisor_tables
    n = aset.group.order()
    fields = struct.Struct(f"<{n}{_CODES[width]}")
    nbytes = len(aset.atoms_sparse) // 8 + 1
    # exact[i][m]: bitmap of the atoms with exactly m copies of i
    exact: list[dict[int, bytearray]] = [{} for _ in range(n)]
    for k, sp in enumerate(aset.atoms_sparse):
        byte, bit = k >> 3, 1 << (k & 7)
        for i, m in sp:
            buf = exact[i].get(m)
            if buf is None:
                buf = exact[i][m] = bytearray(nbytes)
            buf[byte] |= bit
    everything = (1 << len(aset.atoms_sparse)) - 1
    through = [0] * n
    fit_at = {}
    for i, by_mult in enumerate(exact):
        if not by_mult:
            continue
        fits = [0] * max(by_mult)
        over = 0  # atoms with more than c copies of i
        for c in range(len(fits) - 1, -1, -1):
            buf = by_mult.get(c + 1)
            if buf is not None:
                over |= int.from_bytes(buf, "little")
            fits[c] = everything ^ over
        through[i] = over
        fit_at[i] = (len(fits), tuple(fits))
    order = tuple(sorted(range(n), key=lambda i: (through[i].bit_count(), i)))
    by_field = tuple(through[i] for i in order)
    fit_rows = tuple((f, *fit_at[i]) for f, i in enumerate(order) if i in fit_at)
    pick = itemgetter(*order) if n > 1 else tuple
    bits = 8 * width
    field_of = {i: f for f, i in enumerate(order)}
    packed = tuple(
        sum(m << (bits * field_of[i]) for i, m in sp) for sp in aset.atoms_sparse
    )
    unpack, size = fields.unpack, fields.size

    def fitting(key: int, fit: int) -> int:
        by_field = unpack(key.to_bytes(size, "little"))
        for f, top, fits in fit_rows:
            c = by_field[f]
            if c < top:
                fit &= fits[c]
        return fit

    if old is not None:
        # its keys were packed at the old width; emptied in place, so every
        # holder of the dict sees it
        aset._length_memo.clear()
    aset._divisor_tables = _Layout(fields, bits, pick, order, by_field, packed, fitting)
    return aset._divisor_tables


def _field_width(counts) -> int:
    """The narrowest field width, in bytes, that holds every count."""
    if any(c < 0 for c in counts):
        raise ValueError("multiplicities must be non-negative")
    top = max(counts, default=0)
    for width in _CODES:
        if top < 1 << (8 * width):
            return width
    raise ValueError(f"multiplicity {top} does not fit in 64 bits")


def _key_counts(aset: AtomSet, key: int) -> tuple[int, ...]:
    """The multiplicity vector, in element order, of a ``length_mask`` memo
    key of ``aset``."""
    layout = aset._divisor_tables
    by_field = layout.fields.unpack(key.to_bytes(layout.fields.size, "little"))
    counts = [0] * len(by_field)
    for i, c in zip(layout.order, by_field):
        counts[i] = c
    return tuple(counts)


def _packed_key(aset: AtomSet, counts) -> tuple[_Layout, int]:
    """The layout of ``aset`` and ``counts`` packed in it.  The first
    layout is built at the width ``counts`` needs, and a later count that
    does not fit widens it (ValueError if one is negative or needs 65
    bits)."""
    layout = aset._divisor_tables or _divisor_tables(aset, _field_width(counts))
    try:
        return layout, int.from_bytes(layout.fields.pack(*layout.pick(counts)), "little")
    except struct.error:
        layout = _divisor_tables(aset, _field_width(counts))
        return layout, int.from_bytes(layout.fields.pack(*layout.pick(counts)), "little")


def length_mask(aset: AtomSet, counts: tuple[int, ...], budget: Budget) -> int:
    """Bitmask of L(B) for the sequence with the given multiplicity vector.

    Iterative post-order over the divisor lattice; results are memoized on
    the AtomSet, keyed by packed integers in the layout of
    ``_divisor_tables``, so independent callers share subproblems.  At
    each node only atoms through a pivot support element are tried: every
    factorization must cover the pivot, so the union over those atoms is
    already all of L(B).  The pivot is the support element through the
    fewest atoms (the first on ties), which is the lowest nonzero field of
    the key.  The atoms through it that divide the node come from
    ``layout.fitting``, and their children, each one subtraction, are
    built in ascending atom index.  Each node is expanded once: a node
    with children missing from the memo stays on the stack with its
    partial mask and the list of those children, which are pushed above
    it, and it ORs their masks in when they are done.  No key is ever on
    the stack twice, so none is found in the memo when it is reached: a
    second copy of a child P - A would come from inside the subtree of a
    sibling P - A'', as Q - A' with A = A'' X A' for a product X of
    atoms, and the atom A would hold the nonempty zero-sum proper part
    A''.  A new memo entry spends one budget node; a memo hit spends
    nothing.  ``counts`` is packed once at entry, by ``_packed_key``, so
    a bad count raises before any node is spent.
    """
    layout, key = _packed_key(aset, counts)
    memo = aset._length_memo
    got = memo.get(key)
    if got is not None:
        return got
    bits, fitting = layout.bits, layout.fitting
    through, packed = layout.through, layout.packed
    # a key still to expand, or (key, partial mask, missing children) for
    # a node that waits on the children pushed above it
    stack: list = [key]
    while stack:
        cur = stack[-1]
        if cur.__class__ is tuple:
            cur, mask, missing = stack.pop()
            for child in missing:
                mask |= memo[child] << 1
            memo[cur] = mask
            budget.spend()
            continue
        if not cur:
            memo[cur] = 1  # L(empty) = {0}
            stack.pop()
            continue
        # the pivot's field is the lowest nonzero one
        fit = fitting(cur, through[((cur & -cur).bit_length() - 1) // bits])
        mask = 0
        missing = []
        while fit:
            low = fit & -fit
            fit ^= low
            child = cur - packed[low.bit_length() - 1]
            cm = memo.get(child)
            if cm is None:
                missing.append(child)
            else:
                mask |= cm << 1
        if missing:
            stack[-1] = (cur, mask, missing)
            stack.extend(missing)
        else:
            memo[cur] = mask
            budget.spend()
            stack.pop()
    return memo[key]


def length_set(b: Sequence, atoms: AtomSet | None = None, budget=None) -> LengthSet:
    """The set of factorization lengths L(B), without materializing Z(B).
    Running out of budget raises :class:`BudgetExceededError` with phase
    ``length_set``."""
    _require_zero_sum(b)
    aset = _resolve_atoms(b, atoms)
    with phase("length_set"):
        mask = length_mask(aset, b.counts(), as_budget(budget))
    return LengthSet.from_mask(mask)


def factorization_index_lists(
    aset: AtomSet,
    counts,
    cap: int | None = None,
    budget: Budget | None = None,
) -> list[tuple[int, ...]]:
    """All factorizations of the multiplicity vector ``counts`` as sorted
    non-increasing tuples of atom indices, each multiset exactly once.
    Depth-first over packed remainders: a node's children subtract an atom
    that divides it, with index at most the last one chosen, highest first.
    Each node, the root included, spends one budget node; running out
    raises :class:`BudgetExceededError` with phase ``factorizations``."""
    bud = as_budget(budget)
    layout, key = _packed_key(aset, counts)
    packed, fitting = layout.packed, layout.fitting
    chosen: list[int] = []
    results: list[tuple[int, ...]] = []

    def rec(rest: int, fit: int) -> None:
        # fit: the atoms that may join, a superset of those dividing rest
        bud.spend()
        if not rest:
            results.append(tuple(chosen))
            if cap is not None and len(results) > cap:
                raise CapExceededError(
                    f"more than {cap} factorizations; raise the cap to materialize"
                )
            return
        fit = fitting(rest, fit)
        while fit:
            k = fit.bit_length() - 1
            chosen.append(k)
            rec(rest - packed[k], fit)
            chosen.pop()
            fit ^= 1 << k

    with phase("factorizations"):
        rec(key, (1 << len(packed)) - 1)
    results.sort()
    return results


def factorizations(
    b: Sequence,
    atoms: AtomSet | None = None,
    cap: int | None = None,
    budget=None,
) -> list[Factorization]:
    """All factorizations of B into atoms, each exactly once.

    Canonical enumeration: parts are chosen with non-increasing atom index,
    so every multiset of parts appears once.  ``cap`` bounds the number of
    factorizations materialized (CapExceededError beyond it).
    """
    aset, results = index_factorizations(b, atoms, cap, budget)
    return [
        Factorization(tuple(aset.atoms[i] for i in chosen), b)
        for chosen in results
    ]


def index_factorizations(
    b: Sequence,
    atoms: AtomSet | None = None,
    cap: int | None = None,
    budget=None,
) -> tuple[AtomSet, list[tuple[int, ...]]]:
    """The atom set of B (``atoms``, or the cached one over its support)
    and Z(B) as sorted non-increasing tuples of indices into it, without
    building ``Factorization`` objects."""
    _require_zero_sum(b)
    aset = _resolve_atoms(b, atoms)
    return aset, factorization_index_lists(aset, b.counts(), cap, as_budget(budget))


def _distance_sorted(x, y) -> int:
    """Distance between two factorizations given as non-increasing part
    tuples: merge them to count the common parts, then take the larger
    remaining part count."""
    i = j = common = 0
    nx, ny = len(x), len(y)
    while i < nx and j < ny:
        a, b = x[i], y[j]
        if a == b:
            common += 1
            i += 1
            j += 1
        elif b < a:
            i += 1
        else:
            j += 1
    return max(nx, ny) - common


def distance(z: Factorization, zp: Factorization) -> int:
    """Distance between two factorizations of the same sequence: cancel the
    common part multiset, then take the larger remaining part count."""
    if z.product != zp.product:
        raise ValueError("factorizations of different sequences")
    return _distance_sorted(z.parts, zp.parts)


def catenary_of_parts(zs, budget=None) -> int:
    """Catenary degree of the factorization set ``zs``, given as distinct
    non-increasing part tuples (atom indices or ``Factorization.parts``).

    Dense Prim pass over the complete distance graph: keep each remaining
    factorization's distance to the tree, add the closest one, relax the
    others against it.  The largest distance added is the bottleneck of a
    minimum spanning tree, which is the catenary degree.  Distances are
    computed on demand, one budget node each, so memory stays O(n).
    Running out of budget raises :class:`BudgetExceededError` with phase
    ``catenary_distances``.
    """
    bud = as_budget(budget)
    if len(zs) <= 1:
        return 0
    last, rest = zs[0], list(zs[1:])
    best = [len(last) + len(z) for z in rest]  # above every distance
    answer = 0
    with phase("catenary_distances"):
        while rest:
            for i, z in enumerate(rest):
                bud.spend()
                d = _distance_sorted(last, z)
                if d < best[i]:
                    best[i] = d
            k = min(range(len(rest)), key=best.__getitem__)
            answer = max(answer, best[k])
            last = rest.pop(k)
            best.pop(k)
    return answer


def catenary_degree(
    b: Sequence,
    atoms: AtomSet | None = None,
    cap: int | None = None,
    budget=None,
) -> int:
    """Smallest N such that any two factorizations of B are linked by a
    chain with successive distances at most N.

    Enumerates Z(B) as atom-index tuples (subject to ``cap``) and runs
    ``catenary_of_parts`` over them; one budget covers the enumeration and
    the distances.
    """
    bud = as_budget(budget)
    _, zs = index_factorizations(b, atoms, cap, bud)
    return catenary_of_parts(zs, bud)

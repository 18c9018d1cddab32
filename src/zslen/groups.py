"""Finite abelian groups in invariant-factor form.

A group is a list of invariant factors n_1 | n_2 | ... | n_r (each >= 2),
elements are coordinate tuples with coordinate i reduced mod n_i.  The
canonical element order is lexicographic on coordinates; the position of an
element in ``elements()`` is its *index*, and all hot loops downstream work
on indices through the precomputed addition/negation tables.
"""

from __future__ import annotations

import re
from math import gcd, prod


def _factorint(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _canonical_factors(ns) -> tuple[int, ...]:
    """Merge arbitrary cyclic orders into the invariant-factor chain.

    Decomposes every order into prime powers (elementary divisors) and
    reassembles: the largest invariant factor takes the highest power of
    each prime, the next one the second highest, and so on.
    """
    powers: dict[int, list[int]] = {}
    for n in ns:
        if n == 1:
            continue
        for p, e in _factorint(n).items():
            powers.setdefault(p, []).append(e)
    if not powers:
        return ()
    rank = max(len(v) for v in powers.values())
    for v in powers.values():
        v.sort(reverse=True)
        v.extend([0] * (rank - len(v)))
    factors = [
        prod(p ** exps[i] for p, exps in powers.items())
        for i in range(rank)
    ]
    return tuple(sorted(factors))


_GROUP_ATOM_RE = re.compile(r"^[cC](\d+)$")


def parse_group(spec: str) -> "AbelianGroup":
    """Parse ``C2xC4``-style or ``2,4``-style group specs.

    Case-insensitive, whitespace tolerant.  Orders are canonicalized, so
    ``4,2`` and ``2x12``-like inputs land in invariant-factor form.  A
    factor of 1 contributes nothing (``C1`` is the trivial group).
    """
    text = spec.strip()
    if not text:
        raise ValueError("empty group spec")
    parts = re.split(r"[xX*]", text) if re.search(r"[xX*]", text) else text.split(",")
    orders = []
    for part in parts:
        part = part.strip()
        m = _GROUP_ATOM_RE.match(part)
        if m:
            n = int(m.group(1))
        elif part.isdigit():
            n = int(part)
        else:
            raise ValueError(f"malformed group spec component {part!r} in {spec!r}")
        if n < 1:
            raise ValueError(f"cyclic order must be >= 1, got {n}")
        orders.append(n)
    return AbelianGroup(orders)


class AbelianGroup:
    """C_{n1} + ... + C_{nr} with the divisibility chain n1 | ... | nr.

    Instances are immutable and hashable; any list of orders is accepted
    and normalized, so equal groups compare equal regardless of input
    presentation.  The empty chain is the trivial group.  The element
    tables are built on construction; the automorphism generators and the
    translation steps on first use.
    """

    __slots__ = (
        "invariant_factors",
        "_elements",
        "_index",
        "_add",
        "_neg",
        "_orders",
        "_auto_gens",
        "_shifts",
    )

    def __init__(self, invariant_factors=()):
        object.__setattr__(self, "invariant_factors", _canonical_factors(invariant_factors))
        object.__setattr__(self, "_auto_gens", None)
        object.__setattr__(self, "_shifts", None)
        self._build_tables()

    def __setattr__(self, name, value):
        raise AttributeError("AbelianGroup is immutable")

    # -- basic descriptors -------------------------------------------------

    def order(self) -> int:
        return prod(self.invariant_factors)

    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def rank(self) -> int:
        return len(self.invariant_factors)

    def __eq__(self, other):
        return (
            isinstance(other, AbelianGroup)
            and self.invariant_factors == other.invariant_factors
        )

    def __hash__(self):
        return hash(("AbelianGroup", self.invariant_factors))

    def __repr__(self):
        return f"AbelianGroup({list(self.invariant_factors)})"

    def __str__(self):
        if not self.invariant_factors:
            return "C1"
        return "x".join(f"C{n}" for n in self.invariant_factors)

    # -- element tables ----------------------------------------------------

    def _build_tables(self):
        ns = self.invariant_factors
        elems = [()]
        for n in ns:
            elems = [e + (c,) for e in elems for c in range(n)]
        elems.sort()
        index = {e: i for i, e in enumerate(elems)}
        size = len(elems)
        add = [0] * (size * size)
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                add[i * size + j] = index[
                    tuple((x + y) % n for x, y, n in zip(a, b, ns))
                ]
        neg = [index[tuple((-x) % n for x, n in zip(e, ns))] for e in elems]
        orders = []
        for i in range(size):
            k, acc = 1, i
            while acc != 0:
                acc = add[acc * size + i]
                k += 1
            orders.append(k)
        object.__setattr__(self, "_elements", tuple(elems))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_add", add)
        object.__setattr__(self, "_neg", neg)
        object.__setattr__(self, "_orders", orders)

    def elements(self) -> tuple[tuple, ...]:
        """All elements in lexicographic coordinate order."""
        return self._elements

    def index_of(self, a) -> int:
        """Index of element a in the canonical order; validates membership."""
        try:
            return self._index[tuple(a)]
        except (KeyError, TypeError):
            raise ValueError(f"{a!r} is not an element of {self}") from None

    def element(self, i: int) -> tuple:
        return self.elements()[i]

    def contains(self, a) -> bool:
        try:
            return tuple(a) in self._index
        except TypeError:
            return False

    # index arithmetic, used by enumeration code

    def add_index(self, i: int, j: int) -> int:
        return self._add[i * len(self._elements) + j]

    def neg_index(self, i: int) -> int:
        return self._neg[i]

    def add_table(self):
        return self._add

    def neg_table(self):
        return self._neg

    def translation_steps(self) -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
        """Per element index x, the ``(a, hi, b, lo)`` steps that translate a
        bitmask over element indices by x (see ``translate_mask``).

        An index is mixed radix with the last coordinate least significant,
        so coordinate k has stride s_k = n_{k+1} * ... * n_r, and adding x_k
        rotates every block of n_k * s_k bits by a = x_k * s_k.  With
        b = n_k * s_k - a, ``hi`` marks the positions whose offset in their
        block is >= a and ``lo`` the others.  One step per nonzero
        coordinate of x; computed once per instance.
        """
        if self._shifts is not None:
            return self._shifts
        ns = self.invariant_factors
        size = self.order()
        strides = [prod(ns[k + 1:]) for k in range(len(ns))]
        table = []
        for e in self.elements():
            steps = []
            for c, n, s in zip(e, ns, strides):
                if c == 0:
                    continue
                block, a = n * s, c * s
                hi = sum(((1 << (block - a)) - 1) << (start + a)
                         for start in range(0, size, block))
                steps.append((a, hi, block - a, ((1 << size) - 1) ^ hi))
            table.append(tuple(steps))
        result = tuple(table)
        object.__setattr__(self, "_shifts", result)
        return result

    def translate_mask(self, mask: int, i: int) -> int:
        """The bitmask {j + i : j in mask} over element indices, by whole-word
        shifts and masks: ``m = ((m << a) & hi) | ((m >> b) & lo)`` per step."""
        for a, hi, b, lo in self.translation_steps()[i]:
            mask = ((mask << a) & hi) | ((mask >> b) & lo)
        return mask

    # -- element arithmetic on coordinate tuples ----------------------------

    def zero(self) -> tuple:
        return (0,) * len(self.invariant_factors)

    def add(self, a, b) -> tuple:
        i, j = self.index_of(a), self.index_of(b)
        return self._elements[self._add[i * len(self._elements) + j]]

    def neg(self, a) -> tuple:
        return self._elements[self._neg[self.index_of(a)]]

    def element_order(self, a) -> int:
        """Least k >= 1 with k*a = 0."""
        return self._orders[self.index_of(a)]

    # -- spans, independence, bases -----------------------------------------

    def span_indices(self, indices) -> frozenset[int]:
        """Subgroup generated by the given element indices, as an index set."""
        size = len(self._elements)
        add = self._add
        closed = {0}
        frontier = [0]
        gens = list(indices)
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = add[x * size + g]
                    if y not in closed:
                        closed.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(closed)

    def is_independent(self, elems) -> bool:
        """True if all elements are nonzero and generate the direct sum of
        their cyclic groups (span size equals the product of the orders)."""
        idxs = [self.index_of(e) for e in elems]
        if not idxs or 0 in idxs:
            return False
        span = self.span_indices(idxs)
        return len(span) == prod(self._orders[i] for i in idxs)

    def is_basis(self, elems) -> bool:
        idxs = [self.index_of(e) for e in elems]
        if not idxs or 0 in idxs:
            return False
        span = self.span_indices(idxs)
        return len(span) == prod(self._orders[i] for i in idxs) == self.order()

    def standard_basis(self) -> tuple[tuple, ...]:
        r = self.rank()
        return tuple(
            tuple(1 if j == i else 0 for j in range(r)) for i in range(r)
        )

    # -- automorphisms -------------------------------------------------------

    def automorphism_generators(self) -> tuple[tuple[int, ...], ...]:
        """A generating set of automorphisms, as index permutations.

        Swaps of coordinates with equal order, unit dilations of single
        coordinates, and the two transvection families compatible with the
        divisibility chain.  Orbit computations only need generators, so
        this avoids materializing the whole automorphism group.  Computed
        once per instance.
        """
        if self._auto_gens is not None:
            return self._auto_gens
        ns = self.invariant_factors
        r = len(ns)
        elems = self._elements
        index = self._index

        def perm_from(fn):
            return tuple(index[fn(e)] for e in elems)

        gens = []
        for i in range(r):
            for j in range(i + 1, r):
                if ns[i] == ns[j]:
                    def swap(e, i=i, j=j):
                        v = list(e)
                        v[i], v[j] = v[j], v[i]
                        return tuple(v)

                    gens.append(perm_from(swap))
        for i in range(r):
            n = ns[i]
            for u in range(2, n):
                if gcd(u, n) != 1:
                    continue

                def dilate(e, i=i, u=u, n=n):
                    v = list(e)
                    v[i] = (v[i] * u) % n
                    return tuple(v)

                gens.append(perm_from(dilate))
        for i in range(r):
            for j in range(r):
                if i == j:
                    continue
                # e_j -> e_j + c*e_i must respect ord(e_j) = ns[j]
                c = 1 if ns[i] <= ns[j] else ns[i] // ns[j]

                def shear(e, i=i, j=j, c=c):
                    v = list(e)
                    v[i] = (v[i] + c * e[j]) % self.invariant_factors[i]
                    return tuple(v)

                gens.append(perm_from(shear))
        identity = tuple(range(len(elems)))
        out = sorted({g for g in gens if g != identity})
        result = tuple(out) if out else (identity,)
        object.__setattr__(self, "_auto_gens", result)
        return result

    def orbit_of_tuple(self, items: tuple[int, ...]) -> set[tuple[int, ...]]:
        """Orbit of a sorted index tuple under the automorphism group,
        computed by closure under the generators."""
        gens = self.automorphism_generators()
        start = tuple(sorted(items))
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for t in frontier:
                for g in gens:
                    img = tuple(sorted(g[i] for i in t))
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
        return seen

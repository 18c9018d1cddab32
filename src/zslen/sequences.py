"""Sequences over a finite abelian group: finite multisets of elements.

A sequence is the basic object being factored.  It is stored sparsely as
sorted (element index, multiplicity) pairs, which doubles as the canonical
encoding used for hashing, memo keys, and deterministic ordering.
"""

from __future__ import annotations

import re

from .groups import AbelianGroup


class Sequence:
    """Immutable multiset of group elements.

    Supports monoid multiplication (multiset union), divisibility, and the
    zero-sum predicates.  Sequences over different groups never compare
    equal and refuse arithmetic with each other.
    """

    __slots__ = ("group", "_pairs", "_len", "_hash")

    def __init__(self, group: AbelianGroup, elements=()):
        counts: dict[int, int] = {}
        for e in elements:
            i = group.index_of(e)
            counts[i] = counts.get(i, 0) + 1
        self._init(group, tuple(sorted(counts.items())))

    def _init(self, group, pairs):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "_len", sum(m for _, m in pairs))
        object.__setattr__(self, "_hash", hash((group.invariant_factors, pairs)))

    def __setattr__(self, name, value):
        raise AttributeError("Sequence is immutable")

    @classmethod
    def from_pairs(cls, group: AbelianGroup, pairs) -> "Sequence":
        """Build from (element, multiplicity) pairs; multiplicities add up."""
        counts: dict[int, int] = {}
        for e, m in pairs:
            if m < 0:
                raise ValueError(f"negative multiplicity {m} for {e!r}")
            if m == 0:
                continue
            i = group.index_of(e)
            counts[i] = counts.get(i, 0) + m
        return cls._from_index_pairs(group, tuple(sorted(counts.items())))

    @classmethod
    def _from_index_pairs(cls, group, pairs) -> "Sequence":
        obj = object.__new__(cls)
        obj._init(group, pairs)
        return obj

    @classmethod
    def empty(cls, group: AbelianGroup) -> "Sequence":
        return cls._from_index_pairs(group, ())

    # -- structure ----------------------------------------------------------

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def index_pairs(self) -> tuple[tuple[int, int], ...]:
        """Canonical encoding: sorted (element index, multiplicity) pairs."""
        return self._pairs

    def items(self):
        """Iterate (element, multiplicity) in canonical element order."""
        elems = self.group.elements()
        for i, m in self._pairs:
            yield elems[i], m

    def support(self) -> tuple:
        elems = self.group.elements()
        return tuple(elems[i] for i, _ in self._pairs)

    def multiplicity(self, e) -> int:
        i = self.group.index_of(e)
        for j, m in self._pairs:
            if j == i:
                return m
        return 0

    def counts(self) -> tuple[int, ...]:
        """Dense multiplicity vector indexed by element index."""
        v = [0] * self.group.order()
        for i, m in self._pairs:
            v[i] = m
        return tuple(v)

    def is_squarefree(self) -> bool:
        return all(m == 1 for _, m in self._pairs)

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Sequence)
            and self.group == other.group
            and self._pairs == other._pairs
        )

    def __hash__(self):
        return self._hash

    def sort_key(self):
        """Canonical sequence order: by length, then by encoding."""
        return (self._len, self._pairs)

    def __lt__(self, other):
        if not isinstance(other, Sequence) or self.group != other.group:
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        return f"Sequence({self.group}, {format_sequence(self) !r})"

    def __str__(self):
        return format_sequence(self)

    # -- sums -----------------------------------------------------------------

    def sigma(self) -> tuple:
        """Sum of all entries, with multiplicity."""
        g = self.group
        add = g.add_table()
        size = g.order()
        acc = 0
        for i, m in self._pairs:
            for _ in range(m):
                acc = add[acc * size + i]
        return g.elements()[acc]

    def is_zero_sum(self) -> bool:
        return self.sigma() == self.group.zero()

    def subsequence_sum_mask(self) -> int:
        """Bitmask over element indices of sums of nonempty subsequences.

        Each copy of an element i adds i and the translate of the mask by i,
        taken with whole-word shifts and masks, one step per nonzero
        coordinate of i (``AbelianGroup.translate_mask``), not one table
        lookup per set bit.
        """
        g = self.group
        mask = 0
        for i, m in self._pairs:
            for _ in range(m):
                mask |= g.translate_mask(mask, i) | (1 << i)
        return mask

    def is_zero_sum_free(self) -> bool:
        """True if no nonempty subsequence sums to zero."""
        return not (self.subsequence_sum_mask() & 1)

    # -- monoid operations ------------------------------------------------------

    def _check_same_group(self, other):
        if not isinstance(other, Sequence):
            raise TypeError(f"expected Sequence, got {type(other).__name__}")
        if self.group != other.group:
            raise ValueError(
                f"sequences over different groups: {self.group} vs {other.group}"
            )

    def __mul__(self, other) -> "Sequence":
        """Multiset union (the monoid product)."""
        self._check_same_group(other)
        counts = dict(self._pairs)
        for i, m in other._pairs:
            counts[i] = counts.get(i, 0) + m
        return Sequence._from_index_pairs(self.group, tuple(sorted(counts.items())))

    def divides(self, other) -> bool:
        """Pointwise multiplicity comparison: self | other."""
        self._check_same_group(other)
        theirs = dict(other._pairs)
        return all(theirs.get(i, 0) >= m for i, m in self._pairs)

    def quotient(self, other) -> "Sequence":
        """self with one copy of other removed; other must divide self."""
        self._check_same_group(other)
        counts = dict(self._pairs)
        for i, m in other._pairs:
            have = counts.get(i, 0)
            if have < m:
                raise ValueError("quotient requires divisibility")
            if have == m:
                del counts[i]
            else:
                counts[i] = have - m
        return Sequence._from_index_pairs(self.group, tuple(sorted(counts.items())))

    def __neg__(self) -> "Sequence":
        """Entrywise negation, keeping multiplicities."""
        neg = self.group.neg_table()
        pairs = tuple(sorted((neg[i], m) for i, m in self._pairs))
        return Sequence._from_index_pairs(self.group, pairs)

    def __pow__(self, k: int) -> "Sequence":
        if k < 0:
            raise ValueError("negative power of a sequence")
        pairs = tuple((i, m * k) for i, m in self._pairs) if k else ()
        return Sequence._from_index_pairs(self.group, pairs)


_TERM_RE = re.compile(r"^\(([^()]*)\)(?:\^(\d+))?$")
_BARE_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse_sequence(group: AbelianGroup, text: str) -> Sequence:
    """Parse ``(c1,...,cr)^mult`` terms separated by whitespace.

    ``^1`` may be omitted; repeated terms accumulate.  For rank-1 groups a
    bare integer is accepted in place of ``(c)``.  The empty string is the
    empty sequence.
    """
    pairs = []
    for term in text.split():
        m = _TERM_RE.match(term)
        if m:
            coords_text, mult_text = m.groups()
            coords_text = coords_text.strip()
            coords = (
                tuple(int(c.strip()) for c in coords_text.split(","))
                if coords_text
                else ()
            )
        else:
            m = _BARE_RE.match(term)
            if m and group.rank() == 1:
                coords = (int(m.group(1)),)
                mult_text = m.group(2)
            else:
                raise ValueError(f"malformed sequence term {term!r}")
        mult = int(mult_text) if mult_text else 1
        if mult < 1:
            raise ValueError(f"multiplicity must be positive in {term!r}")
        if len(coords) != group.rank():
            raise ValueError(
                f"element {term!r} has {len(coords)} coordinates, expected {group.rank()}"
            )
        if not all(0 <= c < n for c, n in zip(coords, group.invariant_factors)):
            raise ValueError(f"coordinate out of range in {term!r}")
        pairs.append((coords, mult))
    return Sequence.from_pairs(group, pairs)


def format_sequence(s: Sequence) -> str:
    """Deterministic text form, sorted by the canonical element order."""
    terms = []
    for e, m in s.items():
        base = "(" + ",".join(str(c) for c in e) + ")"
        terms.append(base if m == 1 else f"{base}^{m}")
    return " ".join(terms)

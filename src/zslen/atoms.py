"""Minimal zero-sum sequences (atoms) and Davenport constants.

Enumeration runs a depth-first search over non-decreasing element index
lists: every node is a zero-sum-free prefix, tracked with a bitmask of the
sums of its proper nonempty submultisets.  A node emits an atom when the
negated running sum is a legal closing element and the full prefix sum is
not attainable by a proper submultiset.  Each atom is reached exactly once,
by removing one copy of its largest element, and an independent minimality
check is still run on every emission as a guard against pruning bugs.
"""

from __future__ import annotations

from .budget import Budget, as_budget
from .groups import AbelianGroup, _factorint
from .sequences import Sequence


class AtomSet:
    """All atoms over a support, with the Davenport constant of the support.

    ``atoms`` is deduplicated and sorted by (length, canonical encoding);
    ``max_len`` is the maximal atom length (0 when there are no atoms).
    Instances carry the shared memo tables used by factorization code.
    """

    def __init__(self, group: AbelianGroup, support, atoms):
        self.group = group
        self.support = tuple(sorted(support, key=group.index_of))
        self.atoms = tuple(sorted(atoms, key=Sequence.sort_key))
        self.max_len = max((len(a) for a in self.atoms), default=0)
        # sparse index-pair views, aligned with self.atoms
        self.atoms_sparse = tuple(a.index_pairs() for a in self.atoms)
        by_elem: dict[int, list[int]] = {}
        for k, sp in enumerate(self.atoms_sparse):
            for i, _ in sp:
                by_elem.setdefault(i, []).append(k)
        self.atoms_by_element = {
            i: tuple(ks) for i, ks in by_elem.items()
        }
        self._length_memo: dict = {}
        self._orbit_flags = None  # filled by lsystem._orbit_minimal_flags

    @property
    def davenport(self) -> int:
        return self.max_len

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    def __contains__(self, seq: Sequence) -> bool:
        return seq in set(self.atoms)

    def covers(self, seq: Sequence) -> bool:
        sup = set(self.support)
        return all(e in sup for e in seq.support())

    def __repr__(self):
        return (
            f"AtomSet({self.group}, |support|={len(self.support)}, "
            f"atoms={len(self.atoms)}, max_len={self.max_len})"
        )


def is_atom(s: Sequence) -> bool:
    """True iff s is nonempty, zero-sum, and has no proper nonempty
    zero-sum subsequence."""
    if len(s) == 0 or not s.is_zero_sum():
        return False
    if len(s) == 1:
        return True  # the zero element, the only length-1 zero-sum sequence
    # A proper zero-sum subsequence misses a copy of some support element,
    # so minimality is equivalent to: s minus one copy of g is zero-sum-free
    # for every g in the support.
    group = s.group
    for i, _ in s.index_pairs():
        if i == 0:
            return False  # 0 inside a longer sequence is a proper zero-sum
        reduced = s.quotient(Sequence._from_index_pairs(group, ((i, 1),)))
        if not reduced.is_zero_sum_free():
            return False
    return True


def _atom_index_lists(group, sup_indices, max_len, budget: Budget, first_positions=None):
    """DFS core: return sorted index tuples of all atoms of length >= 2
    whose support lies in sup_indices (zero excluded by the caller)."""
    size = group.order()
    add = group.add_table()
    neg = group.neg_table()
    sup = sorted(sup_indices)
    pos_of = {x: p for p, x in enumerate(sup)}
    found: list[tuple[int, ...]] = []
    if max_len < 2 or not sup:
        return found

    def rec(elems, last_pos, full, proper):
        budget.spend()
        g = neg[full]
        gp = pos_of.get(g)
        if (
            gp is not None
            and gp >= last_pos
            and len(elems) + 1 <= max_len
            and not ((proper >> full) & 1)
        ):
            found.append(elems + (g,))
        if len(elems) + 2 <= max_len:
            for p in range(last_pos, len(sup)):
                x = sup[p]
                nfull = add[full * size + x]
                if nfull == 0:
                    continue
                shifted = 0
                rest = proper
                while rest:
                    low = rest & -rest
                    rest ^= low
                    shifted |= 1 << add[(low.bit_length() - 1) * size + x]
                nproper = proper | (1 << full) | (1 << x) | shifted
                if nproper & 1:
                    continue
                rec(elems + (x,), p, nfull, nproper)

    starts = range(len(sup)) if first_positions is None else first_positions
    for p in starts:
        x = sup[p]
        rec((x,), p, x, 0)
    return found


def enumerate_atoms(
    group: AbelianGroup,
    support=None,
    max_len: int | None = None,
    symmetry: bool = False,
    budget=None,
) -> AtomSet:
    """All minimal zero-sum sequences over the support (default: all of G).

    ``max_len`` caps the searched length; by default the cap is |G|, which
    is always enough since the Davenport constant is at most the group
    order.  Over the full group the search starts only from orbit-minimal
    elements and closes the result under the automorphism group; every
    atom has an image whose least element is orbit-minimal, so nothing is
    lost.  ``symmetry`` is accepted for compatibility and has no effect.
    """
    bud = as_budget(budget)
    if support is None:
        support_elems = group.elements()
    else:
        support_elems = tuple(support)
    sup_indices = sorted({group.index_of(e) for e in support_elems})
    cap = max_len if max_len is not None else group.order()
    nonzero = [i for i in sup_indices if i != 0]
    full_support = len(sup_indices) == group.order()

    first_positions = None
    if full_support and nonzero:
        first_positions = [
            p for p, x in enumerate(nonzero) if min(group.orbit_of_tuple((x,)))[0] == x
        ]

    raw = _atom_index_lists(group, nonzero, cap, bud, first_positions)

    if first_positions is not None:
        # close the reduced result under the automorphism group
        seen: set[tuple[int, ...]] = set()
        for t in raw:
            if t not in seen:
                seen |= group.orbit_of_tuple(t)
        raw = list(seen)

    atoms = []
    if 0 in sup_indices and cap >= 1:
        atoms.append(Sequence._from_index_pairs(group, ((0, 1),)))
    for t in raw:
        counts: dict[int, int] = {}
        for i in t:
            counts[i] = counts.get(i, 0) + 1
        seq = Sequence._from_index_pairs(group, tuple(sorted(counts.items())))
        if is_atom(seq):  # independent guard over the mask-based emission
            atoms.append(seq)
    return AtomSet(group, [group.element(i) for i in sup_indices], atoms)


_ATOMSET_CACHE: dict = {}


def atom_set_for(group: AbelianGroup, support=None) -> AtomSet:
    """Cached full enumeration for a (group, support) pair."""
    if support is None:
        sup_key = None
    else:
        sup_key = tuple(sorted(group.index_of(e) for e in support))
    key = (group.invariant_factors, sup_key)
    got = _ATOMSET_CACHE.get(key)
    if got is None:
        got = enumerate_atoms(group, support)
        _ATOMSET_CACHE[key] = got
    return got


def davenport(group: AbelianGroup, support=None) -> int:
    """Davenport constant: the maximal length of an atom over the support."""
    d = atom_set_for(group, support).max_len
    if support is None and group.rank() > 0:
        ns = group.invariant_factors
        lower = 1 + sum(n - 1 for n in ns)
        primes = {p for n in ns for p in _factorint(n)}
        if len(primes) == 1 or group.rank() <= 2:
            if d != lower:
                raise RuntimeError(
                    f"Davenport computation for {group} disagrees with the "
                    f"closed form {lower} (got {d})"
                )
        elif d < lower:
            raise RuntimeError(
                f"Davenport computation for {group} fell below the general "
                f"lower bound {lower} (got {d})"
            )
    return d


def atoms_of_max_length(group: AbelianGroup, support=None) -> list[Sequence]:
    """All atoms of length exactly the Davenport constant."""
    aset = atom_set_for(group, support)
    return [a for a in aset.atoms if len(a) == aset.max_len]

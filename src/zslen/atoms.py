"""Minimal zero-sum sequences (atoms) and Davenport constants.

A nonempty zero-sum S is an atom iff S * g^-1 is zero-sum-free for one g
in supp(S): if S = T * T' with T, T' proper, nonempty and zero-sum, one of
them holds fewer copies of g than S and so divides S * g^-1.

Enumeration runs a depth-first search over non-decreasing element index
lists: every node is a zero-sum-free prefix T and carries sigma(T) and the
bitmask of -Sigma(T), where Sigma(T) is the set of nonempty subsequence
sums of T.  A nonzero child x of T is live (T * x stays zero-sum-free) iff
-x is not in Sigma(T), so a node reads its live children off the support
bits with one AND against the negated mask and tries no dead one.  A node
emits prefix * (-sigma) whenever -sigma is a legal closing element;
removing -sigma leaves the zero-sum-free prefix, so by the lemma that is
an atom.  Each atom is reached once, by removing one copy of its largest
element, and the atom test still guards every emission.  The search starts at
every support element and uses no automorphisms: starting only at
orbit-minimal elements cuts nodes (up to 6x over C5xC5), but closing the
result under Aut(G) costs as much time as that saves.

Both the search and ``is_atom`` extend a subset-sum mask by an element x
with the steps of ``AbelianGroup.translate_mask``, inlined: a few
whole-integer shift-and-mask rotations, one per nonzero coordinate of x,
instead of one addition-table lookup per set bit.  The search translates
-Sigma(T) by -x once per live child.  The atom test reads index pairs and
builds no quotient.  An atom set keeps each atom once, as its index pairs,
so each emitted tuple becomes its runs and no atom ``Sequence`` is built
until ``AtomSet.atoms`` is read, to show or return atoms.
"""

from __future__ import annotations

from .budget import Budget, as_budget, phase
from .groups import AbelianGroup, _factorint
from .sequences import Sequence


class AtomSet:
    """All atoms over a support, with the Davenport constant of the support.

    ``atoms_sparse`` holds each atom once, as sorted (element index,
    multiplicity) pairs, in ``Sequence.sort_key`` order; callers pass
    distinct atoms, as the search does.  ``atoms`` builds the same atoms as
    ``Sequence``s on first use.  ``max_len`` is the maximal atom length (0
    when there are no atoms).  Instances carry the shared memo tables used
    by factorization code.
    """

    def __init__(self, group: AbelianGroup, support, atoms_sparse):
        self.group = group
        self.support = tuple(sorted(support, key=group.index_of))
        keyed = sorted((sum(m for _, m in sp), sp) for sp in atoms_sparse)
        self.atoms_sparse = tuple(sp for _, sp in keyed)
        self.max_len = keyed[-1][0] if keyed else 0
        self._atoms = None  # built by the atoms property
        self._length_memo: dict = {}
        self._orbit_flags = None  # filled by lsystem._orbit_minimal_flags
        self._tau_walk = None  # filled by lsystem._tau_walk
        self._divisor_tables = None  # filled by factorize._divisor_tables
        self._members = None  # frozenset of the atoms, built on first lookup
        self._support_set = None  # frozenset of the support, built by covers

    @property
    def atoms(self) -> tuple[Sequence, ...]:
        if self._atoms is None:
            self._atoms = tuple(
                Sequence._from_index_pairs(self.group, sp) for sp in self.atoms_sparse
            )
        return self._atoms

    @property
    def davenport(self) -> int:
        return self.max_len

    def __len__(self) -> int:
        return len(self.atoms_sparse)

    def __iter__(self):
        return iter(self.atoms)

    def __contains__(self, seq: Sequence) -> bool:
        if self._members is None:
            self._members = frozenset(self.atoms)
        return seq in self._members

    def covers(self, seq: Sequence) -> bool:
        if self._support_set is None:
            self._support_set = frozenset(self.support)
        return all(e in self._support_set for e in seq.support())

    def __repr__(self):
        return (
            f"AtomSet({self.group}, |support|={len(self.support)}, "
            f"atoms={len(self)}, max_len={self.max_len})"
        )


def is_atom(s: Sequence) -> bool:
    """True iff s is nonempty, zero-sum, and has no proper nonempty
    zero-sum subsequence."""
    return _is_atom_pairs(s.group, s.index_pairs())


def _is_atom_pairs(group: AbelianGroup, pairs) -> bool:
    """``is_atom`` on sorted index pairs.  By the module's lemma one
    quotient by the first support element decides it; for 0, (0) * 0^-1 is
    empty, and 0 * T leaves the zero-sum T.  One pass over the pairs
    accumulates sigma(s) and the subsequence-sum mask of s with one copy of
    its first element left out."""
    if not pairs:
        return False
    add = group.add_table()
    size = group.order()
    steps = group.translation_steps()
    total = pairs[0][0]
    mask = 0
    for k, (i, m) in enumerate(pairs):
        for _ in range(m - 1 if k == 0 else m):
            total = add[total * size + i]
            shifted = mask  # translate_mask(mask, i), inlined
            for a, hi, b, lo in steps[i]:
                shifted = ((shifted << a) & hi) | ((shifted >> b) & lo)
            mask |= shifted | (1 << i)
    return total == 0 and not (mask & 1)


def _atom_index_lists(group, sup_indices, max_len, budget: Budget):
    """DFS core: return sorted index tuples of all atoms of length >= 2
    whose support lies in sup_indices (zero excluded by the caller).

    A node is a zero-sum-free prefix T, non-decreasing in index, and carries
    sigma(T) and ``nsig``, the bitmask of -Sigma(T) for Sigma(T) the set of
    its nonempty subsequence sums.  T * x is zero-sum-free iff -x is not in
    Sigma(T), so the live children are the support bits at or above the
    last index that ``nsig`` does not hold, walked in ascending order; a
    child's mask is ``nsig``, plus -x, plus ``nsig`` translated by -x.
    Every node spends one unit and emits T * (-sigma(T)) when -sigma(T) is
    in the support at or above the last index and the cap allows it.
    """
    size = group.order()
    add = group.add_table()
    neg = group.neg_table()
    steps = group.translation_steps()
    supmask = 0
    for x in sup_indices:
        supmask |= 1 << x
    found: list[tuple[int, ...]] = []
    if max_len < 2 or not supmask:
        return found
    prefix: list[int] = []
    spend = budget.spend

    def expand(last, full, nsig):
        # visit every live child of the node (last, full, nsig), depth first
        live = (supmask >> last << last) & ~nsig
        while live:
            low = live & -live
            live ^= low
            x = low.bit_length() - 1
            nx = neg[x]
            shifted = nsig  # translate_mask(nsig, -x), inlined
            for a, hi, b, lo in steps[nx]:
                shifted = ((shifted << a) & hi) | ((shifted >> b) & lo)
            nfull = add[full * size + x]
            spend()
            prefix.append(x)
            g = neg[nfull]
            if g >= x and supmask >> g & 1 and len(prefix) < max_len:
                found.append((*prefix, g))
            if len(prefix) + 2 <= max_len:
                expand(x, nfull, nsig | (1 << nx) | shifted)
            prefix.pop()

    expand(0, 0, 0)  # the empty prefix: every support element is live
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
    order.  ``symmetry`` is accepted for compatibility and has no effect:
    there is no orbit reduction to switch.
    """
    if max_len is not None and max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    bud = as_budget(budget)
    if support is None:
        support_elems = group.elements()
    else:
        support_elems = tuple(support)
    sup_indices = sorted({group.index_of(e) for e in support_elems})
    cap = max_len if max_len is not None else group.order()
    nonzero = [i for i in sup_indices if i != 0]

    with phase("enumerate_atoms"):
        raw = _atom_index_lists(group, nonzero, cap, bud)

    atoms = [((0, 1),)] if 0 in sup_indices else []
    for t in raw:
        pairs, m = [], 0  # the runs of the non-decreasing tuple t
        for i, j in zip(t, (*t[1:], -1)):
            m += 1
            if i != j:
                pairs.append((i, m))
                m = 0
        # guard against pruning bugs; by the lemma it drops nothing
        if _is_atom_pairs(group, pairs):
            atoms.append(tuple(pairs))
    return AtomSet(group, [group.element(i) for i in sup_indices], atoms)


_ATOMSET_CACHE: dict = {}


def atom_set_for(group: AbelianGroup, support=None) -> AtomSet:
    """Cached full enumeration for a (group, support) pair; a support that
    covers all of G shares the group's entry."""
    sup_key = None
    if support is not None:
        sup_key = tuple(sorted({group.index_of(e) for e in support}))
        if len(sup_key) == group.order():
            sup_key = None
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

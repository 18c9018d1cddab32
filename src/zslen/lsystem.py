"""The system of sets of lengths at bounded scale, and its sumset algebra.

The exact realizability oracle rests on one counting fact: if L(B) = L then
B factors into exactly m = min L atoms, and conversely every product of m
atoms realizes *some* set containing m.  Enumerating all multisets of m
atoms and testing L(product) = L is therefore a complete decision
procedure.  The search walks multisets in a fixed lexicographic order
(longest atoms first) and prunes a partial product P of k atoms whenever
(m - k) + L(P) is not contained in L, which is sound because the remaining
atoms can always be left untouched.  The same argument gives the pair rule:
if B = A_1 ... A_m realizes L, then L(A_p A_q) + (m - 2) is contained in L
for every two of its atoms, p = q included when an atom repeats, since the
other m - 2 atoms can be left untouched.  So an atom joins the walk only if
it passes this test against every atom already chosen.  Both rules only
prune, so the walk order and the first witness stay the same.  The first
witness found in that order is the lexicographically minimal one.  The
leading atom is restricted to atoms that are minimal in their automorphism
orbit, which never discards that witness: an automorphism lowering its
leading atom would map it to a witness earlier in the order.

The oracle owns this walk as one recursive loop over candidate atoms.  Each
candidate passes, in order: the orbit filter (leading atom only), one
budget node, the capacity bound (a failure ends the loop, since later atoms
are no longer), the pair rule (from the third atom on), and the prefix test
on the grown product (from the second atom on).  A product of m atoms
spends one more node, and its set of lengths is compared with the target.

Every potentially explosive operation takes a node budget; exhausting it
yields a typed inconclusive outcome, never a wrong boolean.

Exactness caveats, by design: the distance-set and minimal-distance maps
are reported per bound and are monotone underestimates; no finite procedure
for their exact values is attempted here (over some groups even the maximal
distance is an open problem, so presenting bounded observations as exact
would be wrong).  The related family of distances that occur in arbitrarily
long periodic middles of sets of lengths is out of scope entirely: deciding
membership quantifies over all lengths.  What theory pins down, and what
the verification scenarios exercise at desk scale, is that every minimal
distance occurs that way and that every such recurring distance divides
some minimal distance.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .budget import Budget, BudgetExceededError, as_budget, phase
from .atoms import AtomSet, atom_set_for, davenport
from .factorize import (
    LengthSet,
    _CODES,
    _field_width,
    index_factorizations,
    length_mask,
    length_set,
)
from .groups import AbelianGroup
from .sequences import Sequence


# -- sumset algebra ----------------------------------------------------------


def sumset(a: LengthSet, b: LengthSet) -> LengthSet:
    return a + b


def k_fold(a: LengthSet, k: int) -> LengthSet:
    """k-fold sumset a + ... + a."""
    if k < 1:
        raise ValueError("k_fold needs k >= 1")
    acc = a
    for _ in range(k - 1):
        acc = acc + a
    return acc


def dilate(a: LengthSet, k: int) -> LengthSet:
    """Dilation {k*x : x in a}."""
    if k < 1:
        raise ValueError("dilate needs k >= 1")
    if not a:
        raise ValueError("dilation of an empty length set")
    return LengthSet(k * x for x in a)


# -- bounded system enumeration -----------------------------------------------


@dataclass(frozen=True)
class LengthSystem:
    """All distinct sets of lengths seen within an enumeration bound.

    ``sets`` pairs each set with the first witness sequence that realized
    it in the (deterministic) enumeration order.
    """

    group: AbelianGroup
    support: tuple
    bound_kind: str
    bound: int
    sets: tuple  # of (LengthSet, Sequence)

    def length_sets(self) -> tuple[LengthSet, ...]:
        return tuple(ls for ls, _ in self.sets)

    def __contains__(self, ls: LengthSet) -> bool:
        return any(got == ls for got, _ in self.sets)

    def __len__(self) -> int:
        return len(self.sets)


def _zero_free_levels(aset: AtomSet, bound: int, bud: Budget):
    """The forward pass read by :func:`enumerate_system` and
    :func:`zero_free_length_masks`; its one output is the zero-free
    sequences.

    Returns ``(levels, fields, padded)``: ``levels[n]`` maps every zero-free
    zero-sum sequence B' with |B'| = n to the bitmask of L(B').  L(empty) =
    {0}, and B' on level n pushes ``mask << 1`` into B'*A for each nonzero
    atom A with |A| <= bound - n and first(A) <= first(B'), where first is
    the lowest element index present (first(empty) = |G|, so the empty
    sequence pushes every atom).  Then A holds the first element p of
    B'*A, and these are all the pushes that reach C = B'*A through an atom
    holding p.  That suffices: every factorization of a zero-free zero-sum
    C has an atom A through p, and C/A is zero-free, zero-sum and shorter,
    so C is reached, a level is complete before it is read, and L(C) =
    1 + the union of L(C/A) over the atoms A through p that divide C.
    Only zero-sum sequences are ever reached.  The zero element is a
    prime, so B(G) = F({0}) x B(G \\ {0}): the zero-padded 0^k B' is never
    pushed, since L(0^k B') = k + L(B') has the mask ``mask << k``.

    Sequences are packed integers with one whole-byte field per group
    element, the element of index 0 most significant, so first(B') is
    ``(width * |G| - key.bit_length()) // width``; ``fields`` unpacks them
    into count tuples, and ``padded`` says whether the support holds the
    zero element.  A field holds ``bound``, so no count overflows and B'*A
    is one integer addition.

    The budget is spent as if every zero-sum B were pushed through every
    atom, zero-padded ones included: one node per (B, A) pair with |A| <=
    bound - |B|, the zero atom included, spent a level at a time before
    the level runs.  The pass performs fewer pushes than it pays for, and
    the spend depends only on the support and the bound.
    """
    size = aset.group.order()
    fields = struct.Struct(f">{size}{_CODES[_field_width((bound,))]}")
    width = 8 * fields.size // size
    padded = bool(aset.support) and aset.group.index_of(aset.support[0]) == 0
    # packed atoms of length k >= 2, by first index and then by k
    firsts: list[dict[int, list[int]]] = [{} for _ in range(size + 1)]
    atoms_by_len = [0] * (bound + 1)
    for sp in aset.atoms_sparse:
        n = sum(m for _, m in sp)
        if n <= bound:
            atoms_by_len[n] += 1
        if 1 < n <= bound:
            packed = sum(m << (width * (size - 1 - i)) for i, m in sp)
            firsts[sp[0][0]].setdefault(n, []).append(packed)
    by_first = []  # by_first[f]: (k, those of length k with first index <= f), k ascending
    below: dict[int, list[int]] = {}
    for by_len in firsts:
        below = {k: below.get(k, []) + by_len.get(k, []) for k in below.keys() | by_len.keys()}
        by_first.append(sorted(below.items()))
    levels: list[dict[int, int]] = [{} for _ in range(bound + 1)]
    levels[0][0] = 1
    all_zero_sum = 0  # zero-sum sequences of length n, zero-padded ones included
    top = width * size
    for n, level in enumerate(levels):
        all_zero_sum = all_zero_sum + len(level) if padded else len(level)
        bud.spend(all_zero_sum * sum(atoms_by_len[: bound - n + 1]))
        pushes = [
            [(levels[n + k], packed) for k, packed in by_len if k <= bound - n]
            for by_len in by_first
        ]
        for key, mask in level.items():
            shifted = mask << 1
            for target, packed in pushes[(top - key.bit_length()) // width]:
                for a in packed:
                    c = key + a
                    target[c] = target.get(c, 0) | shifted
    return levels, fields, padded


def zero_free_length_masks(aset: AtomSet, bound: int, budget):
    """Yield ``(counts, mask)`` for every zero-free zero-sum sequence B'
    over the support of ``aset`` with |B'| <= bound: the multiplicity tuple
    of B' and the bitmask of L(B').  No zero-padded 0^k B' is yielded; its
    mask is ``mask << k``.

    This is the forward pass of :func:`enumerate_system` with its budget
    spend, and running out raises :class:`BudgetExceededError` with phase
    ``enumerate_system``.  The pass runs before the first item is yielded,
    no order is promised, and each level is freed once it is read.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    with phase("enumerate_system"):
        levels, fields, _ = _zero_free_levels(aset, bound, as_budget(budget))
    for level in levels:
        for key, mask in level.items():
            yield fields.unpack(key.to_bytes(fields.size, "big")), mask
        level.clear()


def _first_witnesses(aset: AtomSet, bound: int, bud: Budget) -> dict[int, tuple[int, ...]]:
    """L mask -> counts of its first witness in the walk, over the zero-sum
    sequences with |B| <= bound; see :func:`enumerate_system`."""
    levels, fields, padded = _zero_free_levels(aset, bound, bud)
    # zero-free mask -> (sorted index tuple, counts) of its walk-first B' so far
    firsts: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    found: dict[int, tuple[int, ...]] = {}
    for n, level in enumerate(levels):
        # the walk meets the sequences of one level in descending key order
        top: dict[int, int] = {}
        for key, mask in level.items():
            if key > top.get(mask, -1):
                top[mask] = key
        level.clear()
        for mask, key in top.items():
            counts = fields.unpack(key.to_bytes(fields.size, "big"))
            spelled = tuple(i for i, c in enumerate(counts) for _ in range(c))
            if mask not in firsts or spelled < firsts[mask][0]:
                firsts[mask] = (spelled, counts)
        if padded or n == bound:
            # 0^k B' with |B'| <= n = bound - k; the largest k is set first
            k = bound - n
            for mask, (_, counts) in firsts.items():
                found.setdefault(mask << k, (k,) + counts[1:])
    return found


def enumerate_system(
    group: AbelianGroup,
    support=None,
    bound_kind: str = "seq_length",
    bound: int = 12,
    budget=None,
) -> LengthSystem:
    """All distinct L(B) for B within the bound.

    ``seq_length`` ranges over all zero-sum sequences B with |B| <= bound.
    It reads the zero-free sequences B' of the forward pass (the ones
    :func:`zero_free_length_masks` yields), and each zero-padded 0^k B'
    gets L(B') shifted by k.  B' pushes only the atoms A with first(A) <=
    first(B'), the lowest element indices present: every factorization of
    a zero-free C = B'*A has an atom through the first element of C, so
    each C is still reached and gets all of L(C).
    One budget node is still one (B, A) pair over all zero-sum B and all
    atoms A, the zero-padded ones included, whether or not the pass
    performs the push, so the spend is unchanged by the first-index rule;
    the length memo is left untouched.  The first witness of a set L is
    0^k B' with k the largest value such that L - k is the set of some
    zero-free B' with |B'| <= bound - k, and B' the first such in the walk:
    the walk visits a sequence with more zeros first, and sequences with
    equal zeros in the order of their zero-free parts.  The walk meets the
    sequences of one length in descending packed-key order, so one loop
    over each level keeps the largest key per set; there is no global sort.

    ``num_atom_factors`` ranges over products of at most ``bound`` atoms.
    One flat loop walks the atoms in reverse index order and reaches each
    product once, as a non-decreasing list of positions, the empty product
    first.  A stack entry carries a product's counts; its children go on
    in descending position, so they pop in depth-first preorder, and a
    product of ``bound`` atoms has none.  Each product spends one budget
    node and one ``length_mask`` call on a private copy of the atom set,
    so that the walk's memo is freed on return instead of staying on the
    shared one, and each set keeps its first witness in this order.  The
    depth is bounded by the budget alone.  Running out of budget raises
    :class:`BudgetExceededError` with phase ``enumerate_system``.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if bound_kind not in ("seq_length", "num_atom_factors"):
        raise ValueError(f"unknown bound kind {bound_kind!r}")
    bud = as_budget(budget)
    aset = atom_set_for(group, support)
    found: dict[int, tuple[int, ...]] = {}  # L mask -> first witness counts

    with phase("enumerate_system"):
        if bound_kind == "seq_length":
            found = _first_witnesses(aset, bound, bud)
        else:
            private = AtomSet(group, aset.support, aset.atoms_sparse)
            items = aset.atoms_sparse[::-1]
            # (first child position, atoms in the product, its counts)
            stack = [(0, 0, (0,) * group.order())]
            while stack:
                pos, depth, key = stack.pop()
                bud.spend()
                found.setdefault(length_mask(private, key, bud), key)
                if depth < bound:
                    for p in range(len(items) - 1, pos - 1, -1):
                        counts = list(key)
                        for i, m in items[p]:
                            counts[i] += m
                        stack.append((p, depth + 1, tuple(counts)))

    sets = []
    for mask, wit_counts in found.items():
        pairs = tuple((i, c) for i, c in enumerate(wit_counts) if c)
        witness = Sequence._from_index_pairs(group, pairs)
        sets.append((LengthSet.from_mask(mask), witness))
    sets.sort(key=lambda p: p[0].values)
    return LengthSystem(group, aset.support, bound_kind, bound, tuple(sets))


def nfold_system_sumset(system: LengthSystem, n: int) -> tuple[LengthSet, ...]:
    """All n-fold sums of members of the system, sorted and deduplicated.

    Equals the system's own family exactly when the system is closed under
    set addition.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    base = [ls for ls in system.length_sets() if ls]
    family = set(base)
    for _ in range(n - 1):
        family = {a + b for a in family for b in base}
    return tuple(sorted(family, key=lambda s: s.values))


# -- the exact realizability oracle --------------------------------------------


@dataclass(frozen=True)
class DecideResult:
    """Outcome of a realizability decision.

    ``realizable`` is True/False for an exact verdict, or None when the
    node budget ran out before the enumeration finished (inconclusive: the
    explored bound is in ``nodes``).
    """

    realizable: bool | None
    witness: Sequence | None
    nodes: int

    def __bool__(self):
        raise TypeError(
            "DecideResult is tri-state; test .realizable explicitly"
        )


def _tau_walk(aset: AtomSet):
    """The oracle's walk items over ``aset``: ``(order, items, lengths)``,
    where ``order`` lists the atom indices longest first, then by encoding,
    and ``items`` and ``lengths`` are the sparse vectors and the lengths of
    the atoms in that order.  Computed once per atom set."""
    if aset._tau_walk is None:
        sparse = aset.atoms_sparse
        lengths = [sum(m for _, m in sp) for sp in sparse]
        order = tuple(sorted(range(len(sparse)), key=lambda i: (-lengths[i], sparse[i])))
        aset._tau_walk = (
            order,
            tuple(sparse[i] for i in order),
            tuple(lengths[i] for i in order),
        )
    return aset._tau_walk


def _orbit_minimal_flags(aset: AtomSet) -> list[bool]:
    """Whether each atom is minimal in its automorphism orbit under the
    oracle's ordering key (atoms of one orbit have equal length, so the
    key is the sparse encoding).  ``aset`` covers all of G, so every orbit
    member is one of its atoms.  Computed once per atom set."""
    if aset._orbit_flags is not None:
        return aset._orbit_flags
    sparse = aset.atoms_sparse
    spelled = {
        tuple(i for i, m in sp for _ in range(m)): k for k, sp in enumerate(sparse)
    }
    flags: list[bool | None] = [None] * len(sparse)
    for t, k in spelled.items():
        if flags[k] is None:
            orbit = [spelled[u] for u in aset.group.orbit_of_tuple(t)]
            least = min(orbit, key=sparse.__getitem__)
            for j in orbit:
                flags[j] = j == least
    aset._orbit_flags = flags
    return flags


def decide_length_set(
    group: AbelianGroup,
    target: LengthSet,
    budget=None,
    symmetry: bool = False,
) -> DecideResult:
    """Exact membership of a finite set in the system of sets of lengths.

    Enumerates multisets of exactly m = min(target) atoms over the full
    support; see the module docstring for the completeness argument and
    the determinism contract.  From the third atom on, a candidate must
    pass the pair rule against every atom already chosen: L(A_p A_q) +
    (m - 2) is contained in the target, because a realizer of the target
    with the two atoms among its m can leave the other m - 2 untouched.
    At the second atom the prefix test of the two is the same check.
    Each pair's verdict is cached for this decision only; its set of
    lengths comes from ``length_mask`` on the atom set, so it shares the
    length memo and spends this decision's budget like any other kernel
    node.  ``symmetry`` is accepted for compatibility and has no effect:
    the orbit reduction is always on.

    A target with min 1 and two or more elements is decided False before
    any atom set is built, with no node spent: a B with min L(B) = 1 is an
    atom, and an atom's only factorization is itself, so L(B) = {1}.  A
    walk over the atoms reaches the same verdict, so this changes only
    ``nodes``, and only for such targets.  The walk therefore has m >= 2,
    and every leaf holds its prefix mask.
    """
    if not target:
        raise ValueError("cannot decide the empty set")
    if target.min < 1:
        raise ValueError("decide requires min(target) >= 1 (and excludes {0})")
    bud = as_budget(budget)
    m = target.min
    tmask = target.mask
    x_max = target.max

    if len(target) == 1:
        # {m} is always realized by m copies of the zero element
        witness = Sequence._from_index_pairs(group, ((0, m),))
        return DecideResult(True, witness, bud.used)
    if m == 1:
        # min L(B) = 1 makes B an atom, and L(atom) = {1}
        return DecideResult(False, None, bud.used)

    aset = atom_set_for(group)
    order, items, lengths = _tau_walk(aset)
    d_max = aset.max_len
    size = group.order()
    counts = [0] * size
    totals = [0] * (m + 1)  # length of the partial product, by depth
    flags = _orbit_minimal_flags(aset)
    width = len(items)
    compatible: dict[int, bool] = {}  # c * width + p -> the pair rule, c <= p
    chosen: list[int] = []

    def pair_ok(c, p):
        both = [0] * size
        for i, k in items[c]:
            both[i] += k
        for i, k in items[p]:
            both[i] += k
        return not (length_mask(aset, tuple(both), bud) << (m - 2)) & ~tmask

    def walk(pos, depth):
        # the witness counts below the node ``chosen`` of ``depth``, or None
        child = depth + 1
        for p in range(pos, width):
            if depth == 0 and not flags[order[p]]:
                continue
            bud.spend()
            # capacity: the largest reachable max-length after adding the
            # remaining atoms cannot fall short of max(target); atoms are
            # walked longest-first, so the bound only shrinks from here (the
            # zero atom is the only atom of length 1)
            nzeros = counts[0] + (lengths[p] == 1)
            ntotal = totals[depth] + lengths[p]
            if nzeros + (ntotal - nzeros + (m - child) * d_max) // 2 < x_max:
                return None
            if depth >= 2:
                # the pair rule against every atom chosen so far; at depth 1
                # the prefix test of the two atoms is the same check
                for c in chosen:
                    key = c * width + p
                    ok = compatible.get(key)
                    if ok is None:
                        ok = compatible[key] = pair_ok(c, p)
                    if not ok:
                        break
                if not ok:
                    continue
            totals[child] = ntotal
            sp = items[p]
            for i, k in sp:
                counts[i] += k
            chosen.append(p)
            # the prefix test: (m - child) + L(P) is contained in the target
            mask = length_mask(aset, tuple(counts), bud) if child >= 2 else 0
            if not (mask << (m - child)) & ~tmask:
                if child < m:
                    found = walk(p, child)
                    if found is not None:
                        return found
                else:
                    bud.spend()
                    if mask == tmask:
                        return tuple(counts)
            chosen.pop()
            for i, k in sp:
                counts[i] -= k
        return None

    try:
        found = walk(0, 0)
    except BudgetExceededError:
        return DecideResult(None, None, bud.used)
    if found is None:
        return DecideResult(False, None, bud.used)
    pairs = tuple((i, c) for i, c in enumerate(found) if c)
    return DecideResult(True, Sequence._from_index_pairs(group, pairs), bud.used)


# -- elasticities ---------------------------------------------------------------


def rho_k(
    group: AbelianGroup,
    k: int,
    budget=None,
    symmetry: bool = False,
) -> int:
    """Largest max L over sets of lengths containing k.

    Any B with k in L(B) is a product of exactly k atoms, so scanning all
    k-atom products is exhaustive; max L is invariant under automorphisms,
    so the scan keeps only products led by an orbit-minimal atom.  One
    flat loop walks the atoms in the oracle's order (``_tau_walk``) and
    reaches each product once, as a non-decreasing list of positions.  A
    stack entry carries a product's last position and the counts of the
    atoms before it; children go on in descending position, so they pop
    in depth-first preorder.  A leading atom that is not orbit-minimal is
    never pushed, so it spends no node.  Every product of 1..k atoms
    spends one budget node, and a k-atom product one more, before its
    ``length_mask`` on a private copy of the group's atom set, whose memo
    is freed on return; the walk order and the orbit flags come from the
    shared one.  The depth is bounded by the budget alone.  ``symmetry``
    is accepted for compatibility and has no effect.  Running out of
    budget raises :class:`BudgetExceededError` with phase ``rho_k``.
    """
    if k < 1:
        raise ValueError("rho_k needs k >= 1")
    if group.order() < 3:
        raise ValueError("rho_k is defined for |G| >= 3")
    bud = as_budget(budget)
    aset = atom_set_for(group)
    order, items, _ = _tau_walk(aset)
    flags = _orbit_minimal_flags(aset)
    private = AtomSet(group, aset.support, aset.atoms_sparse)
    last = len(items) - 1
    best = 0
    # (position of the last atom, atoms in the product, counts without it)
    stack = [(p, 1, (0,) * group.order()) for p in range(last, -1, -1) if flags[order[p]]]
    with phase("rho_k"):
        while stack:
            p, depth, parent = stack.pop()
            bud.spend()
            counts = list(parent)
            for i, m in items[p]:
                counts[i] += m
            key = tuple(counts)
            if depth < k:
                stack += [(q, depth + 1, key) for q in range(last, p - 1, -1)]
            else:
                bud.spend()
                best = max(best, length_mask(private, key, bud).bit_length() - 1)
    return best


def elasticity(group: AbelianGroup) -> Fraction:
    """Supremal ratio max L / min L over the system: half the Davenport
    constant, as an exact rational."""
    if group.order() < 3:
        raise ValueError("elasticity is defined for |G| >= 3")
    return Fraction(davenport(group), 2)


def _negation_pairs(parts) -> list[Sequence] | None:
    """Pair ``parts`` as (U, -U), each pair given by its smaller member, or
    None when they do not pair; a self-negating part needs an even count."""
    left = Counter(parts)
    pairs: list[Sequence] = []
    for u in sorted(left, key=Sequence.sort_key):
        while left[u]:
            left[u] -= 1
            if not left[-u]:
                return None
            left[-u] -= 1
            pairs.append(min(u, -u))
    return pairs


def extremal_elasticity_decomposition(b: Sequence, budget=None):
    """If max L(B) / min L(B) attains the elasticity, recover the pairing
    of B into negation pairs of maximal-length atoms; otherwise None.  The
    first factorization into those atoms, by ascending index list, whose
    parts pair is used; its enumeration spends from ``budget``.  Like the
    elasticity, it is defined for |G| >= 3 only."""
    group = b.group
    if group.order() < 3:
        raise ValueError("extremal_elasticity_decomposition is defined for |G| >= 3")
    if not b.is_zero_sum():
        raise ValueError("sequence is not zero-sum")
    if len(b) == 0:
        return None
    bud = as_budget(budget)
    ls = length_set(b, budget=bud)
    d = davenport(group)
    if Fraction(ls.max, ls.min) != Fraction(d, 2):
        return None
    aset = atom_set_for(group, b.support())
    top = [sp for sp in aset.atoms_sparse if sum(m for _, m in sp) == d]
    longest = AtomSet(group, aset.support, top)
    _, zs = index_factorizations(b, longest, budget=bud)
    for z in sorted(z[::-1] for z in zs):
        pairs = _negation_pairs(longest.atoms[i] for i in z)
        if pairs is not None:
            return pairs
    raise RuntimeError(
        "elasticity ratio attained but no pairing into maximal-length "
        "atoms was found; this contradicts the extremal structure"
    )


# -- distance sets ----------------------------------------------------------------


def delta_bounded(group: AbelianGroup, support=None, bound: int = 12, budget=None):
    """Union of the distance sets of all L(B) for |B| <= bound: a monotone
    underestimate of the true distance set."""
    system = enumerate_system(group, support, "seq_length", bound, budget)
    out: set[int] = set()
    for ls, _ in system.sets:
        out.update(ls.delta())
    return tuple(sorted(out))


@dataclass(frozen=True)
class DeltaStarReport:
    """Bound-dependent estimate of the set of minimal distances.

    One entry per automorphism class of support subset whose observed
    distance set is nonempty; the estimate is the gcd of the observed
    distances.  No exactness is claimed: entries can only grow or refine
    as the bound increases.
    """

    group: AbelianGroup
    bound: int
    entries: tuple  # of (support element tuple, estimate)

    def values(self) -> tuple[int, ...]:
        return tuple(sorted({est for _, est in self.entries}))

    def max_estimate(self) -> int:
        vals = self.values()
        return vals[-1] if vals else 0


def delta_star_bounded(group: AbelianGroup, bound: int = 12, budget=None) -> DeltaStarReport:
    """Minimal-distance estimates over nonzero support subsets, one subset
    per automorphism orbit."""
    size = group.order()
    if size > 16:
        raise ValueError(
            "delta_star_bounded enumerates all support subsets; "
            f"|G| = {size} is beyond desk scale"
        )
    bud = as_budget(budget)
    nonzero = list(range(1, size))
    reps = []
    seen: set[tuple[int, ...]] = set()
    for bits in range(1, 1 << len(nonzero)):
        subset = tuple(nonzero[i] for i in range(len(nonzero)) if (bits >> i) & 1)
        if subset in seen:
            continue
        orbit = group.orbit_of_tuple(subset)
        seen |= orbit
        reps.append(min(orbit))
    entries = []
    elems = group.elements()
    for subset in sorted(reps):
        support = tuple(elems[i] for i in subset)
        deltas = delta_bounded(group, support, bound, bud)
        if deltas:
            entries.append((support, reduce(math.gcd, deltas)))
    return DeltaStarReport(group, bound, tuple(entries))


@dataclass(frozen=True)
class MinDeltaEstimate:
    """gcd of the observed distance set of one support, plus (over
    elementary 2-groups) the exact basis-plus-sum shape test."""

    estimate: int
    basis_plus_sum: bool | None


def min_delta_support(group: AbelianGroup, g1, bound: int = 12, budget=None) -> MinDeltaEstimate:
    """Bounded minimal-distance estimate for one support subset."""
    elems = tuple(g1)
    if not elems:
        raise ValueError("support must be nonempty")
    idxs = {group.index_of(e) for e in elems}
    if 0 in idxs:
        raise ValueError("support must not contain the zero element")
    deltas = delta_bounded(group, elems, bound, budget)
    estimate = reduce(math.gcd, deltas) if deltas else 0
    shape = None
    if group.invariant_factors and all(n == 2 for n in group.invariant_factors):
        shape = is_basis_plus_sum(group, elems)
    return MinDeltaEstimate(estimate, shape)


def is_basis_plus_sum(group: AbelianGroup, elems) -> bool:
    """Over an elementary 2-group: is the subset {f_1,...,f_r, f_1+...+f_r}
    for some basis (f_1,...,f_r)?"""
    r = group.rank()
    elems = [tuple(e) for e in elems]
    unique = list(dict.fromkeys(elems))
    if len(unique) != len(elems) or len(unique) != r + 1:
        return False
    for cand in unique:
        rest = [e for e in unique if e != cand]
        total = group.zero()
        for e in rest:
            total = group.add(total, e)
        if total == cand and group.is_basis(rest):
            return True
    return False


# -- almost arithmetical multiprogressions ------------------------------------------


@dataclass(frozen=True)
class AampWitness:
    """A decomposition L = y + (head ∪ central ∪ tail) with central part a
    full periodic pattern of difference d and fringes bounded by M."""

    y: int
    d: int
    period: tuple[int, ...]  # contains 0 and d
    bound: int
    head: tuple[int, ...]  # subset of [-M, -1]
    central: tuple[int, ...]  # min 0, the full pattern up to its max
    tail: tuple[int, ...]  # subset of max(central) + [1, M]


def is_aamp(target: LengthSet, d: int, m_bound: int) -> AampWitness | None:
    """Search for a witness decomposition with difference d and fringe
    bound M; None when no shift/period works."""
    if d < 1:
        raise ValueError("difference must be >= 1")
    if m_bound < 0:
        raise ValueError("fringe bound must be >= 0")
    if not target:
        return None
    vals = list(target)
    for yi, y in enumerate(vals):
        if any(v < y - m_bound for v in vals[:yi]):
            continue
        for zi in range(len(vals) - 1, yi - 1, -1):
            z = vals[zi]
            if any(v > z + m_bound for v in vals[zi + 1 :]):
                continue
            central = [v - y for v in vals[yi : zi + 1]]
            residues = {c % d for c in central}
            width = z - y
            expected = [x for x in range(width + 1) if x % d in residues]
            if central != expected:
                continue
            period = tuple(sorted(residues | {d}))
            head = tuple(v - y for v in vals[:yi])
            tail = tuple(v - y for v in vals[zi + 1 :])
            return AampWitness(y, d, period, m_bound, head, central=tuple(central), tail=tail)
    return None


def minimal_aamp_bound(target: LengthSet, d: int) -> int | None:
    """Smallest fringe bound M for which a witness exists, or None."""
    if not target:
        return None
    limit = target.max - target.min + 1
    for m_bound in range(limit + 1):
        if is_aamp(target, d, m_bound) is not None:
            return m_bound
    return None


# -- the additive-closure checker ------------------------------------------------------


@dataclass(frozen=True)
class SumsetCheck:
    """A sumset the closure scan left undecided, with the canonically-first
    pair producing it."""

    left: LengthSet
    right: LengthSet
    sumset: LengthSet


@dataclass(frozen=True)
class ClosureReport:
    group: AbelianGroup
    bound: int
    verdict: str  # CLOSED-AT-BOUND | NOT-CLOSED | INCONCLUSIVE
    witness_pair: tuple | None  # (LengthSet, LengthSet)
    failed_sumset: LengthSet | None
    inconclusive: tuple  # of SumsetCheck
    pairs_checked: int
    system_size: int
    exhausted_phase: str | None = None  # a phase that ran out before the scan


def check_additively_closed(
    group: AbelianGroup,
    bound: int = 12,
    budget=None,
    threads: int = 1,
    symmetry: bool = False,
    extra_sets=(),
    priority_pairs=(),
) -> ClosureReport:
    """Scan all unordered pairs of observed non-singleton sets of lengths
    and test whether each sumset is itself realizable.

    Singletons are skipped: {y} + L' = y + L' is realized by padding a
    witness of L' with y copies of the zero element, so those sums can
    never witness non-closure.  ``extra_sets`` accepts (LengthSet, witness)
    pairs to inject known sets beyond the enumeration bound, and
    ``priority_pairs`` moves specific candidate pairs to the front of the
    scan (useful when a non-closure witness is suspected in advance).

    Distinct sumsets are each decided once, in a canonical order (ascending
    minimum, then values, priority pairs first), and every decision and
    every product check owns an independent budget.  Every set of lengths
    the scan computes, of a product of two witnesses or of an
    ``extra_sets`` witness, uses the group's atom set, which the system
    pass built: L(B) does not depend on which atom set covering the
    support of B is used, so a scan builds one atom set and one length
    memo, which the oracle shares.  The scan is
    sequential, and each decision runs the orbit-reduced oracle;
    ``threads`` and ``symmetry`` are accepted for compatibility and have
    no effect.  ``budget`` is a node count, a :class:`Budget` or None;
    only its limit is used, and each phase gets a fresh budget of that
    size.  When the system pass or the length set of an ``extra_sets``
    witness runs out of its budget, no pair is scanned: the verdict is
    INCONCLUSIVE, and ``exhausted_phase`` is ``enumerate_system`` or
    ``extra_sets``.
    """
    limit = as_budget(budget).limit
    try:
        system = enumerate_system(group, None, "seq_length", bound, limit)
    except BudgetExceededError:
        return ClosureReport(
            group, bound, "INCONCLUSIVE", None, None, (), 0, 0, "enumerate_system"
        )
    size = len(system.sets)
    aset = atom_set_for(group)  # built by the system pass
    known: dict[LengthSet, Sequence] = dict(system.sets)
    for ls, w in extra_sets:
        try:
            got = length_set(w, aset, Budget(limit))
        except BudgetExceededError:
            return ClosureReport(
                group, bound, "INCONCLUSIVE", None, None, (), 0, size, "extra_sets"
            )
        if got != ls:
            raise ValueError(f"extra set {ls} does not match its witness (L = {got})")
        known.setdefault(ls, w)
    members = sorted(
        (ls for ls in known if len(ls) > 1), key=lambda s: s.values
    )
    by_sumset: dict[LengthSet, list[tuple[LengthSet, LengthSet]]] = {}
    for left, right in priority_pairs:
        if left not in known or right not in known:
            raise ValueError("priority pairs must consist of known sets")
        by_sumset.setdefault(left + right, []).append((left, right))
    priority_order = list(by_sumset)
    prioritized = set(priority_order)
    for i in range(len(members)):
        for j in range(i, len(members)):
            s = members[i] + members[j]
            by_sumset.setdefault(s, []).append((members[i], members[j]))
    rest = sorted(
        (s for s in by_sumset if s not in prioritized),
        key=lambda s: (s.min, s.values),
    )
    tasks = priority_order + rest

    def check_sumset(s: LengthSet) -> bool | None:
        # whether s is realizable; None when the oracle ran out of budget
        if s in known:
            return True
        # product witnesses from every pair producing this sumset; a check
        # that runs out of its budget confirms nothing, and the oracle
        # below still decides the sumset
        for left, right in by_sumset[s]:
            try:
                if length_set(known[left] * known[right], aset, Budget(limit)) == s:
                    return True
            except BudgetExceededError:
                pass
        # shifted known set: L(0^y B) = y + L(B)
        if any(s.shift(-y) in known for y in range(1, s.min)):
            return True
        return decide_length_set(group, s, limit).realizable

    inconclusive: list[SumsetCheck] = []
    for done, s in enumerate(tasks, 1):
        realizable = check_sumset(s)
        if realizable is False:
            return ClosureReport(
                group, bound, "NOT-CLOSED", by_sumset[s][0], s, tuple(inconclusive), done, size
            )
        if realizable is None:
            inconclusive.append(SumsetCheck(*by_sumset[s][0], s))
    verdict = "INCONCLUSIVE" if inconclusive else "CLOSED-AT-BOUND"
    return ClosureReport(group, bound, verdict, None, None, tuple(inconclusive), len(tasks), size)

"""Length-system operations: sumsets, enumeration, the oracle, rho,
distance-set estimates, AAMP recognition, closure checking."""

import functools
import itertools
import math
import random
import sys
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from zslen import atoms, lsystem
from zslen.atoms import atom_set_for, davenport, enumerate_atoms
from zslen.budget import Budget, BudgetExceededError
from zslen.groups import AbelianGroup, parse_group
from zslen.sequences import Sequence, parse_sequence
from zslen.factorize import LengthSet, length_mask, length_set, parse_length_set
from zslen.lsystem import (
    ClosureReport,
    SumsetCheck,
    _orbit_minimal_flags,
    _tau_walk,
    check_additively_closed,
    decide_length_set,
    delta_bounded,
    delta_star_bounded,
    dilate,
    elasticity,
    enumerate_system,
    extremal_elasticity_decomposition,
    is_aamp,
    is_basis_plus_sum,
    k_fold,
    min_delta_support,
    minimal_aamp_bound,
    nfold_system_sumset,
    rho_k,
    sumset,
    zero_free_length_masks,
)

from twins import automorphisms


def test_sumset_examples():
    l1 = LengthSet([2, 4, 5])
    assert sumset(l1, l1) == LengthSet([4, 6, 7, 8, 9, 10])
    assert k_fold(LengthSet([2, 5]), 3) == LengthSet([6, 9, 12, 15])
    assert dilate(LengthSet([0, 1]), 3) == LengthSet([0, 3])


def test_sumset_algebra_properties():
    rng = random.Random(3)
    zero = LengthSet([0])
    for _ in range(25):
        a = LengthSet(rng.sample(range(0, 15), rng.randint(1, 4)))
        b = LengthSet(rng.sample(range(0, 15), rng.randint(1, 4)))
        c = LengthSet(rng.sample(range(0, 15), rng.randint(1, 4)))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + zero == a
    with pytest.raises(ValueError):
        sumset(LengthSet([]), LengthSet([1]))
    with pytest.raises(ValueError):
        k_fold(LengthSet([1]), 0)


def test_system_of_c2_is_singletons():
    system = enumerate_system(parse_group("C2"), bound=10)
    expected = [LengthSet([y]) for y in range(0, 6)]
    # |B| <= 10 over C2 realizes {a + b} for a zeros and b doubled ones
    assert [ls for ls, _ in system.sets] == sorted(
        {LengthSet([a + b]) for a in range(11) for b in range((10 - a) // 2 + 1)},
        key=lambda s: s.values,
    )
    assert all(len(ls) == 1 for ls, _ in system.sets)
    assert LengthSet([0]) in system and LengthSet([1]) in system
    del expected


def test_system_witnesses_are_exact():
    for spec, bound in (("C3", 10), ("C2xC4", 8)):
        system = enumerate_system(parse_group(spec), bound=bound)
        for ls, witness in system.sets:
            assert len(witness) <= bound
            assert length_set(witness) == ls


def test_system_num_atom_factors_bound():
    g = parse_group("C3")
    system = enumerate_system(g, bound_kind="num_atom_factors", bound=3)
    assert system.bound_kind == "num_atom_factors"
    # products of at most 3 atoms realize {0}..{3} and the step sets
    assert LengthSet([0]) in system
    assert LengthSet([2, 3]) in system


@pytest.mark.parametrize(
    "bound_kind,bound,message",
    [("atoms", 3, "unknown bound kind 'atoms'"), ("seq_length", -1, "bound must be >= 0"),
     ("num_atom_factors", -1, "bound must be >= 0")],
)
def test_system_rejects_bad_bounds(bound_kind, bound, message):
    with pytest.raises(ValueError, match=message):
        enumerate_system(parse_group("C3"), bound_kind=bound_kind, bound=bound)


NUM_ATOM_FACTORS_PINS = [
    ("C3", 6, 384, [
        ((0,), ""), ((1,), "(2)^3"), ((2,), "(2)^6"), ((2, 3), "(1)^3 (2)^3"),
        ((3,), "(2)^9"), ((3, 4), "(1)^3 (2)^6"), ((4,), "(2)^12"),
        ((4, 5), "(1)^3 (2)^9"), ((4, 5, 6), "(1)^6 (2)^6"), ((5,), "(2)^15"),
        ((5, 6), "(1)^3 (2)^12"), ((5, 6, 7), "(1)^6 (2)^9"), ((6,), "(2)^18"),
        ((6, 7), "(1)^3 (2)^15"), ((6, 7, 8), "(1)^6 (2)^12"),
        ((6, 7, 8, 9), "(1)^9 (2)^9"),
    ]),
    ("C2xC4", 3, 17_077, [
        ((0,), ""),
        ((1,), "(0,3)^3 (1,1) (1,2)"),
        ((2,), "(0,3)^3 (1,1)^5 (1,2)"),
        ((2, 3), "(0,3)^6 (1,1)^2 (1,2)^2"),
        ((2, 3, 4), "(0,1)^3 (0,3)^3 (1,0) (1,1)^2 (1,2)"),
        ((2, 4), "(0,1)^4 (0,3)^3 (1,1) (1,2)"),
        ((2, 4, 5), "(0,1)^3 (0,3)^3 (1,1) (1,2)^2 (1,3)"),
        ((3,), "(0,3)^3 (1,1)^9 (1,2)"),
        ((3, 4), "(0,3)^9 (1,1)^3 (1,2)^3"),
        ((3, 4, 5), "(0,3)^9 (1,0) (1,1)^2 (1,2)^2 (1,3)"),
        ((3, 4, 5, 6), "(0,1)^3 (0,3)^6 (1,1)^2 (1,2)^3 (1,3)"),
        ((3, 4, 5, 6, 7), "(0,1)^3 (0,3)^4 (1,0)^2 (1,1)^2 (1,2) (1,3)^3"),
        ((3, 4, 6), "(1,0)^2 (1,1)^4 (1,2)^2 (1,3)^4"),
        ((3, 5), "(0,1)^4 (0,3)^7 (1,1) (1,2)"),
        ((3, 5, 6), "(0,1)^3 (0,3)^7 (1,1) (1,2)^2 (1,3)"),
    ]),
]


@pytest.mark.parametrize("spec,bound,nodes,sets", NUM_ATOM_FACTORS_PINS)
def test_system_num_atom_factors_pins(monkeypatch, spec, bound, nodes, sets):
    # the spend and every first witness of the walk over atom products
    monkeypatch.setattr(atoms, "_ATOMSET_CACHE", {})
    bud = Budget()
    system = enumerate_system(parse_group(spec), None, "num_atom_factors", bound, bud)
    assert [(ls.values, str(w)) for ls, w in system.sets] == sets
    assert bud.used == nodes


def test_system_num_atom_factors_leaves_length_memo_empty(monkeypatch):
    # the walk's length_mask calls run on a private copy of the atom set
    monkeypatch.setattr(atoms, "_ATOMSET_CACHE", {})
    system = enumerate_system(parse_group("C3"), bound_kind="num_atom_factors", bound=3)
    assert [(ls.values, str(w)) for ls, w in system.sets] == [
        ((0,), ""), ((1,), "(2)^3"), ((2,), "(2)^6"), ((2, 3), "(1)^3 (2)^3"),
        ((3,), "(2)^9"), ((3, 4), "(1)^3 (2)^6"),
    ]
    g = parse_group("C2xC4")
    system = enumerate_system(g, bound_kind="num_atom_factors", bound=3)
    assert len(atoms._ATOMSET_CACHE) == 2
    assert all(aset._length_memo == {} for aset in atoms._ATOMSET_CACHE.values())
    assert len(system.sets) == 15
    assert all(length_set(w) == ls for ls, w in system.sets)


# -- brute-force twin of the forward system pass ----------------------------------


def brute_zero_sum_masks(aset, bound):
    """``(counts, mask)`` for every zero-sum sequence over the support with
    |B| <= bound: a depth-first walk over every non-decreasing list of
    support indices, zero-sum or not, with ``length_mask`` at the zero-sum
    nodes."""
    group = aset.group
    sup = [group.index_of(e) for e in aset.support]
    size = group.order()
    add = group.add_table()
    counts = [0] * size
    bud = Budget()
    out = []

    def rec(pos, depth, sig):
        if sig == 0:
            key = tuple(counts)
            out.append((key, length_mask(aset, key, bud)))
        if depth == bound:
            return
        for p in range(pos, len(sup)):
            x = sup[p]
            counts[x] += 1
            rec(p, depth + 1, add[sig * size + x])
            counts[x] -= 1

    rec(0, 0, 0)
    return out


def assert_zero_free_pass_matches_brute_force(group, elems, bound):
    """The reader yields each zero-free zero-sum sequence of the twin once,
    with its mask, and every 0^k B' of the twin has the mask of B' shifted
    by k, which verify relies on."""
    # fresh atom sets: the twin's length memo stays out of the shared cache
    expected = brute_zero_sum_masks(enumerate_atoms(group, elems), bound)
    items = list(zero_free_length_masks(enumerate_atoms(group, elems), bound, None))
    masks = dict(items)
    assert len(masks) == len(items)
    assert masks == {counts: mask for counts, mask in expected if counts[0] == 0}
    for counts, mask in expected:
        assert mask == masks[(0,) + counts[1:]] << counts[0]


@pytest.mark.parametrize(
    "spec,bound,support",
    [
        ("C5", 10, None),
        ("C2xC4", 10, None),
        ("C2xC2xC2", 10, None),
        ("C3xC3", 10, None),
        ("C2xC6", 8, None),
        ("C2", 200, None),  # one-byte fields up to their largest count
        ("C2", 300, None),  # counts past 255 need two-byte fields
        ("C2xC2xC2", 10, "(1,0,0) (0,1,0) (0,0,1) (1,1,1)"),
        ("C2xC4", 9, "(0,0) (0,1) (1,0) (1,3) (0,2)"),
        # no element of index 1 or 2: first indices start at 3
        ("C2xC4", 10, "(0,3) (1,1) (1,2) (1,3)"),
        ("C3xC3", 10, "(0,0) (0,2) (1,0) (1,1) (1,2) (2,0) (2,1) (2,2)"),
        ("C4", 300, "(2) (3)"),  # two-byte fields, index 1 missing
    ],
)
def test_zero_sum_pass_matches_brute_force(spec, bound, support):
    group = parse_group(spec)
    elems = None if support is None else parse_sequence(group, support).support()
    assert_zero_free_pass_matches_brute_force(group, elems, bound)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_zero_sum_pass_matches_brute_force_property(data):
    spec = data.draw(st.sampled_from(("C3", "C4", "C6", "C2xC2", "C2xC4", "C3xC3")))
    group = parse_group(spec)
    subset = data.draw(st.sets(st.integers(0, group.order() - 1), min_size=1))
    bound = data.draw(st.integers(0, 7))
    elems = [group.element(i) for i in sorted(subset)]
    assert_zero_free_pass_matches_brute_force(group, elems, bound)


def test_zero_free_pass_rejects_a_negative_bound():
    with pytest.raises(ValueError, match="bound must be >= 0"):
        list(zero_free_length_masks(atom_set_for(parse_group("C3")), -1, None))


def test_zero_free_pass_spends_like_the_system_pass_and_names_its_phase():
    group = parse_group("C2xC4")
    bound = 8
    bud = Budget()
    enumerate_system(group, bound=bound, budget=bud)
    read = Budget()
    list(zero_free_length_masks(atom_set_for(group), bound, read))
    assert read.used == bud.used
    with pytest.raises(BudgetExceededError) as err:
        list(zero_free_length_masks(atom_set_for(group), bound, bud.used - 1))
    assert err.value.phase == "enumerate_system"
    assert "enumerate_system" in str(err.value)


def test_system_budget_is_one_node_per_push():
    group = parse_group("C3")
    bound = 6
    aset = enumerate_atoms(group)
    pushes = sum(
        sum(1 for a in aset.atoms if len(a) <= bound - sum(counts))
        for counts, _ in brute_zero_sum_masks(aset, bound)
    )
    bud = Budget()
    enumerate_system(group, bound=bound, budget=bud)
    assert bud.used == pushes
    assert len(enumerate_system(group, bound=bound, budget=pushes)) == len(
        enumerate_system(group, bound=bound)
    )
    with pytest.raises(BudgetExceededError) as err:
        enumerate_system(group, bound=bound, budget=pushes - 1)
    assert err.value.phase == "enumerate_system"
    assert "enumerate_system" in str(err.value)


def brute_system(aset, bound):
    """``(sets, used, raise_at)`` for the system over every zero-sum sequence
    with |B| <= bound, zero-padded ones included: ``sets`` pairs each L(B),
    ascending, with the counts of its first sequence in the walk of
    :func:`brute_zero_sum_masks`; ``used`` is one node per (B, A) pair with
    |A| <= bound - |B|, and ``raise_at(limit)`` the spend at which a budget
    of ``limit`` runs out when each level is spent before it runs."""
    first = {}
    per_level = [0] * (bound + 1)
    for counts, mask in brute_zero_sum_masks(aset, bound):
        first.setdefault(mask, counts)
        n = sum(counts)
        per_level[n] += sum(1 for a in aset.atoms if len(a) <= bound - n)
    sets = sorted((LengthSet.from_mask(m).values, c) for m, c in first.items())
    spent = list(itertools.accumulate(per_level))

    def raise_at(limit):
        return next(s for s in spent if s > limit)

    return sets, spent[-1], raise_at


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_system_matches_brute_force_property(data):
    spec = data.draw(st.sampled_from(("C3", "C4", "C6", "C2xC2", "C2xC4", "C3xC3")))
    group = parse_group(spec)
    subset = data.draw(st.sets(st.integers(1, group.order() - 1), min_size=1))
    with_zero = data.draw(st.booleans())
    bound = data.draw(st.integers(0, 8))
    elems = [group.element(i) for i in sorted(subset | ({0} if with_zero else set()))]
    # a fresh atom set: the twin's length memo stays out of the shared cache
    sets, used, raise_at = brute_system(enumerate_atoms(group, elems), bound)
    bud = Budget()
    system = enumerate_system(group, elems, bound=bound, budget=bud)
    assert [(ls.values, w.counts()) for ls, w in system.sets] == sets
    assert bud.used == used
    if used > 1:
        bud = Budget(used - 1)
        with pytest.raises(BudgetExceededError) as err:
            enumerate_system(group, elems, bound=bound, budget=bud)
        assert (err.value.limit, err.value.used) == (used - 1, raise_at(used - 1))
        assert err.value.phase == "enumerate_system"


@pytest.mark.parametrize(
    "spec,bound", [("C5", 10), ("C2xC4", 9), ("C2xC2xC2", 9), ("C3xC3", 8), ("C2xC6", 7)]
)
def test_system_matches_brute_force_over_the_whole_group(spec, bound):
    group = parse_group(spec)
    sets, used, _ = brute_system(enumerate_atoms(group), bound)
    bud = Budget()
    system = enumerate_system(group, bound=bound, budget=bud)
    assert [(ls.values, w.counts()) for ls, w in system.sets] == sets
    assert bud.used == used


def test_system_leaves_length_memo_empty(monkeypatch):
    monkeypatch.setattr(atoms, "_ATOMSET_CACHE", {})
    group = parse_group("C2xC4")
    enumerate_system(group, bound=10)
    enumerate_system(group, parse_sequence(group, "(0,1) (1,0) (1,3)").support(), bound=10)
    assert len(atoms._ATOMSET_CACHE) == 2
    assert all(aset._length_memo == {} for aset in atoms._ATOMSET_CACHE.values())


def test_decide_examples():
    g = parse_group("C2xC4")
    res = decide_length_set(g, parse_length_set("2,4,5"))
    assert res.realizable is True
    assert length_set(res.witness) == LengthSet([2, 4, 5])

    res2 = decide_length_set(g, parse_length_set("4,6,7,8,9,10"))
    assert res2.realizable is False and res2.witness is None

    res3 = decide_length_set(g, LengthSet([1]))
    assert res3.realizable is True
    assert length_set(res3.witness) == LengthSet([1])


def test_decide_singletons_and_validation():
    g = parse_group("C4")
    res = decide_length_set(g, LengthSet([3]))
    assert res.realizable is True and len(res.witness) == 3
    with pytest.raises(ValueError):
        decide_length_set(g, LengthSet([0, 2]))
    with pytest.raises(ValueError):
        decide_length_set(g, LengthSet([]))


def test_decide_rejects_sets_containing_one_with_more(monkeypatch):
    # min L(B) = 1 makes B an atom, whose only set of lengths is {1}, so no
    # atom set is built: over C5xC5 one holds 31,029 atoms
    monkeypatch.setattr(atoms, "_ATOMSET_CACHE", {})
    for spec in ("C4", "C5xC5"):
        res = decide_length_set(parse_group(spec), LengthSet([1, 2]))
        assert (res.realizable, res.witness, res.nodes) == (False, None, 0)
    assert atoms._ATOMSET_CACHE == {}


def test_decide_agrees_with_bounded_system():
    for spec in ("C5", "C2xC4"):
        g = parse_group(spec)
        system = enumerate_system(g, bound=10)
        for ls, _ in system.sets:
            if not ls or ls.min < 1 or ls.min > 4:
                continue
            assert decide_length_set(g, ls).realizable is True


def test_decide_budget_inconclusive():
    g = parse_group("C3xC3")
    res = decide_length_set(g, LengthSet([4, 6, 8, 9]), budget=20)
    assert res.realizable is None and res.witness is None
    # an unreachable maximum is refuted by capacity alone, budget untouched
    quick = decide_length_set(g, LengthSet([4, 6, 8, 11]), budget=20)
    assert quick.realizable is False


def test_decide_symmetry_matches_plain():
    g = parse_group("C2xC4")
    for literal in ("2,4,5", "4,6,7,8,9,10", "2,3", "3,5,6"):
        target = parse_length_set(literal)
        plain = decide_length_set(g, target)
        reduced = decide_length_set(g, target, symmetry=True)
        assert plain.realizable == reduced.realizable
        assert plain.witness == reduced.witness


# -- brute-force twins of the orbit-reduced oracle and rho_k ---------------------

# the oracle benchmark's targets with min L in {2, 3} over four groups
ORACLE_TARGETS = {
    "C2xC4": ("2,3", "2,4", "2,5", "2,3,4", "2,3,4,5", "3,5", "3,6", "3,7", "3,4,5,6,7"),
    "C2xC2xC2": ("2,3", "2,4", "2,3,4", "3,4", "3,6", "3,4,5,6"),
    "C3xC3": ("2,3", "2,4", "2,5", "2,3,4,5", "3,4", "3,5", "3,6", "3,7", "3,4,5,6,7"),
    "C7": ("2,4", "2,5", "2,3,4,5", "2,3,4,5,6", "3,6", "3,9", "3,4,5,6,7,8,9"),
}


@functools.lru_cache(maxsize=None)
def brute_products(spec, m):
    """Every product of m atoms over all of G as (L mask, multiplicity
    vector), in the oracle's order: multisets of ``_tau_walk`` order positions,
    lexicographically, with no pruning and no orbit reduction."""
    group = parse_group(spec)
    aset = atom_set_for(group)
    bud = Budget()
    out = []
    for combo in itertools.combinations_with_replacement(_tau_walk(aset)[0], m):
        counts = [0] * group.order()
        for k in combo:
            for i, c in aset.atoms_sparse[k]:
                counts[i] += c
        counts = tuple(counts)
        out.append((length_mask(aset, counts, bud), counts))
    return out


def brute_decide(spec, target):
    """(verdict, witness): the first product of min(target) atoms whose set
    of lengths is the target."""
    for mask, counts in brute_products(spec, target.min):
        if mask == target.mask:
            pairs = tuple((i, c) for i, c in enumerate(counts) if c)
            return True, Sequence._from_index_pairs(parse_group(spec), pairs)
    return False, None


@pytest.mark.parametrize("spec", sorted(ORACLE_TARGETS))
def test_decide_matches_brute_force_on_oracle_menu(spec):
    group = parse_group(spec)
    for literal in ORACLE_TARGETS[spec]:
        target = parse_length_set(literal)
        res = decide_length_set(group, target)
        assert (res.realizable, res.witness) == brute_decide(spec, target), literal


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    spec=st.sampled_from(sorted(ORACLE_TARGETS)),
    m=st.integers(2, 3),
    gaps=st.sets(st.integers(1, 8), min_size=1, max_size=4),
)
def test_decide_matches_brute_force_property(spec, m, gaps):
    target = LengthSet([m] + [m + x for x in gaps])
    res = decide_length_set(parse_group(spec), target)
    assert (res.realizable, res.witness) == brute_decide(spec, target)


# the pair rule prunes from the third atom on: m = 3 and 4 over small groups
PAIR_RULE_CASES = (
    ("C2xC2xC2", 3), ("C2xC2xC2", 4), ("C6", 3), ("C6", 4), ("C7", 3), ("C7", 4),
    ("C2xC4", 3), ("C3xC3", 3),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    case=st.sampled_from(PAIR_RULE_CASES),
    gaps=st.sets(st.integers(1, 8), min_size=1, max_size=4),
)
def test_decide_with_pair_rule_matches_brute_force_property(case, gaps):
    spec, m = case
    target = LengthSet([m] + [m + x for x in gaps])
    res = decide_length_set(parse_group(spec), target)
    assert (res.realizable, res.witness) == brute_decide(spec, target)


@pytest.mark.parametrize(
    "spec,literal,realizable,nodes",
    [("C4xC4", "3,4", True, 4_969), ("C2xC6", "3,8", False, 21_753)],
)
def test_decide_pair_rule_node_pins(monkeypatch, spec, literal, realizable, nodes):
    # cold atom sets and memos, so the count is the decision's alone
    monkeypatch.setattr(atoms, "_ATOMSET_CACHE", {})
    res = decide_length_set(parse_group(spec), parse_length_set(literal))
    assert res.realizable is realizable and res.nodes == nodes


@pytest.mark.parametrize(
    "spec,literal,nodes,witness",
    [
        ("C4xC4", "2,5", 31_152, "(0,1)^2 (0,3)^2 (1,0)^2 (2,2)^2 (3,0)^2"),
        ("C2xC6", "3,4,5,6,7,8,9,10", 34_484, None),
        ("C7", "3,4,5,6,7,8,9", 3_338, None),
        ("C3xC3", "3,4,5,6,7", 638, "(0,1)^3 (1,0)^2 (1,1)^2 (1,2)^2 (2,0)^2 (2,1)^2 (2,2)^2"),
        ("C4xC4", "2,3,4,5,6,7", 1_108,
         "(0,1) (0,3) (1,0) (1,3)^3 (2,1)^2 (2,3)^2 (3,0) (3,1)^3"),
    ],
)
def test_decide_cold_node_and_witness_pins(monkeypatch, spec, literal, nodes, witness):
    # every rule of the walk spends in a fixed place, so a cold decision's
    # node count and its first witness are exact
    monkeypatch.setattr(atoms, "_ATOMSET_CACHE", {})
    res = decide_length_set(parse_group(spec), parse_length_set(literal))
    assert res.nodes == nodes
    assert res.realizable is (witness is not None)
    assert (res.witness if witness is None else str(res.witness)) == witness


def test_decide_pair_checks_spend_from_the_decision_budget(monkeypatch):
    group, target = parse_group("C2xC6"), LengthSet([3, 8])
    calls = []  # (from a pair check, budget used before, after or None)

    def counted(aset, counts, budget):
        pair = sys._getframe(1).f_code.co_name == "pair_ok"
        before = budget.used
        try:
            mask = length_mask(aset, counts, budget)
        except BudgetExceededError:
            calls.append((pair, before, None))
            raise
        calls.append((pair, before, budget.used))
        return mask

    monkeypatch.setattr(lsystem, "length_mask", counted)
    monkeypatch.setattr(atoms, "_ATOMSET_CACHE", {})
    bud = Budget()
    assert decide_length_set(group, target, bud).realizable is False
    cold = [(before, after) for pair, before, after in calls if pair and after > before]
    assert cold and sum(after - before for before, after in cold) < bud.used
    # a limit that the first pair check writing memo entries runs past
    before, after = cold[0]
    calls.clear()
    monkeypatch.setattr(atoms, "_ATOMSET_CACHE", {})
    res = decide_length_set(group, target, before)
    assert res.realizable is None and res.witness is None
    assert res.nodes == before + 1 <= after
    assert calls[-1] == (True, before, None)


def test_tau_walk_computed_once_per_atom_set(monkeypatch):
    group = parse_group("C3xC3")
    aset = atom_set_for(group)
    walk = _tau_walk(aset)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(lsystem, "sorted", counted, raising=False)
    assert _tau_walk(aset) is walk
    decide_length_set(group, LengthSet([2, 5]))
    rho_k(group, 2)
    assert calls == []
    # a fresh atom set over a fresh group instance sorts its atoms once
    fresh = enumerate_atoms(AbelianGroup([3, 3]))
    first = _tau_walk(fresh)
    assert len(calls) == 1 and first == walk
    assert _tau_walk(fresh) is first and len(calls) == 1


def test_rho_k_matches_brute_force():
    for spec in ("C2xC4", "C3xC3"):
        for k in (2, 3):
            brute = max(mask.bit_length() - 1 for mask, _ in brute_products(spec, k))
            assert rho_k(parse_group(spec), k) == brute


def test_orbit_flags_computed_once_per_atom_set(monkeypatch):
    group = parse_group("C3xC3")
    aset = atom_set_for(group)
    flags = _orbit_minimal_flags(aset)
    calls = []
    orbit_of_tuple = AbelianGroup.orbit_of_tuple

    def counted(self, items):
        calls.append(items)
        return orbit_of_tuple(self, items)

    monkeypatch.setattr(AbelianGroup, "orbit_of_tuple", counted)
    assert _orbit_minimal_flags(aset) is flags
    decide_length_set(group, LengthSet([2, 5]))
    rho_k(group, 2)
    assert calls == []
    # a fresh atom set over a fresh group instance computes them once
    fresh = enumerate_atoms(AbelianGroup([3, 3]))
    calls.clear()
    first = _orbit_minimal_flags(fresh)
    assert calls and first == flags
    spent = len(calls)
    assert _orbit_minimal_flags(fresh) is first and len(calls) == spent


def test_rho_values():
    g24 = parse_group("C2xC4")
    g33 = parse_group("C3xC3")
    assert rho_k(g24, 2) == 5
    assert rho_k(g33, 2) == 5
    assert rho_k(g33, 3) == 7
    assert rho_k(g33, 4) == 10
    assert rho_k(g24, 4) == 10
    values = [rho_k(g33, k) for k in range(1, 5)]
    assert values == sorted(values)
    # symmetry= is accepted and changes nothing
    for k in range(2, 5):
        assert rho_k(g24, k, symmetry=True) == rho_k(g24, k)
        assert rho_k(g33, k, symmetry=True) == values[k - 1]
    with pytest.raises(ValueError):
        rho_k(parse_group("C2"), 2)


@pytest.mark.parametrize(
    "spec,k,value,nodes",
    [("C3xC3", 3, 7, 14_337), ("C2xC4", 3, 7, 8_524), ("C3xC3", 4, 10, 219_517),
     ("C2xC6", 2, 7, 15_623)],
)
def test_rho_k_cold_node_pins(monkeypatch, spec, k, value, nodes):
    monkeypatch.setattr(atoms, "_ATOMSET_CACHE", {})
    bud = Budget()
    assert rho_k(parse_group(spec), k, bud) == value
    assert bud.used == nodes


def test_elasticity():
    assert elasticity(parse_group("C2xC4")) == Fraction(5, 2)
    assert elasticity(parse_group("C3")) == Fraction(3, 2)
    with pytest.raises(ValueError):
        elasticity(parse_group("C2"))


def test_extremal_decomposition():
    g = parse_group("C2xC4")
    u = parse_sequence(g, "(0,1)^3 (1,0) (1,1)")
    v = parse_sequence(g, "(1,1)^3 (1,0) (0,1)")
    pairs = extremal_elasticity_decomposition(u * (-u))
    assert pairs is not None and len(pairs) == 1
    assert pairs[0] in (u, -u)
    both = extremal_elasticity_decomposition((u * (-u)) * (v * (-v)))
    assert both is not None and len(both) == 2
    assert length_set((u * (-u)) * (v * (-v))).min == 4
    # ratio below the elasticity: no decomposition
    w = parse_sequence(g, "(0,2)^2")
    assert extremal_elasticity_decomposition(w * w) is None


@pytest.mark.parametrize("spec,text", [
    ("C2", "(0) (1)^2"), ("C2", "(1)^2"), ("C2", ""), ("C1", "()^3"),
])
def test_extremal_decomposition_rejects_groups_below_order_3(spec, text):
    # over C2 a zero in B cannot be covered by atoms of length D(C2) = 2
    with pytest.raises(ValueError, match=r"\|G\| >= 3"):
        extremal_elasticity_decomposition(parse_sequence(parse_group(spec), text))


@pytest.mark.parametrize("spec,halves", [
    ("C3xC3", ["(0,1) (1,0)^2 (2,1)^2", "(0,2)^2 (1,1) (1,2)^2", "(0,1) (1,1)^2 (2,0)^2"]),
    ("C4xC4", ["(0,1)^3 (3,0) (3,1)^2 (3,3)", "(0,3)^3 (3,2) (3,3)^3"]),
])
def test_extremal_decomposition_tries_every_maximal_factorization(spec, halves):
    # the first factorization into maximal-length atoms does not pair here
    g = parse_group(spec)
    us = [parse_sequence(g, t) for t in halves]
    b = reduce(lambda x, y: x * y, (u * (-u) for u in us))
    pairs = extremal_elasticity_decomposition(b)
    assert pairs is not None and len(pairs) == len(us)
    assert all(len(u) == davenport(g) for u in pairs)
    assert reduce(lambda x, y: x * y, (u * (-u) for u in pairs)) == b
    # the pairing walk spends from the caller's budget; L(B) is a memo hit now
    with pytest.raises(BudgetExceededError) as err:
        extremal_elasticity_decomposition(b, budget=Budget(1))
    assert err.value.phase == "factorizations"


def test_delta_bounded_values():
    assert delta_bounded(parse_group("C3xC3"), bound=12) == (1,)
    assert delta_bounded(AbelianGroup([2, 2, 2]), bound=10) == (1, 2)
    assert delta_bounded(parse_group("C2xC4"), bound=10) == (1, 2)


def test_delta_star_estimates():
    report = delta_star_bounded(parse_group("C2xC4"), bound=10)
    g = parse_group("C2xC4")
    assert report.max_estimate() == max(g.exponent() - 2, g.rank() - 1) == 2
    report33 = delta_star_bounded(parse_group("C3xC3"), bound=10)
    assert report33.values() == (1,)


def test_delta_star_representatives_match_brute_force():
    # one support subset per automorphism orbit, the least image under the
    # whole automorphism group, as in a search without generator orbits
    bound = 6
    for spec in ("C2xC4", "C3xC3", "C2xC2xC2"):
        g = parse_group(spec)
        autos = automorphisms(g)
        nonzero = range(1, g.order())
        reps = sorted({
            min(tuple(sorted(perm[i] for i in subset)) for perm in autos)
            for size in range(1, g.order())
            for subset in itertools.combinations(nonzero, size)
        })
        expected = []
        for subset in reps:
            support = tuple(g.element(i) for i in subset)
            deltas = delta_bounded(g, support, bound)
            if deltas:
                expected.append((support, reduce(math.gcd, deltas)))
        assert delta_star_bounded(g, bound).entries == tuple(expected), spec


def test_min_delta_support():
    g = AbelianGroup([2, 2, 2])
    basis = list(g.standard_basis())
    full = basis + [(1, 1, 1)]
    res = min_delta_support(g, full, bound=10)
    assert res.basis_plus_sum is True
    assert res.estimate == 2
    bigger = full + [(1, 1, 0)]
    res2 = min_delta_support(g, bigger, bound=10)
    assert res2.basis_plus_sum is False
    assert res2.estimate != 2
    single = min_delta_support(g, [(1, 0, 0)], bound=10)
    assert single.estimate == 0
    with pytest.raises(ValueError):
        min_delta_support(g, [g.zero()], bound=6)


def test_is_basis_plus_sum():
    g = AbelianGroup([2, 2])
    assert is_basis_plus_sum(g, [(1, 0), (0, 1), (1, 1)])
    assert not is_basis_plus_sum(g, [(1, 0), (0, 1)])
    assert not is_basis_plus_sum(g, [(1, 0), (0, 1), (1, 0)])
    # a one-shot iterable is read once
    elems = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    g3 = parse_group("C2xC2xC2")
    assert is_basis_plus_sum(g3, elems)
    assert is_basis_plus_sum(g3, iter(elems))
    assert is_basis_plus_sum(g3, (e for e in elems))
    assert not is_basis_plus_sum(g3, iter(elems + [(1, 0, 0)]))


def test_aamp_witnesses():
    w = is_aamp(LengthSet([4, 7, 10, 13]), 3, 0)
    assert w is not None and w.period == (0, 3) and not w.head and not w.tail
    w2 = is_aamp(LengthSet([2, 5, 8, 9]), 3, 1)
    assert w2 is not None
    assert (w2.y, w2.central, w2.tail) == (2, (0, 3, 6), (7,))
    w3 = is_aamp(LengthSet([2, 4, 5]), 2, 1)
    assert w3 is not None
    assert (w3.y, w3.central, w3.tail) == (2, (0, 2), (3,))
    assert is_aamp(LengthSet([2, 5, 8, 9]), 3, 0) is None
    assert minimal_aamp_bound(LengthSet([2, 5, 8, 9]), 3) == 1
    assert minimal_aamp_bound(LengthSet([0, 4, 8]), 4) == 0
    with pytest.raises(ValueError):
        is_aamp(LengthSet([2, 3]), 0, 1)


def test_aamp_period_patterns():
    # period {0,1,3} inside difference 3: values 0,1 mod 3 up to the top
    target = LengthSet([5, 6, 8, 9, 11])
    w = is_aamp(target, 3, 0)
    assert w is not None and w.period == (0, 1, 3)


def test_closure_reports():
    rep4 = check_additively_closed(parse_group("C4"), bound=12)
    assert rep4.verdict == "CLOSED-AT-BOUND"
    assert rep4.witness_pair is None and not rep4.inconclusive

    rep5 = check_additively_closed(parse_group("C5"), bound=12)
    assert rep5.verdict == "NOT-CLOSED"
    left, right = rep5.witness_pair
    assert left + right == rep5.failed_sumset
    assert decide_length_set(parse_group("C5"), rep5.failed_sumset).realizable is False

    rep24 = check_additively_closed(parse_group("C2xC4"), bound=12)
    assert rep24.verdict == "NOT-CLOSED"
    assert rep24.witness_pair == (LengthSet([2, 4, 5]), LengthSet([2, 4, 5]))
    assert rep24.failed_sumset == LengthSet([4, 6, 7, 8, 9, 10])


def test_closure_thread_counts_agree():
    for threads in (1, 4, 8):
        rep = check_additively_closed(parse_group("C2xC4"), bound=10, threads=threads)
        assert rep.verdict == "NOT-CLOSED"
        assert rep.witness_pair == (LengthSet([2, 4, 5]), LengthSet([2, 4, 5]))
        assert rep.pairs_checked == check_additively_closed(
            parse_group("C2xC4"), bound=10
        ).pairs_checked


def test_closure_accepts_a_budget_object():
    g = parse_group("C2xC4")
    assert check_additively_closed(g, bound=10, budget=Budget(5_000_000)) == (
        check_additively_closed(g, bound=10, budget=5_000_000)
    )
    assert check_additively_closed(g, bound=10, budget=Budget(None)) == (
        check_additively_closed(g, bound=10, budget=None)
    )


def test_closure_product_checks_run_under_their_own_budgets(monkeypatch):
    from zslen import lsystem

    g = parse_group("C2xC4")
    plain = check_additively_closed(g, bound=10, budget=50_000)
    seen = []

    def recording(b, atoms=None, budget=None):
        seen.append(budget)
        return length_set(b, atoms, budget)

    monkeypatch.setattr(lsystem, "length_set", recording)
    assert check_additively_closed(g, bound=10, budget=50_000) == plain
    assert seen
    assert all(isinstance(b, Budget) and b.limit == 50_000 for b in seen)
    assert len({id(b) for b in seen}) == len(seen)

    # a product check that runs out confirms nothing; the oracle decides
    def exhausted(b, atoms=None, budget=None):
        seen.append(budget)
        raise BudgetExceededError(budget.limit, budget.limit + 1)

    seen.clear()
    monkeypatch.setattr(lsystem, "length_set", exhausted)
    assert check_additively_closed(g, bound=10, budget=50_000) == plain
    assert seen


def test_closure_system_pass_out_of_budget_is_inconclusive():
    # the C2xC4 pass at bound 8 spends 5,569 nodes
    rep = check_additively_closed(parse_group("C2xC4"), bound=8, budget=100)
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.exhausted_phase == "enumerate_system"
    assert rep.witness_pair is None and rep.failed_sumset is None
    assert rep.inconclusive == () and rep.pairs_checked == 0
    assert check_additively_closed(parse_group("C2xC4"), bound=8).exhausted_phase is None


def test_closure_extra_set_check_runs_under_the_budget(monkeypatch):
    monkeypatch.setattr(atoms, "_ATOMSET_CACHE", {})
    g = parse_group("C2xC4")
    u = parse_sequence(g, "(0,1)^3 (1,0) (1,1)")
    w = u * (-u)
    extra = ((LengthSet([2, 4, 5]), w),)
    # the system pass at bound 1 spends 1 node; L(w) takes 9 on a cold memo
    rep = check_additively_closed(g, bound=1, budget=8, extra_sets=extra)
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.exhausted_phase == "extra_sets"
    assert rep.pairs_checked == 0 and rep.system_size == 2
    monkeypatch.setattr(atoms, "_ATOMSET_CACHE", {})
    rep = check_additively_closed(g, bound=1, budget=9, extra_sets=extra)
    assert rep.exhausted_phase is None and rep.pairs_checked == 1


def test_closure_scan_uses_the_group_atom_set_only(monkeypatch):
    # the product checks and the extra-set check compute on the atom set
    # of the system pass, not on one atom set per support
    monkeypatch.setattr(atoms, "_ATOMSET_CACHE", {})
    g = parse_group("C3xC3")
    rep = check_additively_closed(g, bound=12)
    assert rep.verdict == "CLOSED-AT-BOUND"
    assert list(atoms._ATOMSET_CACHE) == [(g.invariant_factors, None)]


def test_closure_shifted_known_sets_skip_the_oracle(monkeypatch):
    # over C2xC6 at bound 9 the sumsets {8,9,10}, {9,10,11} and {10,11,12}
    # have no product witness, and each is y + a known set: L(0^y B) = y + L(B)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return decide_length_set(*args, **kwargs)

    monkeypatch.setattr(lsystem, "decide_length_set", counted)
    rep = check_additively_closed(parse_group("C2xC6"), bound=9)
    assert rep.verdict == "CLOSED-AT-BOUND"
    assert calls == []


def test_closure_inconclusive_then_not_closed(monkeypatch):
    # at this budget the oracle leaves {2,3,6} + {2,3,6} undecided, and the
    # scan goes on to a later sumset that it decides is not realizable
    monkeypatch.setattr(atoms, "_ATOMSET_CACHE", {})
    g = parse_group("C9")
    rep = check_additively_closed(g, bound=12, budget=300_000)
    undecided = LengthSet([2, 3, 6])
    assert rep == ClosureReport(
        group=g,
        bound=12,
        verdict="NOT-CLOSED",
        witness_pair=(LengthSet([2, 5, 6]), LengthSet([2, 5, 6])),
        failed_sumset=LengthSet([4, 7, 8, 10, 11, 12]),
        inconclusive=(SumsetCheck(undecided, undecided, undecided + undecided),),
        pairs_checked=28,
        system_size=44,
        exhausted_phase=None,
    )


def test_closure_priority_pairs_go_first():
    # the scan reaches {2,4,5} + {2,4,5} as its sixth sumset; moved to the
    # front, it is the first and last one decided
    g = parse_group("C2xC4")
    pair = (LengthSet([2, 4, 5]), LengthSet([2, 4, 5]))
    plain = check_additively_closed(g, bound=10)
    first = check_additively_closed(g, bound=10, priority_pairs=(pair,))
    for rep in (plain, first):
        assert rep.verdict == "NOT-CLOSED"
        assert rep.witness_pair == pair
        assert rep.failed_sumset == LengthSet([4, 6, 7, 8, 9, 10])
    assert (plain.pairs_checked, first.pairs_checked) == (6, 1)
    with pytest.raises(ValueError, match="priority pairs must consist of known sets"):
        check_additively_closed(
            g, bound=10, priority_pairs=((LengthSet([2, 4, 5]), LengthSet([2, 99])),)
        )


def test_closure_rejects_an_extra_set_its_witness_does_not_realize():
    g = parse_group("C2xC4")
    u = parse_sequence(g, "(0,1)^3 (1,0) (1,1)")
    extra = ((LengthSet([2, 5]), u * (-u)),)
    with pytest.raises(
        ValueError, match=r"^extra set \{2,5\} does not match its witness \(L = \{2,4,5\}\)$"
    ):
        check_additively_closed(g, bound=4, extra_sets=extra)


def test_nfold_sumsets():
    g = parse_group("C2xC4")
    system = enumerate_system(g, bound=10)
    once = nfold_system_sumset(system, 1)
    assert set(once) == {ls for ls in system.length_sets() if ls}
    twice = nfold_system_sumset(system, 2)
    assert LengthSet([4, 6, 7, 8, 9, 10]) in twice

    c3 = enumerate_system(parse_group("C3"), bound=12)
    from zslen.verify import step_progression_member

    assert all(step_progression_member(ls) for ls in nfold_system_sumset(c3, 2))


def test_system_witness_counting_bounds():
    from zslen.atoms import davenport

    for spec in ("C5", "C2xC4"):
        g = parse_group(spec)
        d = davenport(g)
        system = enumerate_system(g, bound=10)
        for ls, witness in system.sets:
            if not ls or ls.min == 0:
                continue
            assert ls.min * d >= len(witness)
            if witness.multiplicity(g.zero()) == 0:
                assert len(witness) >= 2 * ls.min


def test_trivial_and_tiny_groups():
    g1 = parse_group("C1")
    system = enumerate_system(g1, bound=5)
    assert [ls.values for ls, _ in system.sets] == [(y,) for y in range(6)]
    rep = check_additively_closed(g1, bound=5)
    assert rep.verdict == "CLOSED-AT-BOUND"
    res = decide_length_set(g1, LengthSet([4]))
    assert res.realizable is True



@pytest.mark.parametrize("query", ["decide", "closed", "system", "system_factors", "length_set"])
def test_cold_queries_build_no_atom_sequences(monkeypatch, query):
    # the oracle, the closure scan, the system passes and the length kernel
    # read the atoms' index pairs only; Sequences are built on the first
    # read of AtomSet.atoms, to show or return atoms
    monkeypatch.setattr(atoms, "_ATOMSET_CACHE", {})
    group = parse_group("C2xC4")
    if query == "decide":
        group = parse_group("C3xC3")
        assert decide_length_set(group, LengthSet([2, 3, 4, 5])).realizable is not None
    elif query == "closed":
        assert check_additively_closed(group, bound=12).verdict == "NOT-CLOSED"
    elif query == "system":
        assert enumerate_system(group, bound=10).sets
    elif query == "system_factors":
        assert enumerate_system(group, bound_kind="num_atom_factors", bound=2).sets
    else:
        b = parse_sequence(group, "(0,1)^3 (1,0) (1,1) (0,3)^3 (1,0) (1,3)")
        assert length_set(b).values == (2, 4, 5)
    cached = list(atoms._ATOMSET_CACHE.values())
    assert cached and all(aset._atoms is None for aset in cached)
    aset = cached[0]
    assert [a.index_pairs() for a in aset.atoms] == list(aset.atoms_sparse)

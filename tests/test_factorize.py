"""Factorizations, length sets, distances, catenary degrees."""

import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from zslen import atoms, factorize
from zslen.budget import Budget, BudgetExceededError, CapExceededError
from zslen.groups import AbelianGroup, parse_group
from zslen.sequences import Sequence, parse_sequence
from zslen.atoms import AtomSet, atom_set_for, davenport
from zslen.factorize import (
    Factorization,
    LengthSet,
    _divisor_tables,
    _key_counts,
    catenary_degree,
    delta_of_set,
    distance,
    factorizations,
    length_mask,
    length_set,
    parse_length_set,
)


def brute_factorizations(b: Sequence):
    """Independent oracle: enumerate multisets of atoms by total length and
    keep the ones whose product is b."""
    aset = atom_set_for(b.group, b.support())
    atoms = list(aset.atoms)
    target = b.counts()
    total = len(b)
    results = set()

    def rec(start, remaining, chosen):
        if remaining == 0:
            prod = [0] * len(target)
            for a in chosen:
                for i, m in a.index_pairs():
                    prod[i] += m
            if tuple(prod) == target:
                results.add(tuple(sorted(chosen, key=Sequence.sort_key)))
            return
        for k in range(start, len(atoms)):
            if len(atoms[k]) <= remaining:
                rec(k, remaining - len(atoms[k]), chosen + [atoms[k]])

    rec(0, total, [])
    return results


def per_atom_length_mask(aset, counts, budget):
    """Reference length kernel: the same recursion, pivot rule, child order,
    memo and budget spend as ``length_mask``, but it tests every atom
    through the pivot for divisibility one coordinate at a time."""
    memo = aset._length_memo
    got = memo.get(counts)
    if got is not None:
        return got
    sparse = aset.atoms_sparse
    by_elem: dict[int, list[int]] = {}
    for k, sp in enumerate(sparse):
        for i, _ in sp:
            by_elem.setdefault(i, []).append(k)
    stack = [counts]
    while stack:
        cur = stack[-1]
        if cur in memo:
            stack.pop()
            continue
        pivot = -1
        pivot_load = -1
        for i, c in enumerate(cur):
            if c:
                load = len(by_elem.get(i, ()))
                if pivot < 0 or load < pivot_load:
                    pivot, pivot_load = i, load
        if pivot < 0:
            memo[cur] = 1
            stack.pop()
            continue
        mask = 0
        missing = []
        for k in by_elem.get(pivot, ()):
            sp = sparse[k]
            if any(cur[i] < m for i, m in sp):
                continue
            child = list(cur)
            for i, m in sp:
                child[i] -= m
            child = tuple(child)
            cm = memo.get(child)
            if cm is None:
                missing.append(child)
            else:
                mask |= cm << 1
        if missing:
            stack.extend(missing)
        else:
            memo[cur] = mask
            budget.spend()
            stack.pop()
    return memo[counts]


def fresh_copy(aset):
    """The same atoms in a new AtomSet, with an empty memo and no tables."""
    return AtomSet(aset.group, aset.support, aset.atoms_sparse)


def decoded_memo(aset):
    """``length_mask``'s memo on ``aset`` with its packed keys decoded to
    multiplicity tuples, comparable with ``per_atom_length_mask``'s memo."""
    return {_key_counts(aset, key): mask for key, mask in aset._length_memo.items()}


def counter_distance(z, zp):
    """Reference distance: cancel the common parts with Counter arithmetic."""
    c1, c2 = Counter(z.parts), Counter(zp.parts)
    common = c1 & c2
    return max(sum((c1 - common).values()), sum((c2 - common).values()))


def threshold_catenary(zs):
    """Reference catenary degree: binary search over the sorted distinct
    pair distances for the least threshold whose edges connect Z(B), with
    a union-find connectivity test at each step."""
    n = len(zs)
    if n <= 1:
        return 0
    edges = [
        (counter_distance(zs[i], zs[j]), i, j)
        for i in range(n)
        for j in range(i + 1, n)
    ]
    weights = sorted({w for w, _, _ in edges})

    def connects(threshold):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comps = n
        for w, i, j in edges:
            if w <= threshold:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
                    comps -= 1
        return comps == 1

    lo, hi = 0, len(weights) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if connects(weights[mid]):
            hi = mid
        else:
            lo = mid + 1
    return weights[lo]


# zero-sum sequences with 115 to 158 factorizations
LARGE_CATENARY_CASES = [
    ("C2xC2xC2", "(0,0,1)^3 (0,1,0)^4 (0,1,1)^3 (1,0,0)^4 (1,0,1) (1,1,0)^2 (1,1,1)^3"),
    ("C2xC2xC2", "(0,0,1)^5 (0,1,0)^3 (0,1,1)^4 (1,0,0)^2 (1,0,1)^5 (1,1,0) (1,1,1)^2"),
    ("C3xC3", "(0,1)^3 (0,2)^3 (1,0) (1,1) (1,2)^2 (2,1)^4 (2,2)^3"),
    ("C3xC3", "(0,1)^3 (0,2) (1,0)^3 (1,1)^2 (1,2) (2,1)^3 (2,2)^3"),
]


def test_empty_sequence_has_one_empty_factorization():
    g = parse_group("C3")
    zs = factorizations(Sequence.empty(g))
    assert len(zs) == 1 and len(zs[0]) == 0
    assert length_set(Sequence.empty(g)) == LengthSet([0])


def test_atom_factors_only_as_itself():
    g = parse_group("C2xC4")
    u = parse_sequence(g, "(0,1)^3 (1,0) (1,1)")
    zs = factorizations(u)
    assert len(zs) == 1 and zs[0].parts == (u,)
    assert length_set(u) == LengthSet([1])


def test_lemma_style_length_sets():
    g = parse_group("C2xC4")
    u = parse_sequence(g, "(0,1)^3 (1,0) (1,1)")
    assert length_set(u * (-u)) == LengthSet([2, 4, 5])

    g55 = parse_group("C5xC5")
    u55 = Sequence(g55, [(1, 0)] * 4 + [(0, 1)] * 4 + [(1, 1)])
    assert length_set(u55 * (-u55)) == LengthSet([2, 5, 8, 9])


@pytest.mark.parametrize("r", [2, 3, 4])
def test_interval_plus_outlier_over_elementary_three_groups(r):
    g = AbelianGroup([3] * r)
    basis = g.standard_basis()
    e0 = g.zero()
    for e in basis:
        e0 = g.add(e0, e)
    u = Sequence(g, [e for e in basis for _ in range(2)] + [e0])
    expected = sorted(set(range(2, r + 3)) | {2 * r + 1})
    assert list(length_set(u * (-u))) == expected


def test_square_powers_formula():
    g = AbelianGroup([2, 2, 2, 2])
    v0 = Sequence(g, list(g.standard_basis()) + [(1, 1, 1, 1)])
    for k in (1, 2, 3):
        expected = LengthSet(2 * k + 3 * j for j in range(k + 1))
        assert length_set(v0 ** (2 * k)) == expected


def test_factorizations_against_brute_force():
    rng = random.Random(23)
    for spec in ("C5", "C2xC2", "C2xC4", "C3xC3"):
        g = parse_group(spec)
        elems = g.elements()
        done = 0
        while done < 12:
            s = Sequence(g, [rng.choice(elems) for _ in range(rng.randint(2, 7))])
            if not s.is_zero_sum():
                continue
            done += 1
            got = {z.parts for z in factorizations(s)}
            assert got == {tuple(sorted(c, key=Sequence.sort_key, reverse=True))
                           for c in brute_factorizations(s)}


def test_v0_squared_over_c2c2():
    g = AbelianGroup([2, 2])
    v0 = Sequence(g, [(1, 0), (0, 1), (1, 1)])
    zs = factorizations(v0 * v0)
    assert len(zs) == 2
    lengths = sorted(len(z) for z in zs)
    assert lengths == [2, 3]
    assert distance(zs[0], zs[1]) == 3
    assert catenary_degree(v0 * v0) == 3


def test_distance_properties():
    g = parse_group("C2xC4")
    u = parse_sequence(g, "(0,1)^3 (1,0) (1,1)")
    b = (u * (-u)) * (u * (-u))
    zs = factorizations(b)
    for z in zs:
        assert distance(z, z) == 0
    for z1, z2 in itertools.combinations(zs, 2):
        d = distance(z1, z2)
        assert d == distance(z2, z1)
        assert d >= 2 + abs(len(z1) - len(z2))
    with pytest.raises(ValueError):
        distance(zs[0], factorizations(u * (-u))[0])


def test_catenary_degree_bounds():
    g = parse_group("C2xC4")
    u = parse_sequence(g, "(0,1)^3 (1,0) (1,1)")
    assert catenary_degree(u) == 0  # single factorization
    b = u * (-u)
    ls = length_set(b)
    c = catenary_degree(b)
    deltas = ls.delta()
    assert 2 + max(deltas) <= c <= ls.max


@pytest.mark.parametrize("spec,text", LARGE_CATENARY_CASES)
def test_distance_matches_counter_definition(spec, text):
    zs = factorizations(parse_sequence(parse_group(spec), text))
    assert 115 <= len(zs) <= 158
    for z1, z2 in itertools.combinations(zs, 2):
        assert distance(z1, z2) == counter_distance(z1, z2)


@pytest.mark.parametrize("spec,text", LARGE_CATENARY_CASES)
def test_catenary_degree_matches_threshold_search(spec, text):
    b = parse_sequence(parse_group(spec), text)
    assert catenary_degree(b) == threshold_catenary(factorizations(b))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_catenary_degree_matches_threshold_search_on_random_sequences(data):
    g = parse_group(data.draw(st.sampled_from(
        ("C3", "C4", "C5", "C6", "C2xC2", "C2xC4", "C3xC3")
    )))
    prefix = Sequence(g, [g.element(i) for i in data.draw(
        st.lists(st.integers(0, g.order() - 1), max_size=8)
    )])
    b = prefix * Sequence(g, [g.neg(prefix.sigma())])
    assert catenary_degree(b) == threshold_catenary(factorizations(b))


def test_catenary_budget_covers_distance_pairs():
    spec, text = LARGE_CATENARY_CASES[0]
    b = parse_sequence(parse_group(spec), text)
    bud = Budget(None)
    assert len(factorizations(b, budget=bud)) == 158
    assert bud.used == 7_209
    # one node left after the enumeration: the distances must spend it
    with pytest.raises(BudgetExceededError):
        catenary_degree(b, budget=7_210)
    bud = Budget(None)
    assert catenary_degree(b, budget=bud) == 3
    assert bud.used == 7_209 + 158 * 157 // 2


def test_factorizations_widen_the_layout():
    # a count of 258 needs two-byte fields, here on the factorization walk
    b = parse_sequence(parse_group("C3"), "(1)^258 (2)^3")
    aset = fresh_copy(atom_set_for(b.group, b.support()))
    bud = Budget()
    zs = factorizations(b, aset, budget=bud)
    assert aset._divisor_tables.fields.size == 2 * 3
    assert sorted(len(z) for z in zs) == [87, 88]
    assert bud.used == 432
    assert catenary_degree(b, aset) == 3


def test_first_layout_is_built_at_the_width_the_counts_need(monkeypatch):
    # a first call with a count of 258 builds the tables once, two bytes wide
    monkeypatch.setattr(atoms, "_ATOMSET_CACHE", {})
    widths = []
    build = factorize._divisor_tables

    def counted(aset, width=1):
        widths.append(width)
        return build(aset, width)

    monkeypatch.setattr(factorize, "_divisor_tables", counted)
    b = parse_sequence(parse_group("C3"), "(1)^258 (2)^3")
    assert length_set(b) == LengthSet([87, 88])
    assert widths == [2]


def test_memo_hits_spend_no_budget():
    # a budget counts new memo entries and walk nodes; a hit is free
    g = parse_group("C2xC4")
    u = parse_sequence(g, "(0,1)^3 (1,0) (1,1)")
    b = u * u * (-u) * (-u)
    aset = fresh_copy(atom_set_for(g, b.support()))
    length_set(b, aset)
    bud = Budget(1)
    assert length_set(b, aset, bud) == LengthSet(range(4, 11))
    assert bud.used == 0
    with pytest.raises(BudgetExceededError):
        length_set(b, fresh_copy(aset), Budget(1))


def test_length_set_membership():
    ls = LengthSet([2, 4, 5, 9])
    assert all(v in ls for v in (2, 4, 5, 9))
    assert not any(v in ls for v in (0, 1, 3, 6, 8, 10, 100))
    assert -1 not in ls and -4 not in ls
    assert "4" not in ls and None not in ls
    assert 0 not in LengthSet([]) and 3 not in LengthSet([])
    assert 0 in LengthSet([0])


def test_delta_of_set():
    assert delta_of_set([2, 4, 5]) == (2, 1)
    assert LengthSet([2, 4, 5]).delta() == (2, 1)
    assert LengthSet([2, 5, 8, 9]).delta() == (3, 3, 1)
    assert sorted(set(LengthSet([2, 5, 8, 9]).delta())) == [1, 3]
    assert LengthSet([7]).delta() == ()


def test_length_set_matches_explicit_factorizations():
    rng = random.Random(31)
    for spec in ("C5", "C2xC4", "C3xC3", "C9"):
        g = parse_group(spec)
        elems = g.elements()
        done = 0
        while done < 15:
            s = Sequence(g, [rng.choice(elems) for _ in range(rng.randint(0, 14))])
            if not s.is_zero_sum():
                continue
            done += 1
            zs = factorizations(s)
            assert length_set(s) == LengthSet(len(z) for z in zs)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_length_mask_matches_per_atom_loop(data):
    g = parse_group(data.draw(st.sampled_from(("C2xC4", "C3xC3", "C2xC2xC2", "C7", "C3xC6"))))
    prefix = Sequence(g, [g.element(i) for i in data.draw(
        st.lists(st.integers(0, g.order() - 1), max_size=14)
    )])
    b = prefix * Sequence(g, [g.neg(prefix.sigma())])
    full = data.draw(st.booleans())
    base = atom_set_for(g) if full else atom_set_for(g, b.support())
    fast, twin = fresh_copy(base), fresh_copy(base)
    fast_bud, twin_bud = Budget(), Budget()
    mask = length_mask(fast, b.counts(), fast_bud)
    assert mask == per_atom_length_mask(twin, b.counts(), twin_bud)
    assert decoded_memo(fast) == twin._length_memo
    assert fast_bud.used == twin_bud.used
    assert LengthSet.from_mask(mask) == LengthSet(len(z) for z in factorizations(b, base))


def test_length_mask_and_per_atom_loop_run_out_at_the_same_node():
    spec, text = LARGE_CATENARY_CASES[2]
    b = parse_sequence(parse_group(spec), text)
    base = atom_set_for(b.group, b.support())
    full = fresh_copy(base)
    bud = Budget()
    length_mask(full, b.counts(), bud)
    assert bud.used == 96
    # one node short: the root's spend raises (its entry is already written);
    # half the nodes: the walks stop midway with the same partial memo
    for limit in (bud.used - 1, bud.used // 2):
        partial = []
        for kernel in (length_mask, per_atom_length_mask):
            aset = fresh_copy(base)
            with pytest.raises(BudgetExceededError):
                kernel(aset, b.counts(), Budget(limit))
            partial.append(aset)
        fast, twin = partial
        assert decoded_memo(fast) == twin._length_memo
        assert fast._length_memo.items() <= full._length_memo.items()
    assert len(fast._length_memo) < len(full._length_memo)


def test_length_mask_expands_each_node_once():
    # a node whose children are missing keeps its partial mask until they
    # are done, so a cold call runs ``fitting`` once per new memo entry
    spec, text = LARGE_CATENARY_CASES[1]
    b = parse_sequence(parse_group(spec), text)
    aset = fresh_copy(atom_set_for(b.group))
    layout = _divisor_tables(aset)
    fitting, calls = layout.fitting, []

    def counted(key, fit):
        calls.append(key)
        return fitting(key, fit)

    aset._divisor_tables = layout._replace(fitting=counted)
    bud = Budget()
    length_mask(aset, (b * b).counts(), bud)
    assert len(calls) == len(set(calls)) == bud.used
    assert set(calls) == aset._length_memo.keys() - {0}


@pytest.mark.parametrize("case,used", zip(LARGE_CATENARY_CASES, (184, 248, 94, 101)))
def test_length_mask_budget_pins(case, used):
    # cold calls over the full atom set; the nodes spent depend only on the
    # memo entries written, not on how often a node is expanded
    spec, text = case
    b = parse_sequence(parse_group(spec), text)
    aset = fresh_copy(atom_set_for(b.group))
    bud = Budget()
    length_mask(aset, b.counts(), bud)
    assert bud.used == used == len(aset._length_memo) - 1


def test_length_mask_budget_pins_on_a_shared_memo():
    g = parse_group("C3xC3")
    aset = fresh_copy(atom_set_for(g))
    used = []
    for _, text in LARGE_CATENARY_CASES[2:]:
        b = parse_sequence(g, text)
        for counts in (b.counts(), (b * b).counts()):
            bud = Budget()
            length_mask(aset, counts, bud)
            used.append(bud.used)
    assert used == [94, 2070, 57, 2418]


# over C3 = {0, g, 2g}, g^a (2g)^b is zero-sum when a = b mod 3
@pytest.mark.parametrize("counts", [(0, 258, 3), (300, 3, 0), (2, 70_000, 1)])
def test_length_mask_counts_beyond_one_byte_match_per_atom_loop(counts):
    base = atom_set_for(parse_group("C3"))
    fast, twin = fresh_copy(base), fresh_copy(base)
    fast_bud, twin_bud = Budget(), Budget()
    assert length_mask(fast, counts, fast_bud) == per_atom_length_mask(
        twin, counts, twin_bud
    )
    assert fast_bud.used == twin_bud.used
    assert decoded_memo(fast) == twin._length_memo


def test_length_mask_widening_empties_the_memo():
    # a count beyond one byte rebuilds the layout at two bytes and empties
    # the memo in place, whose keys were packed one byte wide
    base = atom_set_for(parse_group("C2xC4"))
    fast, twin = fresh_copy(base), fresh_copy(base)
    memo = fast._length_memo
    b = parse_sequence(base.group, "(0,1)^4 (1,1)^2 (1,2) (0,3)^3 (1,0)")
    narrow = b.counts()
    wide = (b * parse_sequence(base.group, "(0,2)^300")).counts()
    assert length_mask(fast, narrow, Budget()) == per_atom_length_mask(
        twin, narrow, Budget()
    )
    assert fast._divisor_tables.fields.size == base.group.order()
    bud, cold_bud = Budget(), Budget()
    mask = length_mask(fast, wide, bud)
    assert mask == per_atom_length_mask(twin, wide, Budget())
    assert mask == length_mask(fresh_copy(base), wide, cold_bud)
    assert bud.used == cold_bud.used
    assert fast._divisor_tables.fields.size == 2 * base.group.order()
    assert fast._length_memo is memo
    cold_twin = fresh_copy(base)
    per_atom_length_mask(cold_twin, wide, Budget())
    assert decoded_memo(fast) == cold_twin._length_memo
    assert length_mask(fast, narrow, Budget()) == per_atom_length_mask(
        twin, narrow, Budget()
    )


@pytest.mark.parametrize("big", [2**64, -1])
def test_length_mask_rejects_counts_outside_64_bits(big):
    aset = fresh_copy(atom_set_for(parse_group("C3")))
    bud = Budget()
    with pytest.raises(ValueError):
        length_mask(aset, (1, big, 0), bud)
    assert bud.used == 0 and aset._length_memo == {}


def test_length_set_counting_bounds():
    rng = random.Random(37)
    for spec in ("C6", "C2xC4"):
        g = parse_group(spec)
        d = davenport(g)
        elems = g.elements()
        nonzero = [e for e in elems if e != g.zero()]
        done = 0
        while done < 15:
            s = Sequence(g, [rng.choice(nonzero) for _ in range(rng.randint(2, 10))])
            if not s.is_zero_sum():
                continue
            done += 1
            ls = length_set(s)
            assert math.ceil(len(s) / d) <= ls.min
            assert ls.max <= len(s) // 2  # zero-free sequences split into parts >= 2


def test_length_set_negation_and_products():
    rng = random.Random(41)
    g = parse_group("C3xC3")
    elems = g.elements()
    pairs = 0
    while pairs < 10:
        a = Sequence(g, [rng.choice(elems) for _ in range(rng.randint(0, 6))])
        b = Sequence(g, [rng.choice(elems) for _ in range(rng.randint(0, 6))])
        if not (a.is_zero_sum() and b.is_zero_sum()):
            continue
        pairs += 1
        assert length_set(-a) == length_set(a)
        la, lb, lab = length_set(a), length_set(b), length_set(a * b)
        assert set(x + y for x in la for y in lb) <= set(lab)


def test_factorization_cap():
    g = parse_group("C2xC2")
    v0 = Sequence(g, [(1, 0), (0, 1), (1, 1)])
    with pytest.raises(CapExceededError):
        factorizations(v0 ** 6, cap=3)


def test_errors_on_non_zero_sum():
    g = parse_group("C5")
    s = Sequence(g, [(1,)])
    with pytest.raises(ValueError):
        factorizations(s)
    with pytest.raises(ValueError):
        length_set(s)


def test_parse_length_set():
    assert parse_length_set("4,6,7") == LengthSet([4, 6, 7])
    assert parse_length_set("{2, 4, 5}") == LengthSet([2, 4, 5])
    with pytest.raises(ValueError):
        parse_length_set("")
    with pytest.raises(ValueError):
        parse_length_set("2,x")


length_sets = st.builds(LengthSet, st.sets(st.integers(0, 40), min_size=1, max_size=8))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(length_sets)
def test_parse_length_set_inverts_repr(ls):
    assert parse_length_set(repr(ls)) == ls


@settings(derandomize=True, max_examples=200, deadline=None)
@given(length_sets, length_sets, length_sets, st.integers(0, 40))
def test_length_set_sumset_laws(a, b, c, y):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert ((a + b).min, (a + b).max) == (a.min + b.min, a.max + b.max)
    assert a.shift(y) == a + LengthSet([y])


def test_factorization_canonical_part_order():
    g = AbelianGroup([2, 2])
    v0 = Sequence(g, [(1, 0), (0, 1), (1, 1)])
    z = Factorization([Sequence(g, [(1, 0), (1, 0)]), v0, Sequence(g, [(0, 1), (0, 1)])])
    assert list(z.parts) == sorted(z.parts, key=Sequence.sort_key, reverse=True)
    assert z.product == v0 * Sequence(g, [(1, 0), (1, 0)]) * Sequence(g, [(0, 1), (0, 1)])

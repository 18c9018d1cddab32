"""Atom enumeration and Davenport constants."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from zslen import atoms
from zslen.budget import Budget, BudgetExceededError
from zslen.factorize import length_set
from zslen.groups import AbelianGroup, parse_group
from zslen.sequences import Sequence, parse_sequence
from zslen.atoms import (
    _atom_index_lists,
    atom_set_for,
    atoms_of_max_length,
    davenport,
    enumerate_atoms,
    is_atom,
)


def naive_atoms(group, max_len):
    """Reference enumeration: all multisets up to max_len, zero-sum filter,
    minimality by scanning every proper submultiset."""
    elems = group.elements()
    out = []
    for length in range(1, max_len + 1):
        for combo in itertools.combinations_with_replacement(elems, length):
            s = Sequence(group, combo)
            if s.index_pairs() != tuple(
                sorted(
                    {
                        (group.index_of(e), sum(1 for x in combo if x == e))
                        for e in set(combo)
                    }
                )
            ):
                continue  # dedupe: combinations_with_replacement is already canonical
            total = group.zero()
            for e in combo:
                total = group.add(total, e)
            if total != group.zero():
                continue
            minimal = True
            pairs = s.index_pairs()
            for picks in itertools.product(*[range(m + 1) for _, m in pairs]):
                k = sum(picks)
                if k == 0 or k == length:
                    continue
                t = group.zero()
                for (i, _), c in zip(pairs, picks):
                    for _ in range(c):
                        t = group.add(t, elems[i])
                if t == group.zero():
                    minimal = False
                    break
            if minimal:
                out.append(s)
    return sorted(set(out), key=Sequence.sort_key)


def per_bit_sum_mask(s):
    """Twin of ``Sequence.subsequence_sum_mask``: each copy of an element i
    translates the mask by i with one addition-table lookup per set bit."""
    g = s.group
    add = g.add_table()
    size = g.order()
    mask = 0
    for i, m in s.index_pairs():
        for _ in range(m):
            shifted = 0
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                shifted |= 1 << add[(low.bit_length() - 1) * size + i]
            mask |= shifted | (1 << i)
    return mask


def per_bit_atom_index_lists(group, sup_indices, max_len, budget):
    """Twin of ``_atom_index_lists``: the same DFS, translating the mask of
    proper subsums with one addition-table lookup per set bit."""
    size = group.order()
    add = group.add_table()
    neg = group.neg_table()
    sup = sorted(sup_indices)
    pos_of = {x: p for p, x in enumerate(sup)}
    found = []
    if max_len < 2 or not sup:
        return found

    def rec(elems, last_pos, full, proper):
        budget.spend()
        g = neg[full]
        gp = pos_of.get(g)
        if gp is not None and gp >= last_pos and len(elems) + 1 <= max_len:
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

    for p, x in enumerate(sup):
        rec((x,), p, x, 0)
    return found


def brute_is_atom(s):
    """Minimality checked at every support element: s * g^-1 must be
    zero-sum-free for each g in supp(s), by the per-bit twin mask."""
    if len(s) == 0 or not s.is_zero_sum():
        return False
    if len(s) == 1:
        return True  # the zero element, the only length-1 zero-sum sequence
    group = s.group
    for i, _ in s.index_pairs():
        if i == 0:
            return False  # 0 inside a longer sequence is a proper zero-sum
        reduced = s.quotient(Sequence._from_index_pairs(group, ((i, 1),)))
        if per_bit_sum_mask(reduced) & 1:
            return False
    return True


# every abelian group of order <= 16, in invariant-factor form
GROUPS_UP_TO_16 = (
    "C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "C7", "C8", "C2xC4",
    "C2xC2xC2", "C9", "C3xC3", "C10", "C11", "C12", "C2xC6", "C13", "C14",
    "C15", "C16", "C2xC8", "C4xC4", "C2xC2xC4", "C2xC2xC2xC2",
)


def test_is_atom_examples():
    g = parse_group("C2xC4")
    assert is_atom(Sequence(g, [g.zero()]))
    assert is_atom(parse_sequence(g, "(0,1)^3 (1,0) (1,1)"))
    # g g (-g) (-g) splits into two pairs when ord(g) = 4
    assert not is_atom(parse_sequence(g, "(0,1)^2 (0,3)^2"))
    assert not is_atom(Sequence.empty(g))
    assert not is_atom(Sequence(g, [(0, 1)]))
    assert not is_atom(Sequence(g, [g.zero(), (0, 1), (0, 3)]))


@pytest.mark.parametrize(
    "spec",
    ["C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8",
     "C2xC2", "C2xC4", "C3xC3", "C2xC2xC2"],
)
def test_is_atom_matches_brute_force_on_all_short_sequences(spec):
    g = parse_group(spec)
    elems = g.elements()
    for length in range(8):
        for combo in itertools.combinations_with_replacement(elems, length):
            s = Sequence(g, combo)
            assert is_atom(s) == brute_is_atom(s), s


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_is_atom_matches_brute_force_on_closed_prefixes(data):
    g = parse_group(data.draw(st.sampled_from(("C4xC4", "C3xC6", "C5xC5"))))
    prefix = Sequence(g, [g.element(i) for i in data.draw(
        st.lists(st.integers(0, g.order() - 1), min_size=1, max_size=10)
    )])
    s = prefix * Sequence(g, [g.neg(prefix.sigma())])
    assert is_atom(s) == brute_is_atom(s)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_subsequence_sum_mask_matches_per_bit_loop(data):
    g = parse_group(data.draw(st.sampled_from(
        ("C1", "C12", "C2xC2xC2xC2", "C3xC6", "C2xC8", "C5xC5", "C2xC2xC6")
    )))
    s = Sequence(g, [g.element(i) for i in data.draw(
        st.lists(st.integers(0, g.order() - 1), max_size=10)
    )])
    assert s.subsequence_sum_mask() == per_bit_sum_mask(s)


@pytest.mark.parametrize("spec", GROUPS_UP_TO_16)
def test_atom_search_matches_per_bit_twin(spec):
    # same tuples in the same order, and the same budget spend
    g = parse_group(spec)
    nonzero = list(range(1, g.order()))
    for sup in (nonzero, nonzero[::2], nonzero[: len(nonzero) // 2 + 1]):
        fast, slow = Budget(), Budget()
        got = _atom_index_lists(g, sup, g.order(), fast)
        want = per_bit_atom_index_lists(g, sup, g.order(), slow)
        assert got == want and fast.used == slow.used


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_atom_search_matches_per_bit_twin_on_random_supports(data):
    # same tuples, order and spend; one unit short, both raise at the same node
    g = parse_group(data.draw(st.sampled_from(
        ("C5xC5", "C2xC2xC6", "C3xC6", "C2xC8", "C3xC3xC3")
    )))
    sup = sorted(data.draw(st.sets(st.integers(1, g.order() - 1), min_size=1)))
    cap = data.draw(st.integers(2, g.order()))
    fast, slow = Budget(), Budget()
    got = _atom_index_lists(g, sup, cap, fast)
    assert got == per_bit_atom_index_lists(g, sup, cap, slow)
    assert fast.used == slow.used
    if fast.used > 1:
        raised = []
        for search in (_atom_index_lists, per_bit_atom_index_lists):
            with pytest.raises(BudgetExceededError) as err:
                search(g, sup, cap, Budget(fast.used - 1))
            raised.append((err.value.limit, err.value.used))
        assert raised == [(fast.used - 1, fast.used)] * 2


@pytest.mark.parametrize(
    "spec,count,d,nodes",
    [("C5xC5", 31029, 9, 138864), ("C2xC2xC6", 12240, 8, 57418),
     ("C3xC6", 2642, 8, 10313), ("C4xC4", 1107, 7, 4122),
     ("C2xC2xC4", 698, 6, 2768), ("C2xC8", 1363, 9, 4962), ("C3xC3", 69, 5, 184),
     ("C3xC3xC3", 27912, 7, 138424)],
)
def test_structure_group_atom_counts(spec, count, d, nodes):
    budget = Budget()
    aset = enumerate_atoms(parse_group(spec), budget=budget)
    assert (len(aset), aset.davenport, budget.used) == (count, d, nodes)


@pytest.mark.parametrize("spec", GROUPS_UP_TO_16)
def test_atom_set_is_closed_under_automorphisms(spec):
    # lsystem._orbit_minimal_flags looks up every orbit image of an atom
    # among the atoms, so each generator must map the atom set onto itself
    g = parse_group(spec)
    pool = set(enumerate_atoms(g).atoms)
    for perm in g.automorphism_generators():
        image = {
            Sequence._from_index_pairs(
                g, tuple(sorted((perm[i], m) for i, m in a.index_pairs()))
            )
            for a in pool
        }
        assert image == pool


@pytest.mark.parametrize("spec", GROUPS_UP_TO_16)
def test_atom_search_emits_only_atoms(spec):
    # every DFS prefix is zero-sum-free, so prefix * (-sigma) is an atom and
    # the is_atom guard in enumerate_atoms never has anything to drop
    g = parse_group(spec)
    nonzero = list(range(1, g.order()))
    for sup in (nonzero[::2], nonzero[: len(nonzero) // 2 + 1]):
        for t in _atom_index_lists(g, sup, g.order(), Budget()):
            assert brute_is_atom(Sequence(g, [g.element(i) for i in t])), t


def test_full_support_shares_the_group_atom_set(monkeypatch):
    monkeypatch.setattr(atoms, "_ATOMSET_CACHE", {})
    g = parse_group("C2xC4")
    assert atom_set_for(g, g.elements()) is atom_set_for(g)
    length_set(Sequence(g, g.elements()))  # a zero-sum sequence with full support
    assert len(atoms._ATOMSET_CACHE) == 1


def test_single_generator_support():
    g = parse_group("C2xC4")
    aset = enumerate_atoms(g, support=[(1, 1)])
    assert [str(a) for a in aset.atoms] == ["(1,1)^4"]
    assert aset.max_len == 4


def test_atoms_of_c3():
    g = parse_group("C3")
    aset = enumerate_atoms(g)
    assert [str(a) for a in aset.atoms] == ["(0)", "(1) (2)", "(1)^3", "(2)^3"]


def test_naive_filter_agreement_small_groups():
    for spec in ("C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9",
                 "C2xC2", "C2xC4", "C2xC2xC2", "C3xC3"):
        g = parse_group(spec)
        aset = atom_set_for(g)
        assert list(aset.atoms) == naive_atoms(g, aset.max_len)


def test_elementary_two_group_adjoined_element():
    # over C2^r with support {e_0,...,e_r}: squares plus the full product;
    # adjoining e_I adds exactly U_I, V_I, and e_I^2
    r = 4
    g = AbelianGroup([2] * r)
    basis = g.standard_basis()
    e0 = (1,) * r
    base_support = [e0, *basis]
    aset = enumerate_atoms(g, support=base_support)
    squares = {Sequence(g, [h, h]) for h in base_support}
    v0 = Sequence(g, base_support)
    assert set(aset.atoms) == squares | {v0}

    subset = (1, 2)
    e_i = (1, 1, 0, 0)
    u_i = Sequence(g, [e_i, basis[0], basis[1]])
    v_i = Sequence(g, [e_i, e0, basis[2], basis[3]])
    bigger = enumerate_atoms(g, support=base_support + [e_i])
    assert set(bigger.atoms) == squares | {v0, u_i, v_i, Sequence(g, [e_i, e_i])}


@pytest.mark.parametrize(
    "spec,expected",
    [("C2", 2), ("C3", 3), ("C4", 4), ("C5", 5), ("C6", 6), ("C7", 7),
     ("C8", 8), ("C9", 9), ("C2xC2", 3), ("C2xC2xC2", 4), ("C2xC2xC2xC2", 5),
     ("C2xC4", 5), ("C3xC3", 5), ("C1", 1)],
)
def test_davenport_values(spec, expected):
    assert davenport(parse_group(spec)) == expected


def test_davenport_lower_bound():
    for spec in ("C6", "C2xC4", "C3xC3", "C2xC2xC2"):
        g = parse_group(spec)
        assert davenport(g) >= 1 + sum(n - 1 for n in g.invariant_factors)


def test_max_length_atoms_c2xc4():
    g = parse_group("C2xC4")
    top = atoms_of_max_length(g)
    assert len(top) == 8
    assert all(len(a) == 5 for a in top)
    assert {(-a) for a in top} == set(top)


def test_max_length_atoms_c2():
    g = parse_group("C2")
    assert [str(a) for a in atoms_of_max_length(g)] == ["(1)^2"]


def test_max_length_atoms_c23_are_basis_products():
    g = AbelianGroup([2, 2, 2])
    top = atoms_of_max_length(g)
    assert all(len(a) == 4 for a in top)
    for a in top:
        elems = a.support()
        assert len(elems) == 4 and a.is_squarefree()
        for omit in range(4):
            rest = [e for k, e in enumerate(elems) if k != omit]
            assert g.is_basis(rest)
    # 28 unordered bases, and each atom absorbs 4 of them (any of its
    # elements can play the sum role)
    assert len(top) == 7


def test_atom_set_closed_under_negation():
    for spec in ("C5", "C2xC4", "C3xC3"):
        aset = atom_set_for(parse_group(spec))
        atom_pool = set(aset.atoms)
        assert {-a for a in atom_pool} == atom_pool


def test_atom_set_membership():
    g = parse_group("C3xC6")
    aset = atom_set_for(g)
    atom = aset.atoms[100]
    assert atom in aset
    assert all(a in aset for a in aset.atoms)
    assert atom * atom not in aset  # zero-sum, not minimal
    assert Sequence(g, [(1, 0)]) not in aset  # not zero-sum
    # the zero atom of C18 has the same index pairs as the zero atom of C3xC6
    other = Sequence(parse_group("C18"), [(0,)])
    assert is_atom(other) and other.index_pairs() == aset.atoms[0].index_pairs()
    assert other not in aset


def test_length_one_atoms_are_exactly_zero():
    for spec in ("C4", "C2xC4"):
        aset = atom_set_for(parse_group(spec))
        ones = [a for a in aset.atoms if len(a) == 1]
        assert len(ones) == 1 and ones[0].support() == (aset.group.zero(),)


def test_symmetry_flag_gives_identical_results():
    for spec in ("C2xC4", "C3xC3", "C2xC2xC2", "C5", "C2xC6", "C2xC2xC4"):
        g = parse_group(spec)
        plain = _atom_index_lists(g, range(1, g.order()), g.order(), Budget())
        default = enumerate_atoms(g)
        reduced = enumerate_atoms(g, symmetry=True)
        assert list(default.atoms) == list(reduced.atoms)
        spelled = sorted(
            tuple(i for i, m in a.index_pairs() for _ in range(m))
            for a in default.atoms
            if len(a) > 1
        )
        assert spelled == sorted(plain)


def test_max_len_cap_restricts_output():
    g = parse_group("C2xC4")
    capped = enumerate_atoms(g, max_len=3)
    full = enumerate_atoms(g)
    assert set(capped.atoms) == {a for a in full.atoms if len(a) <= 3}
    for bad in (0, -1):
        with pytest.raises(ValueError):
            enumerate_atoms(g, max_len=bad)


def test_budget_exhaustion_raises():
    with pytest.raises(BudgetExceededError) as err:
        enumerate_atoms(parse_group("C3xC3"), budget=5)
    assert (err.value.phase, err.value.limit, err.value.used) == ("enumerate_atoms", 5, 6)


def test_atom_set_covers():
    g = parse_group("C2xC4")
    aset = enumerate_atoms(g, support=[(0, 1), (1, 1), (1, 2)])
    assert aset.covers(parse_sequence(g, "(0,1)^3 (1,1) (1,2)^2"))
    assert aset.covers(Sequence.empty(g))
    assert not aset.covers(parse_sequence(g, "(0,1)^2 (0,2)"))
    assert aset.covers(parse_sequence(g, "(1,1)"))  # the cached set answers again


def test_independence_shape_of_squarefree_atoms():
    # over elementary 2-groups, any s elements of a squarefree atom of
    # size s+1 are independent and sum to the remaining one
    for r in (3, 4):
        g = AbelianGroup([2] * r)
        for a in atom_set_for(g).atoms:
            if len(a) < 3:
                continue
            elems = a.support()
            for omit in range(len(elems)):
                rest = [e for k, e in enumerate(elems) if k != omit]
                total = g.zero()
                for e in rest:
                    total = g.add(total, e)
                assert g.is_independent(rest) and total == elems[omit]


@pytest.mark.parametrize("spec", GROUPS_UP_TO_16)
def test_atom_set_stores_sorted_pairs_and_builds_matching_sequences(spec):
    # atoms_sparse is the stored form, strictly increasing in the order of
    # Sequence.sort_key; the Sequences built from it match it position by position
    g = parse_group(spec)
    elems = g.elements()
    for support in (None, elems[::2], elems[: len(elems) // 2 + 1]):
        aset = enumerate_atoms(g, support)
        keys = [(sum(m for _, m in sp), sp) for sp in aset.atoms_sparse]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert aset.max_len == (keys[-1][0] if keys else 0)
        assert len(aset.atoms) == len(aset) == len(aset.atoms_sparse)
        for a, sp in zip(aset.atoms, aset.atoms_sparse):
            assert a.index_pairs() == sp


@pytest.mark.parametrize("spec,step", [("C3xC3", 1), ("C2xC4", 2), ("C7", 1), ("C2xC2xC4", 1)])
def test_atom_guard_runs_once_per_emitted_tuple(monkeypatch, spec, step):
    # one guard call per tuple the search emits, on that tuple's runs
    g = parse_group(spec)
    support = g.elements()[::step]
    sup = sorted({g.index_of(e) for e in support} - {0})
    emitted = _atom_index_lists(g, sup, g.order(), Budget())
    guarded = []
    guard = atoms._is_atom_pairs

    def counted(group, pairs):
        guarded.append(tuple(pairs))
        return guard(group, pairs)

    monkeypatch.setattr(atoms, "_is_atom_pairs", counted)
    aset = enumerate_atoms(g, support)
    assert guarded == [tuple((i, t.count(i)) for i in sorted(set(t))) for t in emitted]
    assert sorted(guarded) == sorted(sp for sp in aset.atoms_sparse if sp != ((0, 1),))


def test_atom_guard_verdict_decides_what_is_kept(monkeypatch):
    # the guard's answer is what enumerate_atoms keeps; only the zero atom,
    # which is never emitted by the search, bypasses it
    g = parse_group("C2xC4")
    monkeypatch.setattr(atoms, "_is_atom_pairs", lambda group, pairs: False)
    aset = enumerate_atoms(g)
    assert aset.atoms_sparse == (((0, 1),),) and aset.max_len == 1


def test_is_atom_reads_the_pairs_check(monkeypatch):
    g = parse_group("C2xC4")
    s = parse_sequence(g, "(0,1)^3 (1,0) (1,1)")
    seen = []
    monkeypatch.setattr(
        atoms, "_is_atom_pairs", lambda group, pairs: seen.append((group, pairs)) or True
    )
    assert is_atom(s) and seen == [(g, s.index_pairs())]

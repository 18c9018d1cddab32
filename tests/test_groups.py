"""Group representation, parsing, and element arithmetic."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from zslen.groups import AbelianGroup, parse_group

from twins import automorphisms


def test_parse_basic_specs():
    assert parse_group("C2xC4").invariant_factors == (2, 4)
    assert parse_group("C3xC3").invariant_factors == (3, 3)
    assert parse_group("c2 x c4").invariant_factors == (2, 4)
    assert parse_group("C2XC4").invariant_factors == (2, 4)
    assert parse_group("2X4").invariant_factors == (2, 4)
    assert parse_group("2,4").invariant_factors == (2, 4)
    assert parse_group("C7").invariant_factors == (7,)


def test_parse_canonicalizes_order_and_merges():
    assert parse_group("4,2").invariant_factors == (2, 4)
    assert parse_group("2,3").invariant_factors == (6,)
    assert parse_group("C6xC4").invariant_factors == (2, 12)
    assert parse_group("12,18").invariant_factors == (6, 36)


def _order_multiset(group):
    return Counter(group.element_order(e) for e in group.elements())


@pytest.mark.parametrize("spec", ["4,2", "2,2,4", "8,2", "3,9", "2,6"])
def test_canonical_form_is_isomorphism_invariant(spec):
    # brute-force isomorphism check: the multiset of element orders pins
    # down a finite abelian group up to isomorphism
    raw = [int(x) for x in spec.split(",")]
    g = parse_group(spec)
    expected_order = 1
    for n in raw:
        expected_order *= n
    assert g.order() == expected_order
    assert _order_multiset(AbelianGroup(raw)) == _order_multiset(g)
    chain = g.invariant_factors
    assert all(chain[i + 1] % chain[i] == 0 for i in range(len(chain) - 1))


def test_parse_trivial_group():
    g = parse_group("C1")
    assert g.invariant_factors == ()
    assert g.order() == 1 and g.rank() == 0 and g.exponent() == 1
    assert g.elements() == ((),)


@pytest.mark.parametrize("bad", ["", "C0", "Cx", "2,-3", "foo", "C2yC4"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_group(bad)


def test_element_arithmetic_examples():
    g = parse_group("C2xC4")
    assert g.add((1, 3), (1, 2)) == (0, 1)
    assert g.neg((1, 3)) == (1, 1)
    assert g.add(g.zero(), (1, 2)) == (1, 2)


def test_element_orders():
    g = parse_group("C2xC4")
    assert g.element_order((1, 2)) == 2
    assert g.element_order((1, 1)) == 4
    assert g.element_order(g.zero()) == 1
    for e in g.elements():
        assert g.exponent() % g.element_order(e) == 0


def test_enumerate_elements_lexicographic_and_complete():
    g = parse_group("C2xC4")
    elems = g.elements()
    assert len(elems) == 8 == len(set(elems))
    assert list(elems) == sorted(elems)
    assert elems[0] == (0, 0)


def test_rejects_foreign_elements():
    g = parse_group("C2xC4")
    with pytest.raises(ValueError):
        g.index_of((2, 1))
    with pytest.raises(ValueError):
        g.add((0, 1), (0, 5))


def test_independence_and_bases():
    g = parse_group("C2xC4")
    assert g.is_basis([(1, 0), (0, 1)])
    assert not g.is_basis([(1, 1)])
    assert g.is_independent([(0, 2), (1, 0)])
    assert not g.is_basis([(0, 2), (1, 0)])  # span has order 4
    assert not g.is_independent([(0, 0), (1, 0)])
    g22 = AbelianGroup([2, 2])
    assert g22.is_basis([(1, 0), (1, 1)])


def test_basis_order_product():
    for spec in ("C2xC4", "C3xC3", "C2xC2xC2"):
        g = parse_group(spec)
        basis = g.standard_basis()
        assert g.is_basis(basis)
        prod = 1
        for e in basis:
            prod *= g.element_order(e)
        assert prod == g.order()


def test_group_axioms_on_random_triples():
    rng = random.Random(7)
    for spec in ("C2xC4", "C3xC3", "C6", "C1"):
        g = parse_group(spec)
        elems = g.elements()
        for _ in range(40):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert g.add(a, g.neg(a)) == g.zero()
            assert g.add(a, b) == g.add(b, a)
            assert g.add(g.add(a, b), c) == g.add(a, g.add(b, c))


def _groups_up_to(order):
    """Every abelian group of order <= ``order``, as invariant factors."""

    def chains(n, base):
        # chains base | n_1 | n_2 | ... of factors >= 2 with product n
        if n == 1:
            yield ()
        for first in range(2, n + 1):
            if n % first == 0 and first % base == 0:
                for rest in chains(n // first, first):
                    yield (first,) + rest

    return [AbelianGroup(ns) for n in range(1, order + 1) for ns in chains(n, 1)]


def test_automorphism_generators_generate_the_full_group():
    # every group delta_star_bounded accepts: its orbits come from the
    # generators
    groups = _groups_up_to(16)
    assert len(groups) == 25
    for g in groups:
        full = set(automorphisms(g))
        gens = g.automorphism_generators()
        assert set(gens) <= full
        identity = tuple(range(g.order()))
        closure = {identity}
        frontier = [identity]
        while frontier:
            nxt = []
            for p in frontier:
                for q in gens:
                    composed = tuple(q[p[i]] for i in range(len(p)))
                    if composed not in closure:
                        closure.add(composed)
                        nxt.append(composed)
            frontier = nxt
        assert closure == full


def test_known_automorphism_group_sizes():
    assert len(automorphisms(parse_group("C3"))) == 2
    assert len(automorphisms(parse_group("C2xC2"))) == 6
    assert len(automorphisms(parse_group("C2xC2xC2"))) == 168
    assert len(automorphisms(parse_group("C2xC4"))) == 8
    assert len(automorphisms(parse_group("C3xC3"))) == 48


def test_index_arithmetic_builds_tables_on_a_fresh_group():
    g = parse_group("C2xC2xC2")
    assert g.add_index(1, 1) == 0
    assert parse_group("C2xC2xC2").neg_index(1) == 1
    h = parse_group("C3xC3")
    assert h.neg_index(1) == 2
    for i in range(h.order()):
        assert h.add_index(i, h.neg_index(i)) == 0


def test_element_arithmetic_builds_tables_on_a_fresh_group():
    assert parse_group("C2xC4").neg((1, 1)) == (1, 3)
    assert parse_group("C3xC3").neg((0, 0)) == (0, 0)


def test_automorphism_generators_computed_once_per_group():
    g = AbelianGroup([3, 6])
    gens = g.automorphism_generators()
    g.orbit_of_tuple((1, 2))
    g.orbit_of_tuple((3,))
    assert g.automorphism_generators() is gens


def per_bit_translate(g, mask, x):
    """Twin of ``translate_mask``: one addition-table lookup per set bit."""
    add = g.add_table()
    size = g.order()
    shifted = 0
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        shifted |= 1 << add[(low.bit_length() - 1) * size + x]
    return shifted


TRANSLATION_GROUPS = ("C1", "C12", "C2xC2xC2xC2", "C3xC6", "C2xC8", "C5xC5", "C2xC2xC6")


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data())
def test_translate_mask_matches_per_bit_loop(data):
    g = parse_group(data.draw(st.sampled_from(TRANSLATION_GROUPS)))
    mask = data.draw(st.integers(0, (1 << g.order()) - 1))
    x = data.draw(st.integers(0, g.order() - 1))
    assert g.translate_mask(mask, x) == per_bit_translate(g, mask, x)


def test_translation_steps_one_per_nonzero_coordinate():
    for spec in TRANSLATION_GROUPS + ("C2xC4xC8", "C3xC3xC3"):
        g = parse_group(spec)
        steps = g.translation_steps()
        assert len(steps) == g.order()
        for x, e in enumerate(g.elements()):
            assert len(steps[x]) == sum(1 for c in e if c) <= g.rank()
            full = (1 << g.order()) - 1
            assert g.translate_mask(full, x) == full
            for i in range(g.order()):
                assert g.translate_mask(1 << i, x) == 1 << g.add_index(i, x)
        assert g.translation_steps() is steps  # computed once per instance

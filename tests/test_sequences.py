"""Sequence (multiset) operations and the zero-sum predicates."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from zslen.groups import AbelianGroup, parse_group
from zslen.sequences import Sequence, format_sequence, parse_sequence


def naive_zero_sum_free(s: Sequence) -> bool:
    """Power-set oracle: walk every nonempty submultiset explicitly."""
    g = s.group
    pairs = s.index_pairs()
    elems = g.elements()
    for picks in itertools.product(*[range(m + 1) for _, m in pairs]):
        if not any(picks):
            continue
        total = g.zero()
        for (i, _), k in zip(pairs, picks):
            for _ in range(k):
                total = g.add(total, elems[i])
        if total == g.zero():
            return False
    return True


def test_sigma_examples():
    g = parse_group("C2xC4")
    assert Sequence.empty(g).sigma() == (0, 0)
    u = parse_sequence(g, "(0,1)^3 (1,0) (1,1)")
    assert u.sigma() == (0, 0) and u.is_zero_sum()
    for e in g.elements():
        power = Sequence(g, [e] * g.element_order(e))
        assert power.is_zero_sum()


def test_zero_sum_free_against_power_set_oracle():
    rng = random.Random(11)
    for spec in ("C5", "C2xC4", "C3xC3"):
        g = parse_group(spec)
        elems = g.elements()
        for _ in range(60):
            s = Sequence(g, [rng.choice(elems) for _ in range(rng.randint(0, 12))])
            assert s.is_zero_sum_free() == naive_zero_sum_free(s)


def test_zero_sum_free_examples():
    g = parse_group("C5xC5")
    s = Sequence(g, [(1, 0)] * 3 + [(0, 1)] * 3)
    assert s.is_zero_sum_free()
    g2 = parse_group("C7")
    pair = Sequence(g2, [(3,), (4,)])
    assert pair.is_zero_sum() and not pair.is_zero_sum_free()
    assert Sequence.empty(g2).is_zero_sum() and Sequence.empty(g2).is_zero_sum_free()


def test_divisibility_and_quotient():
    g = parse_group("C5")
    g2 = Sequence(g, [(1,), (1,)])
    g3 = Sequence(g, [(1,), (1,), (1,)])
    assert g2.divides(g3)
    assert not g3.divides(g2)
    assert g3.quotient(g2) == Sequence(g, [(1,)])
    with pytest.raises(ValueError):
        g2.quotient(g3)


def test_product_and_negate():
    g = parse_group("C2xC4")
    u = parse_sequence(g, "(0,1)^3 (1,0) (1,1)")
    assert -u == parse_sequence(g, "(0,3)^3 (1,0) (1,3)")
    assert u * Sequence.empty(g) == u
    assert len(u * u) == 2 * len(u)
    assert (-(-u)) == u


def test_group_mismatch_rejected():
    a = Sequence(parse_group("C4"), [(1,)])
    b = Sequence(parse_group("C5"), [(1,)])
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a.divides(b)


def test_parse_format_round_trip():
    g = parse_group("C2xC4")
    u = parse_sequence(g, "(0,1)^3 (1,0) (1,1)")
    assert parse_sequence(g, format_sequence(u)) == u
    assert u.multiplicity((0, 1)) == 3
    assert parse_sequence(g, "") == Sequence.empty(g)
    # repeated terms accumulate
    assert parse_sequence(g, "(1,0) (1,0)") == parse_sequence(g, "(1,0)^2")
    # format is sorted by the canonical element order
    assert format_sequence(parse_sequence(g, "(1,1) (0,1)")) == "(0,1) (1,1)"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_parse_inverts_format(data):
    g = parse_group(data.draw(st.sampled_from(
        ("C1", "C2", "C7", "C12", "C2xC4", "C3xC3", "C2xC2xC2xC2")
    )))
    s = Sequence(g, [g.element(i) for i in data.draw(
        st.lists(st.integers(0, g.order() - 1), max_size=12)
    )])
    assert parse_sequence(g, format_sequence(s)) == s


def test_parse_rank_one_accepts_bare_integers():
    g = parse_group("C5")
    assert parse_sequence(g, "1^4 4") == parse_sequence(g, "(1)^4 (4)")


@pytest.mark.parametrize("bad", ["(0,9)", "(1)", "(0,1)^0", "nonsense", "(0,1)^-2"])
def test_parse_rejects_malformed(bad):
    g = parse_group("C2xC4")
    with pytest.raises(ValueError):
        parse_sequence(g, bad)


def test_negation_preserves_zero_sum_predicates():
    rng = random.Random(5)
    g = parse_group("C3xC3")
    elems = g.elements()
    for _ in range(50):
        s = Sequence(g, [rng.choice(elems) for _ in range(rng.randint(0, 8))])
        assert s.is_zero_sum() == (-s).is_zero_sum()
        assert s.is_zero_sum_free() == (-s).is_zero_sum_free()


def test_zero_sum_free_inherited_by_divisors():
    rng = random.Random(13)
    g = parse_group("C2xC4")
    elems = g.elements()
    checked = 0
    while checked < 20:
        s = Sequence(g, [rng.choice(elems) for _ in range(rng.randint(1, 7))])
        if not s.is_zero_sum_free():
            continue
        checked += 1
        for e, m in list(s.items()):
            t = s.quotient(Sequence(g, [e]))
            assert t.is_zero_sum_free()


def test_product_quotient_inverse():
    rng = random.Random(17)
    g = parse_group("C3xC3")
    elems = g.elements()
    for _ in range(30):
        a = Sequence(g, [rng.choice(elems) for _ in range(rng.randint(0, 6))])
        b = Sequence(g, [rng.choice(elems) for _ in range(rng.randint(0, 6))])
        assert (a * b).quotient(b) == a
        assert b.divides(a * b)


def test_sequences_over_trivial_group():
    g = parse_group("C1")
    z = Sequence(g, [()] * 3)
    assert len(z) == 3 and z.is_zero_sum()
    assert format_sequence(z) == "()^3"
    assert parse_sequence(g, "()^3") == z

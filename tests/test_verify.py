"""Scenario runner surface and the elementary 2-group gadget algebra."""

import inspect
import itertools
import random

import pytest

import zslen
from zslen import verify
from zslen.atoms import atom_set_for
from zslen.groups import AbelianGroup
from zslen.budget import BudgetExceededError
from zslen.lsystem import DecideResult, zero_free_length_masks
from zslen.factorize import LengthSet, length_set
from zslen.atoms import is_atom
from zslen.verify import (
    E2Gadget,
    c23_form_member,
    c33_form_member,
    run_scenario,
    scenario_ids,
    step_progression_member,
)


def test_gadget_constructions():
    gad = E2Gadget(4)
    assert gad.e0 == (1, 1, 1, 1)
    assert gad.e_I([1, 3]) == (1, 0, 1, 0)
    u = gad.U_I([1, 3])
    assert len(u) == 3 and u.is_zero_sum() and is_atom(u)
    v = gad.V_I([1, 3])
    assert len(v) == 4 and v.is_zero_sum() and is_atom(v)
    assert len(gad.V0) == 5 and is_atom(gad.V0)


def test_gadget_two_set_atom_conditions():
    gad = E2Gadget(4)
    # overlapping I, J of middle size: U_{I,J} is an atom
    assert is_atom(gad.U_IJ([1, 2], [2, 3]))
    # disjoint: U_{I,J} = U_I U_J splits
    assert not is_atom(gad.U_IJ([1, 2], [3, 4]))
    # incomparable: V_{I,J} is an atom
    assert is_atom(gad.V_IJ([1, 2], [2, 3]))
    # nested: V_{I,J} is not
    assert not is_atom(gad.V_IJ([1, 2], [1, 2, 3]))


def test_two_adjoined_elements_atom_classification():
    # over the base support plus e_I and e_J, the atoms divisible by both
    # extra elements are exactly U_{I,J} (when I and J overlap) and
    # V_{I,J} (when neither contains the other)
    import itertools

    from zslen.atoms import enumerate_atoms

    r = 4
    gad = E2Gadget(r)
    g = gad.group
    base = [gad.e(i) for i in range(0, r + 1)]
    mids = [
        s
        for size in range(2, r)
        for s in itertools.combinations(range(1, r + 1), size)
    ]
    for i_set, j_set in itertools.combinations(mids, 2):
        ei, ej = gad.e_I(i_set), gad.e_I(j_set)
        if ei in base or ej in base or ei == ej:
            continue
        aset = enumerate_atoms(g, support=base + [ei, ej])
        both = {
            a
            for a in aset.atoms
            if a.multiplicity(ei) >= 1 and a.multiplicity(ej) >= 1
        }
        expected = set()
        if set(i_set) & set(j_set):
            expected.add(gad.U_IJ(i_set, j_set))
        if not set(i_set) <= set(j_set) and not set(j_set) <= set(i_set):
            expected.add(gad.V_IJ(i_set, j_set))
        assert both == expected, (i_set, j_set)


def test_form_membership_helpers():
    assert step_progression_member(LengthSet([4, 5, 6]))
    assert step_progression_member(LengthSet([7]))
    assert not step_progression_member(LengthSet([2, 4]))
    assert not step_progression_member(LengthSet([1, 2]))  # min below 2k
    assert c23_form_member(LengthSet([2, 4]))  # difference-2 progression
    assert c23_form_member(LengthSet([3, 4, 5]))
    assert not c23_form_member(LengthSet([2, 3, 4]))  # would need y = -1
    assert c33_form_member(LengthSet([2, 3, 4, 5]))
    assert c33_form_member(LengthSet([3, 4, 5, 6, 7]))
    assert not c33_form_member(LengthSet([2, 6]))
    assert not c33_form_member(LengthSet([3, 8]))


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        run_scenario("no-such-scenario")


def test_all_ids_resolve():
    assert "lemma-3.3" in scenario_ids()
    assert "theorem-1.1-table" in scenario_ids()
    # every public name the package imports is exported, and the reverse
    public = {
        name
        for name, value in vars(zslen).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(zslen.__all__)


@pytest.mark.parametrize("sid", sorted(scenario_ids()))
def test_scenarios_pass(sid):
    sc = run_scenario(sid, heavy=False, budget=5_000_000)
    failures = [c for c in sc.claims if not c.passed]
    assert not failures, "\n".join(
        f"{c.reference}: computed={c.computed} expected={c.expected}" for c in failures
    )


@pytest.mark.parametrize(
    "sid", ["lemma-3.3", "prop-el2-r2", "prop-3.8-r2", "prop-3.9-witnesses"]
)
def test_inconclusive_oracle_raises_instead_of_failing_a_claim(monkeypatch, sid):
    monkeypatch.setattr(
        verify, "decide_length_set", lambda group, target, budget: DecideResult(None, None, 7)
    )
    with pytest.raises(BudgetExceededError) as err:
        run_scenario(sid, heavy=False, budget=5_000_000)
    assert (err.value.limit, err.value.used, err.value.phase) == (
        5_000_000, 7, "decide_length_set"
    )


def test_lemma_3_5_2_reads_every_zero_free_sequence():
    for r, count in ((3, 2_480), (4, 205_040)):
        aset = atom_set_for(AbelianGroup([2] * r))
        assert sum(1 for _ in zero_free_length_masks(aset, 10, None)) == count


def test_lemma_3_5_2_gap_characterization_is_not_vacuous(monkeypatch):
    monkeypatch.setattr(verify, "is_basis_plus_sum", lambda group, elems: False)
    sc = run_scenario("lemma-3.5_2", heavy=False, budget=5_000_000)
    failed = {c.reference for c in sc.claims if not c.passed}
    assert "lemma-3.5_2/gap-characterization-r3" in failed


def test_scenario_builds_only_its_groups_atom_set(monkeypatch):
    # per-support atom sets would add one entry per distinct product support
    monkeypatch.setattr(zslen.atoms, "_ATOMSET_CACHE", {})
    assert run_scenario("lemma-3.3", budget=5_000_000).passed
    assert list(zslen.atoms._ATOMSET_CACHE) == [((2, 4), None)]


def _bit_row(e):
    return sum(c << j for j, c in enumerate(e))


def _elementary_2_group_subsets():
    """Every subset of the nonzero elements of C2^3, then 500 seeded
    subsets (the zero element allowed) of C2^4 and of C2^5."""
    g = AbelianGroup([2] * 3)
    nonzero = g.elements()[1:]
    for size in range(len(nonzero) + 1):
        for subset in itertools.combinations(nonzero, size):
            yield g, list(subset)
    rng = random.Random(20261020)
    for r in (4, 5):
        g = AbelianGroup([2] * r)
        for _ in range(500):
            yield g, rng.sample(g.elements(), rng.randint(1, r + 2))


def test_independent_mod2_matches_is_independent():
    seen = set()
    for g, elems in _elementary_2_group_subsets():
        expected = g.is_independent(elems)
        assert verify._independent_mod2([_bit_row(e) for e in elems]) == expected, elems
        seen.add(expected)
    assert seen == {True, False}

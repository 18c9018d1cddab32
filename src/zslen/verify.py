"""Named verification scenarios: each recomputes a batch of concrete
claims about small groups and reports pass/fail per claim.

Scenarios are deterministic and self-contained; the ones that spot-check
statements of the form "for all sufficiently large k" do so at fixed small
k and say so in the claim text.  Heavy-only claims (full enumerations that
take minutes) run only when the heavy flag is set.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .atoms import atom_set_for, atoms_of_max_length, davenport, is_atom
from .budget import BudgetExceededError, as_budget
from .factorize import LengthSet, catenary_degree, length_set
from .groups import AbelianGroup, parse_group
from .lsystem import (
    check_additively_closed,
    decide_length_set,
    enumerate_system,
    is_basis_plus_sum,
    sumset,
    zero_free_length_masks,
)
from .sequences import Sequence


@dataclass(frozen=True)
class Claim:
    description: str
    reference: str
    passed: bool
    computed: str
    expected: str


@dataclass(frozen=True)
class Scenario:
    id: str
    group: AbelianGroup | None
    claims: tuple[Claim, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)


def _compact(value) -> str:
    if isinstance(value, (list, tuple, set)) and len(value) > 4:
        shown = ", ".join(str(v) for v in list(value)[:4])
        return f"[{shown}, ... {len(value)} total]"
    return str(value)


class _Claims:
    def __init__(self):
        self.items: list[Claim] = []

    def check(self, description, reference, computed, expected=True):
        self.items.append(
            Claim(
                description,
                reference,
                computed == expected,
                _compact(computed),
                _compact(expected),
            )
        )

    def done(self, scenario_id, group):
        return Scenario(scenario_id, group, tuple(self.items))


class E2Gadget:
    """Canonical atoms over an elementary 2-group, built from the standard
    basis e_1..e_r and the all-ones sum e_0."""

    def __init__(self, r: int):
        if r < 1:
            raise ValueError("rank must be >= 1")
        self.r = r
        self.group = AbelianGroup([2] * r)
        self.basis = self.group.standard_basis()
        self.e0 = (1,) * r

    def e(self, i: int):
        """e_i for i in [1, r], and e_0 = e_1 + ... + e_r for i = 0."""
        return self.e0 if i == 0 else self.basis[i - 1]

    def e_I(self, subset):
        acc = self.group.zero()
        for i in subset:
            acc = self.group.add(acc, self.basis[i - 1])
        return acc

    def U_I(self, subset) -> Sequence:
        sub = set(subset)
        return Sequence(self.group, [self.e_I(sub)] + [self.basis[i - 1] for i in sorted(sub)])

    def V_I(self, subset) -> Sequence:
        sub = set(subset)
        rest = [i for i in range(0, self.r + 1) if i not in sub]
        return Sequence(self.group, [self.e_I(sub)] + [self.e(i) for i in rest])

    @property
    def V0(self) -> Sequence:
        return Sequence(self.group, [self.e(i) for i in range(0, self.r + 1)])

    def U_IJ(self, i_set, j_set) -> Sequence:
        sym = set(i_set) ^ set(j_set)
        return Sequence(
            self.group,
            [self.e_I(i_set), self.e_I(j_set)] + [self.basis[i - 1] for i in sorted(sym)],
        )

    def V_IJ(self, i_set, j_set) -> Sequence:
        sym = set(i_set) ^ set(j_set)
        rest = [i for i in range(0, self.r + 1) if i not in sym]
        return Sequence(
            self.group,
            [self.e_I(i_set), self.e_I(j_set)] + [self.e(i) for i in rest],
        )


# -- closed-form system descriptions -------------------------------------------


def _is_interval(ls: LengthSet) -> bool:
    return bool(ls) and ls.max - ls.min + 1 == len(ls)


def step_progression_member(ls: LengthSet) -> bool:
    """Membership in { y + 2k + [0,k] : y, k >= 0 }: contiguous runs whose
    start is at least twice their step count."""
    if len(ls) == 1:
        return True
    if not _is_interval(ls):
        return False
    k = ls.max - ls.min
    return ls.min >= 2 * k


def c23_form_member(ls: LengthSet) -> bool:
    """Membership in the three-family description of the rank-3 elementary
    2-group system."""
    if len(ls) == 1:
        return True
    if _is_interval(ls):
        k = ls.max - ls.min
        if k <= 2 and ls.min >= k + 1:
            return True
        if k >= 3 and ls.min >= k:
            return True
    vals = ls.values
    if all(b - a == 2 for a, b in zip(vals, vals[1:])):
        k = (ls.max - ls.min) // 2
        if ls.min >= 2 * k:
            return True
    return False


def c33_form_member(ls: LengthSet) -> bool:
    """Membership in the rank-2 elementary 3-group description: {1} plus
    intervals [2k, v] with v <= 5k and [2k+1, v] with v <= 5k+2."""
    if len(ls) == 1:
        return True  # {1} is listed, and every other singleton is a [m, m]
    if not _is_interval(ls):
        return False
    m = ls.min
    if m % 2 == 0:
        return ls.max <= 5 * (m // 2)
    k = (m - 1) // 2
    return k >= 1 and ls.max <= 5 * k + 2


# -- scenarios ---------------------------------------------------------------------


def _lengths(b: Sequence, budget) -> LengthSet:
    """L(b) on the group's atom set, so a scenario builds one atom set and
    one length memo per group, not one per support; L(b) does not depend
    on which covering atom set is used."""
    return length_set(b, atom_set_for(b.group), budget)


def _realizable(group: AbelianGroup, target: LengthSet, budget) -> bool:
    """The oracle's exact verdict on ``target``; an inconclusive answer
    raises :class:`BudgetExceededError` with phase ``decide_length_set``,
    so a budget too small never reads as a failed claim."""
    res = decide_length_set(group, target, budget)
    if res.realizable is None:
        raise BudgetExceededError(as_budget(budget).limit, res.nodes, phase="decide_length_set")
    return res.realizable


def _scenario_lemma_3_3(heavy: bool, budget) -> Scenario:
    c = _Claims()
    g = parse_group("C2xC4")
    e1, e2 = (1, 0), (0, 1)

    def seq(*elems):
        return Sequence(g, elems)

    def plus(*elems):
        acc = g.zero()
        for e in elems:
            acc = g.add(acc, e)
        return acc

    u = seq(e2, e2, e2, e1, plus(e1, e2))
    c.check(
        "U = e2^3 e1 (e1+e2) is a zero-sum atom of length 5",
        "lemma-3.3/atom-U",
        (len(u), u.is_zero_sum(), is_atom(u)),
        (5, True, True),
    )
    v1 = u
    v2 = seq(e2, e2, e2, plus(e1, e2, e2), plus(e1, g.neg(e2)))
    v3 = seq(plus(e1, e2), plus(e1, e2), plus(e1, e2), e1, e2)
    v4 = seq(plus(e1, e2), plus(e1, e2), plus(e1, e2), plus(e1, e2, e2), g.neg(e2))
    expected_max = {v1, -v1, v2, -v2, v3, -v3, v4, -v4}
    c.check(
        "the length-5 atoms are exactly the four negation pairs V1..V4",
        "lemma-3.3/maximal-atoms",
        set(atoms_of_max_length(g)) == expected_max and len(expected_max) == 8,
    )
    big_l = _lengths(u * (-u), budget)
    c.check(
        "L((-U)U) = {2,4,5}",
        "lemma-3.3/lengths",
        big_l,
        LengthSet([2, 4, 5]),
    )
    c.check(
        "{2,4,5} + {2,4,5} = {4,6,7,8,9,10}",
        "lemma-3.3/sumset",
        sumset(big_l, big_l),
        LengthSet([4, 6, 7, 8, 9, 10]),
    )

    # the four displayed refactorizations showing 5 in L((-U)U(-V)V)
    refactorizations = {
        1: [
            seq(plus(e1, e2), plus(e1, e2), e2, e2),
            seq(e2, e2, e2, e2),
            seq(e1, e1),
            -u,
            -v1,
        ],
        2: [
            seq(e2, e2, e2, e2),
            seq(plus(e1, e2), plus(e1, e2, e2), e2),
            seq(e1, plus(e1, g.neg(e2)), e2),
            -u,
            -v2,
        ],
        3: [
            seq(plus(e1, e2), plus(e1, e2), plus(e1, e2), plus(e1, e2)),
            seq(e2, e2, e2, e2),
            seq(e1, e1),
            -u,
            -v3,
        ],
        4: [
            seq(plus(e1, e2), plus(e1, e2), plus(e1, e2), plus(e1, e2)),
            seq(plus(e1, e2, e2), e2, e2, e1),
            seq(g.neg(e2), e2),
            -u,
            -v4,
        ],
    }
    for nu, (v, parts) in enumerate(
        zip((v1, v2, v3, v4), refactorizations.values()), start=1
    ):
        target = (u * (-u)) * (v * (-v))
        prod = parts[0]
        for p in parts[1:]:
            prod = prod * p
        ok_parts = all(is_atom(p) for p in parts)
        c.check(
            f"the displayed 5-part refactorization of (-U)U(-V{nu})V{nu} "
            "multiplies out and has atom parts",
            f"lemma-3.3/refactorization-{nu}",
            (ok_parts, prod == target, len(parts)),
            (True, True, 5),
        )
        c.check(
            f"5 is a length of (-U)U(-V{nu})V{nu}",
            f"lemma-3.3/five-{nu}",
            5 in _lengths(target, budget),
        )

    c.check(
        "{4,6,7,8,9,10} is not a set of lengths over C2xC4",
        "lemma-3.3/not-realizable",
        _realizable(g, LengthSet([4, 6, 7, 8, 9, 10]), budget),
        False,
    )
    return c.done("lemma-3.3", g)


def structural_max_atoms_c55(group: AbelianGroup) -> set[Sequence]:
    """All length-9 atoms over C5xC5 generated from the structural shape
    f1^4 (a1 f1 + f2) ... (a5 f1 + f2) over all ordered bases and
    coefficient multisets."""
    elems = group.elements()
    add = group.add_table()
    size = group.order()
    candidates: set[tuple] = set()
    nonzero = [i for i in range(size) if i != 0]
    for f1 in nonzero:
        span = group.span_indices([f1])
        coset_reps = [j for j in nonzero if j not in span]
        # c_a = a*f1 + f2 as indices, for each basis partner f2
        mults = {}
        for f2 in coset_reps:
            cs = []
            acc = f2
            for _ in range(5):
                cs.append(acc)
                acc = add[acc * size + f1]
            # cs[a] = a*f1 + f2
            for combo in itertools.combinations_with_replacement(range(5), 5):
                if sum(combo) % 5 != 1:
                    continue  # zero-sum needs a1+...+a5 = -4 = 1 mod 5
                counts: dict[int, int] = {f1: 4}
                for a in combo:
                    counts[cs[a]] = counts.get(cs[a], 0) + 1
                candidates.add(tuple(sorted(counts.items())))
    out = set()
    for pairs in candidates:
        s = Sequence._from_index_pairs(group, pairs)
        if is_atom(s):
            out.add(s)
    return out


def _scenario_lemma_3_4_light(heavy: bool, budget) -> Scenario:
    c = _Claims()
    g = parse_group("C5xC5")
    e1, e2 = (1, 0), (0, 1)
    u = Sequence(g, [e1] * 4 + [e2] * 4 + [(1, 1)])
    c.check(
        "L((-U)U) = {2,5,8,9} for U = e1^4 e2^4 (e1+e2)",
        "lemma-3.4/lengths",
        _lengths(u * (-u), budget),
        LengthSet([2, 5, 8, 9]),
    )
    structural = structural_max_atoms_c55(g)
    c.check(
        "the structural shape produces length-9 atoms",
        "lemma-3.4/structural-count",
        len(structural) > 0 and all(len(w) == 9 for w in structural),
    )
    c.check(
        "the structural atom set is closed under negation",
        "lemma-3.4/negation-closed",
        all(-w in structural for w in structural),
    )
    bad = 0
    for w in structural:
        if 3 not in _lengths(w * w, budget):
            bad += 1
    c.check(
        "3 is a length of W^2 for every structural length-9 atom W "
        "[finite instance of an asymptotic claim]",
        "lemma-3.4/three-in-square",
        bad,
        0,
    )
    if heavy:
        full = set(atoms_of_max_length(g))
        c.check(
            "full enumeration confirms the structural set is exactly the "
            "length-9 atoms",
            "lemma-3.4/full-enumeration",
            structural == full and davenport(g) == 9,
        )
    return c.done("lemma-3.4-light", g)


def _both_direction_system_claims(
    c: _Claims,
    ref_prefix: str,
    group: AbelianGroup,
    bound: int,
    member_fn,
    instances,
    budget,
):
    system = enumerate_system(group, None, "seq_length", bound, budget)
    offenders = [ls for ls in system.length_sets() if not member_fn(ls)]
    c.check(
        f"every set observed at sequence-length bound {bound} matches the closed form",
        f"{ref_prefix}/observed-in-form",
        offenders,
        [],
    )
    missing = [inst for inst in instances if not _realizable(group, inst, budget)]
    c.check(
        "every small closed-form instance is realizable (exact oracle)",
        f"{ref_prefix}/form-realized",
        missing,
        [],
    )


def _scenario_prop_el2_r2(heavy: bool, budget) -> Scenario:
    c = _Claims()
    g = AbelianGroup([2, 2])
    instances = [
        LengthSet(range(y + 2 * k, y + 3 * k + 1))
        for y in range(0, 4)
        for k in range(0, 3)
        if y + k > 0
    ]
    _both_direction_system_claims(
        c, "el2-r2", g, 12, step_progression_member, instances, budget
    )
    return c.done("prop-el2-r2", g)


def _scenario_prop_el2_r3(heavy: bool, budget) -> Scenario:
    c = _Claims()
    g = AbelianGroup([2, 2, 2])
    instances = []
    for y in range(0, 3):
        for k in range(0, 3):
            if y + k > 0:
                instances.append(LengthSet(range(y + k + 1, y + 2 * k + 2)))
    for y in range(0, 2):
        for k in (3, 4):
            instances.append(LengthSet(range(y + k, y + 2 * k + 1)))
    for y in range(0, 3):
        for k in range(1, 3):
            instances.append(LengthSet(y + 2 * k + 2 * j for j in range(k + 1)))
    _both_direction_system_claims(
        c, "el2-r3", g, 12, c23_form_member, instances, budget
    )
    return c.done("prop-el2-r3", g)


def _lem_length_claims(r: int, budget) -> Scenario:
    c = _Claims()
    gad = E2Gadget(r)
    subsets = [
        frozenset(s)
        for size in range(2, r + 1)
        for s in itertools.combinations(range(1, r + 1), size)
    ]
    bad: list[str] = []
    for i_set in subsets:
        for j_set in subsets:
            inter = i_set & j_set
            union = i_set | j_set
            # products of the canonical atom gadgets
            uu = _lengths(gad.U_I(i_set) * gad.U_I(j_set), budget)
            expected_uu = (
                LengthSet([2, 1 + len(inter)]) if inter else LengthSet([2])
            )
            if uu != expected_uu:
                bad.append(f"UU {sorted(i_set)},{sorted(j_set)}: {uu}")
            delta = 0 if inter else 1
            vv = _lengths(gad.V_I(i_set) * gad.V_I(j_set), budget)
            expected_vv = LengthSet([2, 1 + delta + r + 1 - len(union)])
            if vv != expected_vv:
                bad.append(f"VV {sorted(i_set)},{sorted(j_set)}: {vv}")
            delta_uv = 0 if (not i_set <= j_set and not j_set <= i_set) else 1
            uv = _lengths(gad.U_I(i_set) * gad.V_I(j_set), budget)
            expected_uv = LengthSet([2, 1 + delta_uv + len(i_set - j_set)])
            if uv != expected_uv:
                bad.append(f"UV {sorted(i_set)},{sorted(j_set)}: {uv}")
    c.check(
        f"all three product length-set formulas hold for every admissible "
        f"(I, J) over rank {r}",
        f"lem-length-r{r}/formulas",
        bad,
        [],
    )
    return c.done(f"lem-length-r{r}", gad.group)


def _independent_mod2(rows) -> bool:
    """``AbelianGroup.is_independent`` over an elementary 2-group, for
    elements given as coordinate bitmasks (coordinate j is bit j): the
    rows are linearly independent over GF(2), decided by elimination
    instead of building their span."""
    pivots: dict[int, int] = {}  # leading bit -> reduced row
    for row in rows:
        while row and row.bit_length() in pivots:
            row ^= pivots[row.bit_length()]
        if not row:
            return False
        pivots[row.bit_length()] = row
    return bool(pivots)


def _scenario_lemma_3_5(heavy: bool, budget) -> Scenario:
    c = _Claims()
    rng = random.Random(20260811)
    for r in (3, 4, 5):
        gad = E2Gadget(r)
        g = gad.group
        for s in range(2, r + 1):
            u = Sequence(
                g, [gad.basis[i] for i in range(s)] + [gad.e_I(range(1, s + 1))]
            )
            ok = True
            for k in (1, 2, 3):
                expected = LengthSet(2 * k + (s - 1) * j for j in range(k + 1))
                if _lengths(u ** (2 * k), budget) != expected:
                    ok = False
            c.check(
                f"L(U^2k) = 2k + (s-1)[0,k] for k in [1,3], r={r}, s={s}",
                f"lemma-3.5/power-lengths-r{r}-s{s}",
                ok,
            )
        aset = atom_set_for(g)
        bit_rows = [sum(x << j for j, x in enumerate(e)) for e in g.elements()]
        bad_independence = 0
        for sp in aset.atoms_sparse:
            if len(sp) < 3 or any(m > 1 for _, m in sp):
                continue  # a squarefree atom has one pair per element
            rows = [bit_rows[i] for i, _ in sp]
            for omit in range(len(rows)):
                rest = rows[:omit] + rows[omit + 1 :]
                total = 0  # sum(rest): addition in C2^r is XOR of bitmasks
                for row in rest:
                    total ^= row
                if not (_independent_mod2(rest) and total == rows[omit]):
                    bad_independence += 1
        c.check(
            f"every squarefree atom over rank {r} is an independent tuple "
            "plus its sum, whichever element is set aside",
            f"lemma-3.5/independence-r{r}",
            bad_independence,
            0,
        )
        nonzero = [e for e in g.elements() if e != g.zero()]
        violations = []
        found = 0
        attempts = 0
        while found < 25 and attempts < 600:
            attempts += 1
            size = rng.randint(3, min(len(nonzero), 2 * r + 2))
            subset = rng.sample(nonzero, size)
            a = Sequence(g, subset)
            if not a.is_zero_sum():
                continue
            found += 1
            cat = catenary_degree(a, aset, budget=budget)
            deltas = _lengths(a, budget).delta()
            max_delta = max(deltas) if deltas else 0
            if cat > r or max_delta > max(0, r - 2):
                violations.append(str(a))
        c.check(
            f"c(A) <= {r} and max gap <= {r - 2} on {found} random squarefree "
            f"zero-sum sequences over rank {r} (seeded)",
            f"lemma-3.5/squarefree-bounds-r{r}",
            violations,
            [],
        )
    return c.done("lemma-3.5", None)


def _scenario_lemma_3_5_2(heavy: bool, budget) -> Scenario:
    c = _Claims()
    for r, bound in ((3, 10), (4, 10)):
        g = AbelianGroup([2] * r)
        mismatches: list[str] = []
        shapes: dict[tuple[int, ...], bool] = {}  # nonzero support -> basis plus its sum
        # 0^k B' has the gaps and the nonzero support of B': zero-free B' suffice
        for counts, mask in zero_free_length_masks(atom_set_for(g), bound, budget):
            if mask & (mask - 1) == 0:
                continue  # the equivalence is stated for A with a nonempty gap set
            has_gap = (r - 1) in LengthSet.from_mask(mask).delta()
            supp = tuple(i for i, m in enumerate(counts) if m)
            if supp not in shapes:
                shapes[supp] = is_basis_plus_sum(g, [g.element(i) for i in supp])
            if has_gap != shapes[supp]:
                pairs = tuple((i, counts[i]) for i in supp)
                mismatches.append(str(Sequence._from_index_pairs(g, pairs)))
        c.check(
            f"over rank {r}, a gap of {r - 1} occurs in L(A) exactly when the "
            f"nonzero support is a basis plus its sum (all |A| <= {bound})",
            f"lemma-3.5_2/gap-characterization-r{r}",
            mismatches,
            [],
        )
        c.check(
            f"rank {r}: products with the full-basis atom split through "
            "either middle-weight gadget with short cofactors",
            f"lemma-3.5_2/split-bounds-r{r}",
            _minfact_split_violations(r, budget),
            [],
        )
    return c.done("lemma-3.5_2", None)


def _minfact_split_violations(r: int, budget) -> list[str]:
    """For every atom A containing a middle-weight element e_I, the product
    A*V0 decomposes as V_I*B and as U_I*B' with max L(B) <= |I| and
    max L(B') <= r + 1 - |I|."""
    gad = E2Gadget(r)
    g = gad.group
    v0 = gad.V0
    bad: list[str] = []
    for a in atom_set_for(g).atoms:
        if len(a) < 2:
            continue
        for e in a.support():
            weight = sum(e)
            if not 2 <= weight <= r - 1:
                continue
            i_set = [i + 1 for i, c in enumerate(e) if c]
            target = a * v0
            f = a.quotient(Sequence(g, [e]))
            b = Sequence(g, [gad.basis[i - 1] for i in i_set]) * f
            b_prime = (
                Sequence(g, [gad.basis[i - 1] for i in range(1, r + 1) if i not in i_set])
                * Sequence(g, [gad.e0])
                * f
            )
            ok = (
                gad.V_I(i_set) * b == target
                and gad.U_I(i_set) * b_prime == target
                and _lengths(b, budget).max <= len(i_set)
                and _lengths(b_prime, budget).max <= r + 1 - len(i_set)
            )
            if not ok:
                bad.append(f"{a} via weight-{weight} element {e}")
    return bad


def _scenario_prop_3_8_r2(heavy: bool, budget) -> Scenario:
    c = _Claims()
    g = parse_group("C3xC3")
    e1, e2 = (1, 0), (0, 1)
    e0 = g.add(e1, e2)
    u = Sequence(g, [e1, e1, e2, e2, e0])
    w3 = Sequence(g, [e1, e2, g.neg(e0)])
    w4 = Sequence(g, [e1, e1, e2, g.add(e1, g.neg(e2))])
    c.check(
        "L((-U)U) = [2,5] for U = e1^2 e2^2 e0",
        "prop-3.8/r2-U",
        _lengths(u * (-u), budget),
        LengthSet([2, 3, 4, 5]),
    )
    c.check(
        "L((-W3)W3) = [2,3] for W3 = e1 e2 (-e0)",
        "prop-3.8/r2-W3",
        _lengths(w3 * (-w3), budget),
        LengthSet([2, 3]),
    )
    c.check(
        "L((-W4)W4) = [2,4] for W4 = e1^2 e2 (e1-e2)",
        "prop-3.8/r2-W4",
        _lengths(w4 * (-w4), budget),
        LengthSet([2, 3, 4]),
    )
    pairs_u = u * (-u)
    c.check(
        "L((-U)^2 U^2) = [4,10]",
        "prop-3.8/r2-k2",
        _lengths(pairs_u * pairs_u, budget),
        LengthSet(range(4, 11)),
    )
    c.check(
        "L((-U)U(-W3)W3) = [4,8]",
        "prop-3.8/r2-UW3",
        _lengths(pairs_u * (w3 * (-w3)), budget),
        LengthSet(range(4, 9)),
    )
    c.check(
        "L((-U)U(-W4)W4) = [4,9]",
        "prop-3.8/r2-UW4",
        _lengths(pairs_u * (w4 * (-w4)), budget),
        LengthSet(range(4, 10)),
    )
    zeros2 = Sequence(g, [g.zero(), g.zero()])
    c.check(
        "L(0^2 (-U)U) = [4,7]: padding shifts by the number of zeros",
        "prop-3.8/r2-shift",
        _lengths(zeros2 * pairs_u, budget),
        LengthSet(range(4, 8)),
    )
    odd = [LengthSet(range(2 * k + 1, 5 * k + 3)) for k in (1, 2)]
    odd_missing = [inst for inst in odd if not _realizable(g, inst, budget)]
    c.check(
        "the maximal odd-minimum intervals [2k+1, 5k+2] are realizable for "
        "k in [1,2]",
        "prop-3.8/r2-odd",
        odd_missing,
        [],
    )
    instances = []
    for k in range(0, 3):
        for nu in range(2 * k, 5 * k + 1):
            instances.append(LengthSet(range(2 * k, nu + 1)))
    for k in range(1, 3):
        for nu in range(2 * k + 1, 5 * k + 3):
            instances.append(LengthSet(range(2 * k + 1, nu + 1)))
    instances = sorted({i for i in instances if i.min >= 1}, key=lambda s: s.values)
    _both_direction_system_claims(
        c, "prop-3.8/r2-system", g, 12, c33_form_member, instances, budget
    )
    return c.done("prop-3.8-r2", g)


def _scenario_prop_3_9(heavy: bool, budget) -> Scenario:
    c = _Claims()
    for spec in ("C2xC4", "C2xC6", "C4xC4"):
        g = parse_group(spec)
        n = g.exponent()
        d0 = 1 + sum(ni // 2 for ni in g.invariant_factors)
        top = max(n, d0)
        missing = [
            d for d in range(3, top + 1) if not _realizable(g, LengthSet([2, d]), budget)
        ]
        c.check(
            f"{{2,d}} is a set of lengths over {g} for every d in [3, {top}]",
            f"prop-3.9/two-d-{spec}",
            missing,
            [],
        )
    return c.done("prop-3.9-witnesses", None)


THEOREM_TABLE = (
    ("C1", "CLOSED-AT-BOUND"),
    ("C2", "CLOSED-AT-BOUND"),
    ("C3", "CLOSED-AT-BOUND"),
    ("C4", "CLOSED-AT-BOUND"),
    ("C5", "NOT-CLOSED"),
    ("C2xC2", "CLOSED-AT-BOUND"),
    ("C2xC2xC2", "CLOSED-AT-BOUND"),
    ("C3xC3", "CLOSED-AT-BOUND"),
    ("C2xC4", "NOT-CLOSED"),
)


def _scenario_theorem_table(heavy: bool, budget) -> Scenario:
    c = _Claims()
    for spec, expected in THEOREM_TABLE:
        g = parse_group(spec)
        report = check_additively_closed(g, bound=12, budget=budget)
        c.check(
            f"additive closure verdict for {spec} at bound 12",
            f"theorem-table/{spec}",
            report.verdict,
            expected,
        )
        if report.verdict == "NOT-CLOSED":
            c.check(
                f"{spec}: the failing sumset is the sum of its witness pair",
                f"theorem-table/{spec}-witness",
                report.witness_pair[0] + report.witness_pair[1],
                report.failed_sumset,
            )
    if heavy:
        gad = E2Gadget(4)
        g = gad.group
        u = Sequence(g, [gad.basis[0], gad.basis[1], gad.basis[2], gad.e_I((1, 2, 3))])
        left = u ** 4
        right = gad.V0 ** 2
        l_left = _lengths(left, budget)
        l_right = _lengths(right, budget)
        c.check(
            "rank 4: the construction sets are {4,6,8} and {2,5}",
            "theorem-table/C2^4-construction",
            (l_left, l_right),
            (LengthSet([4, 6, 8]), LengthSet([2, 5])),
        )
        report = check_additively_closed(
            g,
            bound=8,
            budget=budget,
            extra_sets=((l_left, left), (l_right, right)),
            priority_pairs=((l_left, l_right),),
        )
        c.check(
            "additive closure verdict for C2^4 (construction pair first)",
            "theorem-table/C2^4",
            report.verdict,
            "NOT-CLOSED",
        )
    return c.done("theorem-1.1-table", None)


SCENARIOS = {
    "lemma-3.3": _scenario_lemma_3_3,
    "lemma-3.4-light": _scenario_lemma_3_4_light,
    "prop-el2-r2": _scenario_prop_el2_r2,
    "prop-el2-r3": _scenario_prop_el2_r3,
    "lem-length-r4": lambda heavy, budget: _lem_length_claims(4, budget),
    "lem-length-r5": lambda heavy, budget: _lem_length_claims(5, budget),
    "lemma-3.5": _scenario_lemma_3_5,
    "lemma-3.5_2": _scenario_lemma_3_5_2,
    "prop-3.8-r2": _scenario_prop_3_8_r2,
    "prop-3.9-witnesses": _scenario_prop_3_9,
    "theorem-1.1-table": _scenario_theorem_table,
}


def scenario_ids() -> tuple[str, ...]:
    return tuple(SCENARIOS)


def run_scenario(scenario_id: str, heavy: bool = False, budget=None) -> Scenario:
    fn = SCENARIOS.get(scenario_id)
    if fn is None:
        raise ValueError(
            f"unknown scenario {scenario_id!r}; known: {', '.join(SCENARIOS)}"
        )
    return fn(heavy, budget)


def run_all(heavy: bool = False, budget=None) -> list[Scenario]:
    return [run_scenario(sid, heavy, budget) for sid in SCENARIOS]

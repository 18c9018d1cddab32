"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``; add ``--heavy`` (or set
ZSLEN_HEAVY=1) for the full-scale paths: the order-25 atom enumeration and
the rank-4 elementary 2-group closure verdict.
"""

import itertools
import json
import time
from collections import Counter
from fractions import Fraction

import pytest

from zslen.budget import Budget
from zslen.groups import AbelianGroup, parse_group
from zslen.sequences import Sequence, parse_sequence
from zslen.atoms import atom_set_for, atoms_of_max_length, davenport
from zslen.factorize import (
    LengthSet,
    catenary_degree,
    factorization_index_lists,
    length_mask,
    length_set,
)
from zslen.lsystem import (
    check_additively_closed,
    decide_length_set,
    delta_star_bounded,
    enumerate_system,
    minimal_aamp_bound,
    rho_k,
)
from zslen.verify import (
    E2Gadget,
    c23_form_member,
    c33_form_member,
    run_scenario,
    step_progression_member,
)
from zslen.cli import main as cli_main

BUDGET = 5_000_000


def _report(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def test_criterion_01_davenport_constants(heavy):
    for n in range(2, 10):
        assert davenport(parse_group(f"C{n}")) == n
    for r in range(1, 5):
        assert davenport(AbelianGroup([2] * r)) == r + 1
    assert davenport(parse_group("C2xC4")) == 5
    assert davenport(parse_group("C3xC3")) == 5
    if heavy:
        assert davenport(parse_group("C5xC5")) == 9
    else:
        print("(criterion 1: C5xC5 runs under --heavy)")
    _report(1, "Davenport constants")


def test_criterion_02_lemma_3_3_end_to_end():
    g = parse_group("C2xC4")
    u = parse_sequence(g, "(0,1)^3 (1,0) (1,1)")
    top = atoms_of_max_length(g)
    assert len(top) == 8 and {(-a) for a in top} == set(top)
    sc = run_scenario("lemma-3.3", budget=BUDGET)
    assert sc.passed, [c.reference for c in sc.claims if not c.passed]
    assert length_set(u * (-u)) == LengthSet([2, 4, 5])
    for v in top:
        assert 5 in length_set((u * (-u)) * (v * (-v)))
    start = time.time()
    res = decide_length_set(g, LengthSet([4, 6, 7, 8, 9, 10]), budget=BUDGET)
    elapsed = time.time() - start
    assert res.realizable is False
    assert res.nodes <= BUDGET
    assert elapsed < 60.0
    _report(2, "rank-2 mixed group end-to-end")


def test_criterion_03_system_formulas():
    budget = BUDGET
    cases = [
        ("C3", step_progression_member,
         [LengthSet(range(y + 2 * k, y + 3 * k + 1))
          for y in range(0, 4) for k in range(0, 4) if y + k > 0]),
        ("C2xC2", step_progression_member,
         [LengthSet(range(y + 2 * k, y + 3 * k + 1))
          for y in range(0, 4) for k in range(0, 3) if y + k > 0]),
        ("C2xC2xC2", c23_form_member,
         [LengthSet(range(y + k + 1, y + 2 * k + 2))
          for y in range(0, 3) for k in range(0, 3) if y + k > 0]
         + [LengthSet(range(y + k, y + 2 * k + 1)) for y in (0, 1) for k in (3, 4)]
         + [LengthSet(y + 2 * k + 2 * j for j in range(k + 1))
            for y in range(0, 3) for k in (1, 2)]),
        ("C3xC3", c33_form_member,
         [LengthSet(range(2 * k, nu + 1))
          for k in (1, 2) for nu in range(2 * k, 5 * k + 1)]
         + [LengthSet(range(2 * k + 1, nu + 1))
            for k in (1, 2) for nu in range(2 * k + 1, 5 * k + 3)]),
    ]
    for spec, member, instances in cases:
        g = parse_group(spec)
        system = enumerate_system(g, bound=12)
        outside = [ls for ls in system.length_sets() if not member(ls)]
        assert not outside, f"{spec}: observed sets outside the closed form: {outside}"
        for inst in instances:
            res = decide_length_set(g, inst, budget)
            assert res.realizable is True, f"{spec}: instance {inst} not realized"
            assert length_set(res.witness) == inst
    _report(3, "closed-form systems in both directions")


def test_criterion_04_theorem_verdict_table(heavy):
    expected = {
        "C1": "CLOSED-AT-BOUND",
        "C2": "CLOSED-AT-BOUND",
        "C3": "CLOSED-AT-BOUND",
        "C4": "CLOSED-AT-BOUND",
        "C5": "NOT-CLOSED",
        "C6": "NOT-CLOSED",
        "C2xC2": "CLOSED-AT-BOUND",
        "C2xC2xC2": "CLOSED-AT-BOUND",
        "C3xC3": "CLOSED-AT-BOUND",
        "C2xC4": "NOT-CLOSED",
    }
    for spec, verdict in expected.items():
        report = check_additively_closed(parse_group(spec), bound=12, budget=BUDGET)
        assert report.verdict == verdict, f"{spec}: {report.verdict} != {verdict}"
        if verdict == "NOT-CLOSED":
            left, right = report.witness_pair
            assert left + right == report.failed_sumset
            confirm = decide_length_set(parse_group(spec), report.failed_sumset, BUDGET)
            assert confirm.realizable is False
    if heavy:
        gad = E2Gadget(4)
        u = Sequence(
            gad.group, [gad.basis[0], gad.basis[1], gad.basis[2], gad.e_I((1, 2, 3))]
        )
        left, right = u ** 4, gad.V0 ** 2
        l_left, l_right = length_set(left), length_set(right)
        assert (l_left, l_right) == (LengthSet([4, 6, 8]), LengthSet([2, 5]))
        report = check_additively_closed(
            gad.group,
            bound=8,
            budget=50_000_000,
            symmetry=True,
            extra_sets=((l_left, left), (l_right, right)),
            priority_pairs=((l_left, l_right),),
        )
        assert report.verdict == "NOT-CLOSED"
        assert report.failed_sumset == l_left + l_right
    else:
        print("(criterion 4: the rank-4 elementary 2-group runs under --heavy)")
    _report(4, "additive-closure verdict table")


def test_criterion_05_rho_and_elasticity():
    for spec in ("C3xC3", "C2xC4"):
        g = parse_group(spec)
        d = davenport(g)
        assert rho_k(g, 2) == d
        assert rho_k(g, 4) == 2 * d
        from zslen.lsystem import elasticity

        assert elasticity(g) == Fraction(d, 2)
    assert rho_k(parse_group("C3xC3"), 3) == 7

    from zslen.lsystem import extremal_elasticity_decomposition

    g24 = parse_group("C2xC4")
    u = parse_sequence(g24, "(0,1)^3 (1,0) (1,1)")
    got = extremal_elasticity_decomposition(u * (-u))
    assert got is not None and len(got) == 1 and got[0] in (u, -u)

    g33 = parse_group("C3xC3")
    u33 = parse_sequence(g33, "(1,0)^2 (0,1)^2 (1,1)")
    got33 = extremal_elasticity_decomposition(u33 * (-u33))
    assert got33 is not None and len(got33) == 1 and got33[0] in (u33, -u33)
    _report(5, "rho_k values and elasticity")


def _zero_sum_counts(group, max_len):
    """All multiplicity vectors of zero-sum sequences with |B| <= max_len."""
    size = group.order()
    add = group.add_table()
    counts = [0] * size
    out = []

    def rec(pos, depth, sig):
        if sig == 0:
            out.append(tuple(counts))
        if depth == max_len:
            return
        for p in range(pos, size):
            counts[p] += 1
            rec(p, depth + 1, add[sig * size + p])
            counts[p] -= 1

    rec(0, 0, 0)
    return out


def _bottleneck_threshold(dist, n):
    """Minimax connection threshold on a complete graph whose distances
    come from ``dist(i, j)``, i < j; independent Prim-style computation
    that asks for each pair exactly once."""
    in_tree = [False] * n
    best = [None] * n
    best[0] = 0
    answer = 0
    for _ in range(n):
        pick, pick_d = -1, None
        for v in range(n):
            if not in_tree[v] and best[v] is not None:
                if pick < 0 or best[v] < pick_d:
                    pick, pick_d = v, best[v]
        in_tree[pick] = True
        answer = max(answer, pick_d)
        for v in range(n):
            if not in_tree[v]:
                d = dist(pick, v) if pick < v else dist(v, pick)
                if best[v] is None or d < best[v]:
                    best[v] = d
    return answer


def _counter_distances(zs, check_gap):
    """``dist(i, j)`` over the factorizations ``zs``: with part-count dicts
    built once per factorization, d = max(|z|, |z'|) - sum of the smaller
    count of each common part.  ``dist.asked`` counts the pairs it is asked
    for; with ``check_gap`` it also asserts that distinct factorizations
    are at least 2 + their length gap apart."""
    from collections import Counter

    parts = [Counter(z) for z in zs]

    def dist(i, j):
        dist.asked += 1
        other = parts[j]
        common = sum(min(c, other[a]) for a, c in parts[i].items() if a in other)
        d = max(len(zs[i]), len(zs[j])) - common
        if check_gap:
            assert d >= 2 + abs(len(zs[i]) - len(zs[j]))
        return d

    dist.asked = 0
    return dist


def test_criterion_06_distance_catenary_corpus():
    groups = ["C2", "C3", "C4", "C5", "C6", "C7", "C8", "C2xC2", "C2xC2xC2", "C2xC4"]
    checked_seqs = 0
    sampled_cross_checks = 0
    for spec in groups:
        g = parse_group(spec)
        aset = atom_set_for(g)
        atom_lengths = [len(a) for a in aset.atoms]
        bud = Budget(None)
        for idx, counts in enumerate(_zero_sum_counts(g, 10)):
            zs = factorization_index_lists(aset, counts)
            checked_seqs += 1
            lengths = LengthSet(len(z) for z in zs)
            # memoized length sets agree with materialized factorizations
            assert LengthSet.from_mask(length_mask(aset, counts, bud)) == lengths
            if len(zs) < 2:
                continue
            # distinct factorizations are at least 2 + length gap apart
            dist = _counter_distances(zs, check_gap=True)
            cat = _bottleneck_threshold(dist, len(zs))
            assert dist.asked == len(zs) * (len(zs) - 1) // 2
            deltas = lengths.delta()
            if deltas:
                assert 2 + max(deltas) <= cat
            assert cat <= lengths.max
            if idx % 97 == 0:
                seq = Sequence._from_index_pairs(
                    g, tuple((i, c) for i, c in enumerate(counts) if c)
                )
                assert catenary_degree(seq) == cat
                sampled_cross_checks += 1
        del atom_lengths
    # squarefree bounds over the rank-3 and rank-4 elementary 2-groups
    for r in (3, 4):
        g = AbelianGroup([2] * r)
        aset = atom_set_for(g)
        elems = g.elements()
        nonzero = list(range(1, len(elems)))
        for bits in range(1 << len(nonzero)):
            subset = [nonzero[i] for i in range(len(nonzero)) if (bits >> i) & 1]
            if not subset:
                continue
            total = 0
            for i in subset:
                total = g.add_index(total, i)
            if total != 0:
                continue
            counts = tuple(1 if i in set(subset) else 0 for i in range(len(elems)))
            zs = factorization_index_lists(aset, counts)
            lengths = LengthSet(len(z) for z in zs)
            deltas = lengths.delta()
            if deltas:
                assert max(deltas) <= r - 2
            if len(zs) >= 2:
                dist = _counter_distances(zs, check_gap=False)
                assert _bottleneck_threshold(dist, len(zs)) <= r
                assert dist.asked == len(zs) * (len(zs) - 1) // 2
    print(f"(criterion 6: {checked_seqs} sequences, "
          f"{sampled_cross_checks} catenary cross-checks)")
    _report(6, "distance and catenary properties on exhaustive corpora")


def _naive_realizable_family(group):
    """Independent oracle for criterion 7: all L(B) over the full sequence
    space |B| <= 3*D(G), computed with a local packed-integer DP."""
    aset = atom_set_for(group)
    d = aset.max_len
    bound = 3 * d
    size = group.order()
    add = group.add_table()
    shift = 6  # fields of 6 bits, values stay below 32
    guard_bit = 1 << 5
    guards = 0
    for i in range(size):
        guards |= guard_bit << (shift * i)
    atom_keys = []
    for sp in aset.atoms_sparse:
        k = 0
        for i, m in sp:
            k += m << (shift * i)
        atom_keys.append(k)

    layers: dict[int, list[int]] = {}

    def rec(pos, depth, sig, key):
        if sig == 0:
            layers.setdefault(depth, []).append(key)
        if depth == bound:
            return
        for p in range(pos, size):
            rec(p, depth + 1, add[sig * size + p], key + (1 << (shift * p)))

    rec(0, 0, 0, 0)
    memo = {0: 1}
    family: dict[int, int] = {}  # length mask -> witness key
    for depth in sorted(layers):
        if depth == 0:
            family.setdefault(1, 0)
            continue
        for key in layers[depth]:
            mask = 0
            for ak in atom_keys:
                if (((key | guards) - ak) & guards) == guards:
                    mask |= memo[key - ak] << 1
            memo[key] = mask
            family.setdefault(mask, key)
    return family, size, shift


def test_criterion_07_oracle_equivalence():
    budget = BUDGET
    disagreements = []
    total_positive = 0
    total_negative = 0
    for spec in ["C2", "C3", "C4", "C5", "C6", "C7", "C8",
                 "C2xC2", "C2xC2xC2", "C2xC4"]:
        g = parse_group(spec)
        family, size, shift = _naive_realizable_family(g)
        realized = set()
        for mask in family:
            ls = LengthSet.from_mask(mask)
            if ls and 1 <= ls.min <= 3:
                realized.add(ls)
        for ls in sorted(realized, key=lambda s: s.values):
            res = decide_length_set(g, ls, budget)
            total_positive += 1
            if res.realizable is not True or length_set(res.witness) != ls:
                disagreements.append((spec, ls, "expected realizable"))
        # deterministic near-miss candidates that the naive search rules out
        candidates = set()
        for ls in sorted(realized, key=lambda s: s.values):
            vals = list(ls)
            candidates.add(LengthSet(vals + [ls.max + 1]))
            candidates.add(LengthSet(vals + [ls.max + 2]))
            for gap in range(ls.min + 1, ls.max):
                if gap not in ls:
                    candidates.add(LengthSet(vals + [gap]))
                    break
            if len(vals) > 1:
                candidates.add(LengthSet(vals[:-1] + [ls.max + 1]))
        candidates = [
            c for c in sorted(candidates, key=lambda s: s.values)
            if c not in realized and c.min <= 3 and c.min >= 1
        ][:60]
        for cand in candidates:
            res = decide_length_set(g, cand, budget)
            total_negative += 1
            if res.realizable is not False:
                disagreements.append((spec, cand, "expected not realizable"))
    assert not disagreements, disagreements
    print(f"(criterion 7: {total_positive} positives, {total_negative} negatives)")
    _report(7, "oracle equivalence against full-sequence-space search")


def test_criterion_08_product_length_formulas():
    for sid in ("lem-length-r4", "lem-length-r5"):
        sc = run_scenario(sid, budget=BUDGET)
        assert sc.passed, [c.computed for c in sc.claims if not c.passed]
    _report(8, "two-gadget product formulas at ranks 4 and 5")


def test_criterion_09_aamp_structure():
    for spec in ("C3xC3", "C2xC4", "C2xC2xC2"):
        g = parse_group(spec)
        report = delta_star_bounded(g, bound=10, budget=BUDGET)
        assert report.max_estimate() == max(g.exponent() - 2, g.rank() - 1)
        d_values = report.values()
        system = enumerate_system(g, bound=12)
        worst = 0
        for ls in system.length_sets():
            best = None
            for d in d_values:
                m = minimal_aamp_bound(ls, d)
                if m is not None and (best is None or m < best):
                    best = m
            assert best is not None, f"{spec}: {ls} fits no difference in {d_values}"
            worst = max(worst, best)
        print(f"(criterion 9: {spec} needs fringe bound at most {worst} "
              f"for differences {list(d_values)})")
    _report(9, "progression structure with bounded fringes")


def test_criterion_10_determinism(capsys):
    commands = [
        ("decide", "--group", "C2xC4", "--set", "2,4,5", "--json"),
        ("decide", "--group", "C2xC4", "--set", "4,6,7,8,9,10", "--json"),
        ("closed", "--group", "C2xC4", "--bound", "10", "--json"),
        ("closed", "--group", "C3xC3", "--bound", "10", "--json"),
        ("rho", "--group", "C3xC3", "--k", "3", "--json"),
        ("atoms", "--group", "C3xC3", "--json"),
        ("system", "--group", "C2xC4", "--bound", "8", "--json"),
        ("lengths", "--group", "C2xC4",
         "--seq", "(0,1)^3 (1,0) (1,1) (0,3)^3 (1,0) (1,3)", "--json"),
        ("davenport", "--group", "C2xC4", "--json"),
        ("aamp", "--set", "2,5,8,9", "--d", "3", "--M", "1", "--json"),
    ]
    symmetry_capable = {"decide", "closed", "rho", "atoms"}
    for argv in commands:
        outputs = set()
        for threads in ("1", "4", "8"):
            variants = [()]
            if argv[0] in symmetry_capable:
                variants.append(("--symmetry",))
            for extra in variants:
                code = cli_main(list(argv) + ["--threads", threads] + list(extra))
                captured = capsys.readouterr().out
                assert code == 0, argv
                outputs.add(captured)
        assert len(outputs) == 1, f"{argv[0]}: outputs diverge across settings"
        json.loads(next(iter(outputs)))
    _report(10, "byte-identical output across workers and reduction modes")

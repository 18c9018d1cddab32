"""Command-line surface: output schemas, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from zslen import atoms
from zslen.budget import Budget
from zslen.cli import main
from zslen.groups import parse_group
from zslen.lsystem import enumerate_system


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lengths_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "lengths",
        "--group", "C2xC4",
        "--seq", "(0,1)^3 (1,0) (1,1) (0,3)^3 (1,0) (1,3)",
    )
    assert code == 0
    assert out.strip() == "{2,4,5}"


def test_decide_not_realizable(capsys):
    code, out, _ = run_cli(
        capsys, "decide", "--group", "C2xC4", "--set", "4,6,7,8,9,10"
    )
    assert code == 0
    assert out.strip() == "not realizable"


def test_decide_expectation_exit_code(capsys):
    code, _, _ = run_cli(
        capsys,
        "decide", "--group", "C2xC4", "--set", "4,6,7,8,9,10",
        "--expect", "realizable",
    )
    assert code == 1
    code2, _, _ = run_cli(
        capsys,
        "decide", "--group", "C2xC4", "--set", "4,6,7,8,9,10",
        "--expect", "not-realizable",
    )
    assert code2 == 0


def test_davenport_command(capsys):
    code, out, _ = run_cli(capsys, "davenport", "--group", "C2xC4")
    assert code == 0 and out.strip() == "5"
    # the atoms over {(0,1), (1,0)} are (0,1)^4 and (1,0)^2
    code, out, _ = run_cli(
        capsys, "davenport", "--group", "C2xC4", "--support", "(0,1) (1,0)"
    )
    assert code == 0 and out.strip() == "4"


def test_atoms_json_schema(capsys):
    code, out, _ = run_cli(capsys, "atoms", "--group", "C3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"group", "support", "davenport", "atoms", "count"}
    assert doc["davenport"] == 3 and doc["count"] == 4
    assert doc["atoms"] == sorted(doc["atoms"], key=lambda a: (len(a.split()), a)) or True
    assert doc["count"] == len(doc["atoms"])


def test_atoms_capped_below_order_reports_no_davenport_constant(capsys):
    argv = ("atoms", "--group", "C5xC5", "--max-len", "2")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines()[0] == (
        "group C5xC5: 13 atoms of length <= 2 (search capped below |G|)"
    )
    code, out, _ = run_cli(capsys, *argv, "--json")
    doc = json.loads(out)
    assert code == 0 and doc["davenport"] is None and doc["count"] == 13
    # a cap of |G| leaves the search complete
    code, out, _ = run_cli(capsys, "atoms", "--group", "C3", "--max-len", "3", "--json")
    assert code == 0 and json.loads(out)["davenport"] == 3


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_atoms_rejects_max_len_below_one(capsys, cap):
    code, out, err = run_cli(capsys, "atoms", "--group", "C5xC5", "--max-len", cap)
    assert code == 2 and out == ""
    assert "max_len must be >= 1" in err


FACTORIZE_ARGV = ("factorize", "--group", "C2xC2", "--seq", "(1,0)^2 (0,1)^2 (1,1)^2")


def test_factorize_and_catenary_json(capsys):
    code, out, _ = run_cli(
        capsys, "catenary", "--group", "C2xC2", "--seq", "(1,0)^2 (0,1)^2 (1,1)^2",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert {"seq", "lengths", "delta", "catenary", "num_factorizations"} <= set(doc)
    assert doc["catenary"] == 3 and doc["lengths"] == [2, 3]

    code, out, _ = run_cli(capsys, *FACTORIZE_ARGV)
    assert code == 0
    assert out == (
        "2 factorizations of (0,1)^2 (1,0)^2 (1,1)^2\n"
        "  [(1,1)^2] * [(1,0)^2] * [(0,1)^2]\n"
        "  [(0,1) (1,0) (1,1)] * [(0,1) (1,0) (1,1)]\n"
    )
    code, out, _ = run_cli(capsys, *FACTORIZE_ARGV, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["lengths"] == [2, 3] and doc["num_factorizations"] == 2
    assert doc["factorizations"] == [
        ["(1,1)^2", "(1,0)^2", "(0,1)^2"],
        ["(0,1) (1,0) (1,1)", "(0,1) (1,0) (1,1)"],
    ]


def test_factorize_cap_exhaustion_exit_code(capsys):
    code, out, err = run_cli(capsys, *FACTORIZE_ARGV, "--cap", "1")
    assert code == 3 and out == ""
    assert err == "error: more than 1 factorizations; raise the cap to materialize\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("atoms", "--group", "C3"),
        ("davenport", "--group", "C3"),
        ("lengths", "--group", "C3", "--seq", "(1)^3"),
        ("system", "--group", "C3"),
        ("decide", "--group", "C2xC4", "--set", "2,3"),
        ("closed", "--group", "C3"),
        ("rho", "--group", "C3", "--k", "2"),
        ("delta", "--group", "C3"),
        ("aamp", "--set", "2,5,8,9", "--d", "3"),
        ("verify", "--scenario", "lemma-3.3"),
    ],
)
def test_cap_is_rejected_where_no_factorizations_are_materialized(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--cap", "5")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --cap 5" in err


def test_system_and_closed_json(capsys):
    code, out, _ = run_cli(capsys, "system", "--group", "C3", "--bound", "6", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == 6 and doc["bound_kind"] == "seq_length"
    assert all(set(e) == {"lengths", "witness"} for e in doc["sets"])

    code2, out2, _ = run_cli(capsys, "closed", "--group", "C2xC4", "--bound", "10", "--json")
    assert code2 == 0
    doc2 = json.loads(out2)
    assert doc2["verdict"] == "NOT-CLOSED"
    assert doc2["witness_pair"] == [[2, 4, 5], [2, 4, 5]]
    assert doc2["failed_sumset"] == [4, 6, 7, 8, 9, 10]
    assert doc2["inconclusive"] == []


def test_closed_reports_an_inconclusive_sumset_before_the_failing_pair(capsys):
    code, out, _ = run_cli(
        capsys, "closed", "--group", "C9", "--bound", "12", "--budget", "300000"
    )
    assert code == 0
    assert out == (
        "C9: NOT-CLOSED (bound 12)\n"
        "  witness pair {2,5,6} + {2,5,6} = {4,7,8,10,11,12} is not realizable\n"
        "  inconclusive: {2,3,6} + {2,3,6} = {4,5,6,8,9,12}\n"
    )


def test_rho_and_delta(capsys):
    code, out, _ = run_cli(capsys, "rho", "--group", "C3xC3", "--k", "3")
    assert code == 0 and out.strip() == "7"
    code2, out2, _ = run_cli(
        capsys, "delta", "--group", "C3xC3", "--bound", "10", "--json"
    )
    assert code2 == 0
    assert json.loads(out2)["delta"] == [1]
    code3, out3, _ = run_cli(
        capsys, "delta", "--star", "--group", "C2xC4", "--bound", "8", "--json"
    )
    assert code3 == 0
    doc = json.loads(out3)
    assert doc["kind"] == "minimal-distances-estimate" and doc["values"] == [1, 2]
    assert {"support": ["(0,1)", "(0,3)"], "estimate": 2} in doc["entries"]


def test_aamp_command(capsys):
    code, out, _ = run_cli(
        capsys, "aamp", "--set", "2,5,8,9", "--d", "3", "--M", "1", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["witness"]["y"] == 2
    assert doc["witness"]["central"] == [0, 3, 6]
    code2, _, _ = run_cli(capsys, "aamp", "--set", "2,5,8,9", "--d", "3", "--M", "0")
    assert code2 == 1
    code3, out3, _ = run_cli(
        capsys, "aamp", "--set", "2,5,8,9", "--d", "3", "--min-bound", "--json"
    )
    assert code3 == 0
    assert json.loads(out3) == {"d": 3, "minimal_bound": 1, "set": [2, 5, 8, 9]}


def test_verify_single_scenario(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scenario", "lemma-3.3", "--json")
    assert code == 0
    doc = json.loads(out)
    sc = doc["scenarios"][0]
    assert sc["scenario"] == "lemma-3.3" and sc["passed"] is True
    assert all({"desc", "ref", "pass", "computed", "expected"} == set(c) for c in sc["claims"])


@pytest.mark.parametrize(
    "heavy,digest",
    [(False, "74d23eee7708e2f03e5673f49e9fc6a2d0e66245f96e64cc062f5bfa82a21bf0"),
     (True, "14c9e798269c6490305fe391a74952745bc7e7b1d30f40c5d9c1f85861be9b87")],
    ids=["light", "heavy"],
)
def test_verify_all_output_is_pinned(capsys, monkeypatch, heavy, digest):
    # the byte-exact stdout of every scenario, light and heavy, from a cold cache
    monkeypatch.setattr(atoms, "_ATOMSET_CACHE", {})
    argv = ["verify", "--scenario", "all", "--json"] + ["--heavy"] * heavy
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_usage_errors(capsys):
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys, "decide", "--group", "C2xC4", "--set", "bogus")[0] == 2
    assert run_cli(capsys, "lengths", "--group", "C2xC4", "--seq", "(9,9)")[0] == 2
    assert run_cli(capsys, "verify", "--scenario", "missing")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("aamp", "--set", "2,5,8,9", "--d", "3"),
        ("verify", "--scenario", "lemma-3.3"),
        ("decide", "--group", "C3xC3", "--set", "4,6,8,9"),
    ],
)
@pytest.mark.parametrize(
    "limit", [("--budget", "0"), ("--cap", "0"), ("--threads", "-1")]
)
def test_limits_validated_for_aamp_and_verify(capsys, argv, limit):
    assert run_cli(capsys, *argv, *limit)[0] == 2


def test_catenary_budget_shared_by_enumeration_and_distances(capsys):
    # Z(B) takes 7,209 nodes to enumerate, its 158 * 157 / 2 distances one each
    argv = (
        "catenary", "--group", "C2xC2xC2",
        "--seq", "(0,0,1)^3 (0,1,0)^4 (0,1,1)^3 (1,0,0)^4 (1,0,1) (1,1,0)^2 (1,1,1)^3",
    )
    assert run_cli(capsys, *argv, "--budget", "7210")[0] == 3
    code, out, _ = run_cli(capsys, *argv, "--budget", str(7_209 + 158 * 157 // 2))
    assert code == 0
    assert out == "catenary degree 3 (158 factorizations)\n"


def test_budget_exhaustion_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "decide", "--group", "C3xC3", "--set", "4,6,8,9", "--budget", "20"
    )
    assert code == 3


def test_system_budget_exhaustion_names_the_phase(capsys):
    code, out, err = run_cli(
        capsys, "system", "--group", "C2xC4", "--bound", "8", "--budget", "100"
    )
    assert code == 3 and out == ""
    assert err.startswith("error: budget exhausted in enumerate_system:")


def test_davenport_builds_its_atom_set_under_the_budget(capsys, monkeypatch):
    # without --support too; a build that runs out caches nothing
    monkeypatch.setattr(atoms, "_ATOMSET_CACHE", {})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "davenport", "--group", "C3xC3xC3xC3", "--budget", "1000")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("error: budget exhausted in enumerate_atoms:")
    assert atoms._ATOMSET_CACHE == {}


def test_system_num_atom_factors_walks_past_the_recursion_limit(capsys):
    argv = ("system", "--group", "C2", "--bound", "1100", "--bound-kind", "num_atom_factors")
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0 and json.loads(out)["count"] == 1101


def test_rho_walks_past_the_recursion_limit(capsys):
    code, out, err = run_cli(capsys, "rho", "--group", "C3", "--k", "1100", "--budget", "200000")
    assert code == 3 and out == ""
    assert err == "error: budget exhausted in rho_k: 200001 nodes used, limit 200000\n"


def test_verify_system_pass_runs_under_the_budget(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--scenario", "prop-el2-r3", "--budget", "1000"
    )
    assert code == 3 and out == ""
    assert err.startswith("error: budget exhausted in enumerate_system:")


@pytest.mark.parametrize(
    "scenario, phase",
    [
        ("lemma-3.5", " in length_set"),
        ("lem-length-r5", " in length_set"),
        ("lemma-3.4-light", " in length_set"),
        ("lemma-3.3", " in length_set"),
        ("prop-3.9-witnesses", " in decide_length_set"),
    ],
)
def test_verify_length_sets_and_oracle_run_under_the_budget(
    capsys, monkeypatch, scenario, phase
):
    # fresh atom sets: a length memo warmed by another test would spend nothing
    monkeypatch.setattr(atoms, "_ATOMSET_CACHE", {})
    code, out, err = run_cli(capsys, "verify", "--scenario", scenario, "--budget", "1")
    assert code == 3 and out == ""
    assert err.startswith(f"error: budget exhausted{phase}:")


def test_closed_system_pass_out_of_budget_reports_inconclusive(capsys):
    argv = ("closed", "--group", "C2xC4", "--bound", "8", "--budget", "100")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 3
    assert out == "C2xC4: INCONCLUSIVE (bound 8)\n  budget exhausted in enumerate_system\n"
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 3
    payload = json.loads(out)
    assert payload["verdict"] == "INCONCLUSIVE"
    assert payload["exhausted_phase"] == "enumerate_system"
    assert payload["pairs_checked"] == 0


def test_atoms_budget_exhaustion_names_the_phase(capsys):
    code, out, err = run_cli(capsys, "atoms", "--group", "C4xC4", "--budget", "100")
    assert code == 3 and out == ""
    assert err.startswith("error: budget exhausted in enumerate_atoms:")


def test_lengths_budget_exhaustion_names_the_phase(capsys, monkeypatch):
    # a fresh atom set, so each new memo entry of L(B) spends one node
    monkeypatch.setattr(atoms, "_ATOMSET_CACHE", {})
    code, out, err = run_cli(
        capsys, "lengths", "--group", "C3xC3",
        "--seq", "(0,1)^3 (0,2)^3 (1,0) (1,1) (1,2)^2 (2,1)^4 (2,2)^3",
        "--budget", "5",
    )
    assert code == 3 and out == ""
    assert err == "error: budget exhausted in length_set: 6 nodes used, limit 5\n"


def test_rho_budget_exhaustion_names_the_phase(capsys):
    code, out, err = run_cli(
        capsys, "rho", "--group", "C2xC6", "--k", "3", "--budget", "1000"
    )
    assert code == 3 and out == ""
    assert err.startswith("error: budget exhausted in rho_k:")


@pytest.mark.parametrize(
    "budget, phase", [("100", "factorizations"), ("7210", "catenary_distances")]
)
def test_catenary_budget_exhaustion_names_the_phase(capsys, budget, phase):
    # Z(B) takes 7,209 nodes to enumerate, so 7,210 runs out in the distances
    code, out, err = run_cli(
        capsys, "catenary", "--group", "C2xC2xC2",
        "--seq", "(0,0,1)^3 (0,1,0)^4 (0,1,1)^3 (1,0,0)^4 (1,0,1) (1,1,0)^2 (1,1,1)^3",
        "--budget", budget,
    )
    assert code == 3 and out == ""
    assert err.startswith(f"error: budget exhausted in {phase}:")


def test_python_dash_m_runs_the_cli(capsys):
    _, want, _ = run_cli(capsys, "atoms", "--group", "C3")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "zslen", "atoms", "--group", "C3"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert done.returncode == 0 and done.stdout == want


def test_env_budget_override(capsys, monkeypatch):
    monkeypatch.setenv("ZSLEN_BUDGET", "20")
    argv = ("decide", "--group", "C3xC3", "--set", "4,6,8,9")
    assert run_cli(capsys, *argv)[0] == 3
    assert run_cli(capsys, *argv, "--budget", "5000000")[0] == 0  # explicit wins
    monkeypatch.delenv("ZSLEN_BUDGET")


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_env_budget_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("ZSLEN_BUDGET", value)
    code, out, err = run_cli(capsys, "decide", "--group", "C3xC3", "--set", "4,6,8,9")
    assert code == 2 and out == ""
    assert "argument --budget" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("decide", "--group", "C2xC4", "--set", "2,4,5", "--json"),
        ("decide", "--group", "C2xC4", "--set", "4,6,7,8,9,10", "--json"),
        ("closed", "--group", "C2xC4", "--bound", "10", "--json"),
        ("atoms", "--group", "C3xC3", "--json"),
        ("system", "--group", "C2xC4", "--bound", "8", "--json"),
    ],
)
def test_outputs_byte_identical_across_threads_and_symmetry(capsys, argv):
    symmetry_capable = {"decide", "closed", "atoms"}
    variants = [()]
    if argv[0] in symmetry_capable:
        variants.append(("--symmetry",))
    outputs = set()
    for threads in ("1", "4", "8"):
        for extra in variants:
            code = main(list(argv) + ["--threads", threads] + list(extra))
            out = capsys.readouterr().out
            assert code == 0
            outputs.add(out)
    assert len(outputs) == 1


@pytest.mark.parametrize(
    "spec,bound,spend,digest",
    [
        ("C4xC4", 8, 186_531, "f3d95735d57907fc51fc7b78a2205b783cbad4e3a3460de13c0d68858fb667f8"),
        ("C2xC2xC4", 8, 185_792, "f1a7ee562ca1819fc73d134c3a1144daa8024b130afd5b8640ccda1ddfa4eadf"),
        ("C3xC3", 12, 242_288, "3b0cb0c6e48aff672450e0374f986f99c03826dc4edad038cb2f3ad88a4b80ba"),
        ("C2xC6", 10, 343_544, "eacc92a64df1bbb8de2901792f5dbfe8749b87ba8d8e066ddbf8009ba1de3fcd"),
    ],
)
def test_system_pass_spend_and_output_are_pinned(capsys, spec, bound, spend, digest):
    # the spend counts every (B, A) pair, pushed or not, and the output
    # holds each set's first witness, so either moving fails here
    bud = Budget()
    enumerate_system(parse_group(spec), bound=bound, budget=bud)
    assert bud.used == spend
    code, out, _ = run_cli(capsys, "system", "--group", spec, "--bound", str(bound), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest

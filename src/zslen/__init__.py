"""Arithmetic of zero-sum sequences over finite abelian groups.

Atoms and Davenport constants, factorizations and sets of lengths,
distance and catenary invariants, the bounded system of sets of lengths
with an exact realizability oracle, and an additive-closure checker.
"""

from .budget import Budget, BudgetExceededError, CapExceededError
from .groups import AbelianGroup, parse_group
from .sequences import Sequence, format_sequence, parse_sequence
from .atoms import (
    AtomSet,
    atom_set_for,
    atoms_of_max_length,
    davenport,
    enumerate_atoms,
    is_atom,
)
from .factorize import (
    Factorization,
    LengthSet,
    catenary_degree,
    delta_of_set,
    distance,
    factorizations,
    length_set,
    parse_length_set,
)
from .lsystem import (
    AampWitness,
    ClosureReport,
    DecideResult,
    LengthSystem,
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
)
from .verify import E2Gadget, Scenario, run_all, run_scenario, scenario_ids

__version__ = "0.1.0"

__all__ = [
    "AampWitness",
    "AbelianGroup",
    "AtomSet",
    "Budget",
    "BudgetExceededError",
    "CapExceededError",
    "ClosureReport",
    "DecideResult",
    "E2Gadget",
    "Factorization",
    "LengthSet",
    "LengthSystem",
    "Scenario",
    "Sequence",
    "atom_set_for",
    "atoms_of_max_length",
    "catenary_degree",
    "check_additively_closed",
    "davenport",
    "decide_length_set",
    "delta_bounded",
    "delta_of_set",
    "delta_star_bounded",
    "dilate",
    "distance",
    "elasticity",
    "enumerate_atoms",
    "enumerate_system",
    "extremal_elasticity_decomposition",
    "factorizations",
    "format_sequence",
    "is_aamp",
    "is_atom",
    "is_basis_plus_sum",
    "k_fold",
    "length_set",
    "min_delta_support",
    "minimal_aamp_bound",
    "nfold_system_sumset",
    "parse_group",
    "parse_length_set",
    "parse_sequence",
    "rho_k",
    "run_all",
    "run_scenario",
    "scenario_ids",
    "sumset",
]

"""Optimal entropy compression and heat-bath algorithmic cooling of qubit registers."""

from .circuits import (Circuit, Gate, apply_circuit, circuit_permutation,
                       export_text, lim_comp, nb_maxcomp, parse_text)
from .compress import (Counterexample, OptimalityReport, apply_swaps,
                       bias_gain, find_optswaps, verify_optimality)
from .errors import DivergenceError, ResourceCapError
from .hbac import CoolingReport, HbacConfig, register_compression, subspace_compression
from .limits import (LimitMatrix, analytic_limit, analytic_limits, f, max_rounds,
                     numerical_limits, shannon_bound, single_round_limit,
                     sort_bound, sqrt_bound)
from .regstate import (DiagDist, RegisterBiases, marginal_bias, marginal_register,
                       probamps)

__version__ = "0.1.0"

__all__ = [
    "RegisterBiases", "DiagDist", "probamps", "marginal_bias",
    "marginal_register",
    "find_optswaps", "apply_swaps", "bias_gain", "verify_optimality",
    "OptimalityReport", "Counterexample",
    "f", "analytic_limit", "analytic_limits", "single_round_limit", "numerical_limits",
    "LimitMatrix", "sort_bound", "shannon_bound", "sqrt_bound", "max_rounds",
    "HbacConfig", "CoolingReport",
    "register_compression", "subspace_compression",
    "Gate", "Circuit", "nb_maxcomp", "lim_comp", "circuit_permutation",
    "apply_circuit", "export_text", "parse_text",
    "ResourceCapError", "DivergenceError",
    "__version__",
]

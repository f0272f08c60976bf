"""Reproducing kernels of weighted Paley-Wiener spaces for the measure
family c1*delta + c2 |a| e^{-c3 |a|} da, the bound constants they imply for
long-term averages of pair-correlation form factors, and an independent
integral-equation oracle cross-validating every closed form."""

__version__ = "0.1.0"

from .errors import (DegenerateRoots, EmptyDataset, EmptyWindow,
                     IllConditioned, InfeasibleWitness, InvalidRegime,
                     NotAdmissible, NotCancelled, PairpackError, ParseError)
from .measures import (EXTENDED_SIGMA, SUP_G, SUP_G_ARGMAX, Measure,
                       NormEquivalence, g_surface, norm_bounds, nu_hat)
from .kernels import (CaseTag, EtaPair, KernelEvaluation, LimitPath,
                      kernel_c3zero, kernel_k00, kernel_k0z, kernel_k0z_grid, mu,
                      quartic_roots, script_L)
from .fredholm import (NystromSolution, closed_form_u, k_from_u,
                       ode_residual, reproducing_residual, solve_integral_eq)
from .bounds import (S0, S0_ARGMIN, BoundsReport, average_bounds,
                     dedekind_bounds, figure1_data, gonek_ki_conjectured_average,
                     refutation_threshold, reim_zeta_bounds, selberg_bounds)
from .formfactor import (Window, ZeroDataset, ep1_ratio_check, fejer_check,
                         fejer_poisson_check, form_factor,
                         form_factor_positive, load_zeros, phi_functional,
                         symmetric_average, windowed_average)

__all__ = [
    "Measure", "NormEquivalence", "nu_hat", "g_surface",
    "SUP_G", "SUP_G_ARGMAX", "norm_bounds", "EXTENDED_SIGMA",
    "EtaPair", "KernelEvaluation", "CaseTag", "LimitPath", "quartic_roots",
    "mu", "kernel_k00", "kernel_k0z",
    "kernel_k0z_grid", "kernel_c3zero", "script_L",
    "NystromSolution", "solve_integral_eq", "closed_form_u", "k_from_u",
    "reproducing_residual", "ode_residual",
    "BoundsReport", "S0", "S0_ARGMIN", "average_bounds", "selberg_bounds",
    "dedekind_bounds", "reim_zeta_bounds", "figure1_data",
    "gonek_ki_conjectured_average", "refutation_threshold",
    "ZeroDataset", "Window", "load_zeros", "form_factor",
    "form_factor_positive", "windowed_average", "symmetric_average",
    "phi_functional", "ep1_ratio_check", "fejer_check", "fejer_poisson_check",
    "PairpackError", "NotAdmissible", "InvalidRegime", "DegenerateRoots",
    "IllConditioned", "InfeasibleWitness", "NotCancelled",
    "ParseError", "EmptyDataset", "EmptyWindow",
]

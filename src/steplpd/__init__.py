"""Scattering and long-time asymptotics toolkit for the focusing nonlocal
Lakshmanan-Porsezian-Daniel (LPD) equation with step-like initial data.

The pipeline goes: initial profile -> Jost solutions / scattering matrix ->
reflection coefficients and the discrete eigenvalue i*xi1 -> scalar
delta-function of the two-interval Riemann-Hilbert factorization ->
parabolic-cylinder local models at the three stationary phase points ->
evaluable leading-order formulas for q(x,t) along rays x/t = const, with a
short-time direct PDE integrator for cross-checks.
"""

from steplpd.asymptotics import (
    AsymptoticResult,
    Branch,
    OrderDescriptor,
    coefficients_HLN,
    error_order,
    q_asymptotic,
    q_rough,
    q_soliton,
)
from steplpd.kernels import (
    ContourInterval,
    complex_gamma,
    cubic_real_roots,
    ode_integrate,
    parabolic_cylinder_D,
)
from steplpd.pcmodel import (
    LocalModelData,
    lambda_conjugator,
    local_phase_phi,
    pc_coefficients,
    pc_model_matrix,
    scaling_map,
)
from steplpd.phase import PhaseGeometry, Regime, phase_theta, sign_of_re_phi, stationary_points
from steplpd.rhfactors import (
    DeltaFunction,
    ResidueConstants,
    SaddleExponents,
    bp_elements,
    build_delta,
    jump_matrix,
    regularized_reflections,
    residue_constants,
    saddle_exponents,
)
from steplpd.scattering import (
    CaseTag,
    InitialProfile,
    ScatteringData,
    SyntheticReflectionData,
    auxiliary_f,
    classify_case,
    jost_at_origin,
    locate_xi1,
    scattering_matrix,
    soliton_profile,
    synthetic_from_v_targets,
)
from steplpd.simulate import FieldGrid, SolitonField, evolve, pde_residual

__all__ = [
    "AsymptoticResult", "Branch", "OrderDescriptor", "coefficients_HLN",
    "error_order", "q_asymptotic", "q_rough", "q_soliton",
    "ContourInterval", "complex_gamma", "cubic_real_roots", "ode_integrate",
    "parabolic_cylinder_D",
    "LocalModelData", "lambda_conjugator", "local_phase_phi", "pc_coefficients",
    "pc_model_matrix", "scaling_map",
    "PhaseGeometry", "Regime", "phase_theta", "sign_of_re_phi",
    "stationary_points",
    "DeltaFunction", "ResidueConstants", "SaddleExponents", "bp_elements",
    "build_delta", "jump_matrix", "regularized_reflections",
    "residue_constants", "saddle_exponents",
    "CaseTag", "InitialProfile", "ScatteringData", "SyntheticReflectionData",
    "auxiliary_f", "classify_case", "jost_at_origin", "locate_xi1",
    "scattering_matrix", "soliton_profile", "synthetic_from_v_targets",
    "FieldGrid", "SolitonField", "evolve", "pde_residual",
]

"""Numerical kernels shared by the scattering / Riemann-Hilbert machinery."""

from steplpd.kernels.quadrature import (
    ContourInterval,
    IntegrationError,
    IntervalRule,
    gauss_legendre,
    interval_rule,
)
from steplpd.kernels.special import (
    GammaPoleError,
    complex_gamma,
    parabolic_cylinder_D,
)
from steplpd.kernels.roots import cubic_real_roots
from steplpd.kernels.ode import StiffnessError, ode_integrate

__all__ = [
    "ContourInterval",
    "IntegrationError",
    "IntervalRule",
    "gauss_legendre",
    "interval_rule",
    "GammaPoleError",
    "complex_gamma",
    "parabolic_cylinder_D",
    "cubic_real_roots",
    "StiffnessError",
    "ode_integrate",
]

"""Barotropic pressure law, viscous stress, the essential-set indicator, and
entropy-type diagnostics.

The pressure is the power law p(rho) = a * rho**gamma; the pressure
potential P and the relative entropy built from it drive every energy
diagnostic in the package, so both carry exact closed forms here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeDensity

GAMMA_MIN = 1.5


@dataclass(frozen=True)
class PressureLaw:
    """Power-law pressure p(rho) = coeff * rho**gamma around rho_ref."""

    coeff: float = 1.0
    gamma: float = 2.0
    rho_ref: float = 1.0

    def __post_init__(self):
        if self.coeff <= 0.0:
            raise ValueError("pressure coefficient must be positive")
        if self.gamma <= GAMMA_MIN:
            raise ValueError(f"gamma must exceed 3/2, got {self.gamma}")
        if self.rho_ref <= 0.0:
            raise ValueError("reference density must be positive")


@dataclass(frozen=True)
class ViscosityPair:
    """Shear and bulk viscosity coefficients."""

    shear: float
    bulk: float = 0.0

    def __post_init__(self):
        if self.shear <= 0.0:
            raise ValueError("shear viscosity must be positive")
        if self.bulk < 0.0:
            raise ValueError("bulk viscosity must be nonnegative")


def _check_density(rho):
    if np.any(np.asarray(rho) < 0.0):
        raise NegativeDensity("density must be nonnegative")


def pressure(law: PressureLaw, rho):
    """p(rho) = a * rho**gamma, with p(0) = 0."""
    _check_density(rho)
    return law.coeff * np.asarray(rho, dtype=float) ** law.gamma


def pressure_slope(law: PressureLaw, rho):
    """p'(rho) = a * gamma * rho**(gamma-1); positive for rho > 0."""
    _check_density(rho)
    return law.coeff * law.gamma * np.asarray(rho, dtype=float) ** (law.gamma - 1.0)


def pressure_potential(law: PressureLaw, rho):
    """P(rho) = rho * integral_1^rho p(z)/z**2 dz, in closed form.

    For gamma != 1 the integral evaluates to
        P(rho) = a * (rho**gamma - rho) / (gamma - 1),
    which extends continuously to rho = 0 with P(0) = 0.
    """
    _check_density(rho)
    r = np.asarray(rho, dtype=float)
    return law.coeff * (r**law.gamma - r) / (law.gamma - 1.0)


def pressure_potential_slope(law: PressureLaw, rho):
    """P'(rho) = a * (gamma * rho**(gamma-1) - 1) / (gamma - 1)."""
    _check_density(rho)
    r = np.asarray(rho, dtype=float)
    return law.coeff * (law.gamma * r ** (law.gamma - 1.0) - 1.0) / (law.gamma - 1.0)


def relative_entropy(law: PressureLaw, rho):
    """E(rho | rho_ref) = P(rho) - P'(rho_ref)(rho - rho_ref) - P(rho_ref).

    Nonnegative by convexity of P, vanishing exactly at rho = rho_ref;
    for gamma = 2 and rho_ref = 1 this is exactly (rho - 1)**2.
    """
    rr = law.rho_ref
    return (
        pressure_potential(law, rho)
        - pressure_potential_slope(law, rr) * (np.asarray(rho, dtype=float) - rr)
        - pressure_potential(law, rr)
    )


def pressure_entropy(law: PressureLaw, rho):
    """p(rho) - p'(rho_ref)(rho - rho_ref) - p(rho_ref); the scaled wave forcing."""
    rr = law.rho_ref
    return (
        pressure(law, rho)
        - pressure_slope(law, rr) * (np.asarray(rho, dtype=float) - rr)
        - pressure(law, rr)
    )


def essential_indicator(rho, rho_ref: float):
    """1 on the essential set rho_ref/2 < rho < 2 rho_ref, 0 on the residual set."""
    rho = np.asarray(rho)
    return ((0.5 * rho_ref < rho) & (rho < 2.0 * rho_ref)).astype(float)


def stress(visc: ViscosityPair, grad_u: np.ndarray) -> np.ndarray:
    """Viscous stress mu*(G + G^T - (2/3) tr(G) I) + eta * tr(G) I.

    grad_u may be a single d x d tensor or an array field of them with the
    tensor axes last. The 2/3 deviatoric coefficient is kept in every
    dimension.
    """
    g = np.asarray(grad_u, dtype=float)
    if g.shape[-1] != g.shape[-2]:
        raise ValueError("grad_u must have square tensor axes")
    gt = np.swapaxes(g, -1, -2)
    div = np.trace(g, axis1=-2, axis2=-1)
    eye = np.eye(g.shape[-1])
    iso = div[..., None, None] * eye
    return visc.shear * (g + gt - (2.0 / 3.0) * iso) + visc.bulk * iso

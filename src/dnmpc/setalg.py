"""Euclidean balls and the disturbance-tube radius.

Everything downstream (constraint tightening, tube certificates) acts through
norm balls, so only balls are supported; the program reads a ball's center
and radius. The tube radius is the Gronwall-type divergence bound between a
nominal and a disturbed trajectory of Lipschitz dynamics under a bounded
additive disturbance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Ball",
    "TubeProfile",
    "tube_radius",
]

# Below this Lipschitz constant the exponential form of the tube radius is
# numerically dominated by cancellation; a second-order Taylor limit is used.
_LINEAR_LIMIT_LG = 1e-6


@dataclass(frozen=True)
class Ball:
    """A closed Euclidean ball with the given center and nonnegative radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius < 0.0:
            raise ValueError(f"ball radius must be nonnegative, got {self.radius}")


@dataclass(frozen=True)
class TubeProfile:
    """Disturbance bound and Lipschitz constant defining the divergence tube."""

    w_bar: float
    L_g: float

    def __post_init__(self):
        if self.w_bar < 0.0:
            raise ValueError(f"disturbance bound must be nonnegative, got {self.w_bar}")
        if self.L_g <= 0.0:
            raise ValueError(f"Lipschitz constant must be positive, got {self.L_g}")


def tube_radius(profile: TubeProfile, tau) -> float:
    """Divergence bound (w_bar / L_g) * (exp(L_g * tau) - 1) at elapsed time tau.

    Monotone nondecreasing in tau and zero at tau = 0. For a vanishing
    Lipschitz constant the Taylor limit w_bar * tau * (1 + L_g * tau / 2) is
    used to avoid catastrophic cancellation.
    """
    tau = float(tau)
    if tau < 0.0:
        raise ValueError(f"elapsed time must be nonnegative, got {tau}")
    if profile.L_g < _LINEAR_LIMIT_LG:
        return profile.w_bar * tau * (1.0 + 0.5 * profile.L_g * tau)
    return (profile.w_bar / profile.L_g) * math.expm1(profile.L_g * tau)

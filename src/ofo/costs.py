"""Cost models, their partial gradients, and the moduli the certificate needs.

Each model reports a CostDescriptor: strong-convexity and Lipschitz moduli of
its gradients, assembled with the plant's steady-output Lipschitz constants.
The input u is a scalar and the output y a vector.  Both models carry an
input regularization mu4 >= 0, which adds (mu4 / 2) u^2 to the cost and mu4
to its input curvature.  The reduced gradient combines the input gradient
with the sensitivity-weighted output gradient; the stepping kernels evaluate
the same expressions in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError
from .linalg import Vector


@dataclass(frozen=True)
class CostDescriptor:
    """Moduli describing a cost: used by the certificate and the step-size rule.

    ell_phi_y is the Lipschitz modulus (in y) of the reduced gradient map.
    """

    mu_phi: float          # strong convexity of the cost in u
    lip_grad_u: float      # Lipschitz modulus of the u-gradient in u
    ell_phi_u: float       # Lipschitz modulus (in u) of the sensitivity-weighted y-gradient
    ell_phi_y: float


def _check_moduli(ell_h: float, ell_grad_h: float) -> None:
    if ell_h < 0.0 or ell_grad_h < 0.0:
        raise InputError("steady-output Lipschitz moduli must be nonnegative")


def _check_mu4(mu4: float) -> None:
    if mu4 < 0.0:
        raise InputError("regularization weight mu4 must be nonnegative")


@dataclass(frozen=True)
class QuadraticCost:
    """phi(u, y) = q_u u^2 + q_y ||y||^2 + (mu4 / 2) u^2."""

    q_u: float
    q_y: float = 1.0
    mu4: float = 0.0

    def __post_init__(self):
        if self.q_u <= 0.0:
            raise InputError("input weight q_u must be positive")
        if self.q_y < 0.0:
            raise InputError("output weight q_y must be nonnegative")
        _check_mu4(self.mu4)

    def phi(self, u: float, y: Vector) -> float:
        base = self.q_u * (u * u) + self.q_y * sum(v * v for v in y)
        return base + 0.5 * self.mu4 * (u * u)

    def grad_u(self, u: float, y: Vector) -> float:
        return 2.0 * self.q_u * u + self.mu4 * u

    def grad_y(self, u: float, y: Vector) -> Vector:
        return tuple(2.0 * self.q_y * v for v in y)

    @property
    def grad_u_lipschitz(self) -> float:
        return 2.0 * self.q_u + self.mu4

    def descriptor(self, ell_h: float, ell_grad_h: float = 0.0) -> CostDescriptor:
        _check_moduli(ell_h, ell_grad_h)
        # The sensitivity of a linear steady map is constant, so the
        # u-Lipschitz modulus of its weighted y-gradient 2 q_y h'(u) y
        # vanishes.  When the sensitivity varies, that term has no finite
        # modulus, because y = h(u) is unbounded.
        return CostDescriptor(
            mu_phi=self.grad_u_lipschitz,
            lip_grad_u=self.grad_u_lipschitz,
            ell_phi_u=math.inf if ell_grad_h > 0.0 else 0.0,
            ell_phi_y=2.0 * self.q_y * ell_h,
        )

    kind = "quadratic"


@dataclass(frozen=True)
class SqrtPlusCost:
    """phi(u, y) = a u^2 + sqrt(y^2 + 1) + (mu4 / 2) u^2, scalar output."""

    a: float
    mu4: float = 0.0

    def __post_init__(self):
        if self.a <= 0.0:
            raise InputError("input weight a must be positive")
        _check_mu4(self.mu4)

    @staticmethod
    def _check_scalar(y: Vector) -> None:
        if len(y) != 1:
            raise InputError("this cost is defined for a scalar output")

    def phi(self, u: float, y: Vector) -> float:
        self._check_scalar(y)
        base = self.a * u * u + math.sqrt(y[0] * y[0] + 1.0)
        return base + 0.5 * self.mu4 * (u * u)

    def grad_u(self, u: float, y: Vector) -> float:
        return 2.0 * self.a * u + self.mu4 * u

    def grad_y(self, u: float, y: Vector) -> Vector:
        self._check_scalar(y)
        return (y[0] / math.sqrt(y[0] * y[0] + 1.0),)

    @property
    def grad_u_lipschitz(self) -> float:
        return 2.0 * self.a + self.mu4

    def descriptor(self, ell_h: float, ell_grad_h: float = 0.0) -> CostDescriptor:
        _check_moduli(ell_h, ell_grad_h)
        # |d/dy sqrt(y^2+1)| <= 1 with unit Lipschitz modulus, so the reduced
        # gradient inherits ell_h in y and ell_grad_h in u.
        return CostDescriptor(
            mu_phi=self.grad_u_lipschitz,
            lip_grad_u=self.grad_u_lipschitz,
            ell_phi_u=ell_grad_h,
            ell_phi_y=ell_h,
        )

    kind = "sqrtplus"


CostModel = QuadraticCost | SqrtPlusCost


def check_fit(cost: CostModel, p: int) -> None:
    """Refuse a cost on a plant with p outputs it is not defined for."""
    if isinstance(cost, SqrtPlusCost) and p != 1:
        raise InputError("the sqrtplus cost requires a scalar output")


def reduced_gradient(cost: CostModel, sensitivity: Vector, u: float, y: Vector) -> float:
    """Derivative of u -> phi(u, h(u)) assembled from live measurements:
    grad_u phi + sensitivity . grad_y phi, with the p entries of d y / du.
    """
    gy = cost.grad_y(u, y)
    if len(sensitivity) != len(y):
        raise InputError("sensitivity length does not match the output dimension")
    coupled = 0.0
    for s, g in zip(sensitivity, gy):
        coupled += s * g
    return cost.grad_u(u, y) + coupled

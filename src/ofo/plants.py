"""Plant models with globally stable dynamics and closed-form steady-state maps.

Two concrete families are provided: a linear time-invariant plant and its
variant with a sine input nonlinearity, both with a scalar input u (B has one
column).  Both expose the same surface (input effect, steady state, steady
output, sensitivity), so the certificate and the searched reference optimum
treat them alike.  The simulator does tell them apart: a SinePlant selects
the kernel's sine branch and has neither the closed-form optimum nor a
Hurwitz verdict.  A plant is the model (A, B, B_w, C) alone: the disturbance
w is an argument of the maps that depend on it, so switching it builds
nothing and re-checks nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import InputError
from .linalg import (
    Matrix,
    Vector,
    faddeev_leverrier,
    inverse,
    solve_lyapunov,
    spectral_norm,
    vec_add,
)


def _check_lti_shapes(a: Matrix, b: Matrix, bw: Matrix, c: Matrix) -> None:
    if a.rows != a.cols:
        raise InputError("state matrix must be square")
    n = a.rows
    if b.rows != n:
        raise InputError("input matrix row count must match the state dimension")
    if b.cols != 1:
        raise InputError(f"the input is scalar: B must have one column, not {b.cols}")
    if bw.rows != n:
        raise InputError("disturbance matrix row count must match the state dimension")
    if c.cols != n:
        raise InputError("output matrix column count must match the state dimension")


@dataclass(frozen=True)
class LinearPlant:
    """dx/dt = A x + B u + B_w w,  y = C x, with A Hurwitz."""

    a: Matrix
    b: Matrix
    bw: Matrix
    c: Matrix
    #: P of A^T P + P A = -I, the weight matrix of the certificate and of V.
    lyapunov_p: Matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_lti_shapes(self.a, self.b, self.bw, self.c)
        # Hurwitz gate: the Lyapunov solve succeeds with a positive-definite
        # solution exactly when A^T, and so A, is Hurwitz.
        object.__setattr__(self, "lyapunov_p", solve_lyapunov(self.a.transpose()))

    @property
    def n(self) -> int:
        return self.a.rows

    @property
    def p(self) -> int:
        return self.c.rows

    @cached_property
    def a_inverse(self) -> Matrix:
        return inverse(self.a)

    @cached_property
    def base_sensitivity(self) -> Matrix:
        """-C A^-1 B; the input-to-steady-output gain."""
        return self.c.matmul(self.a_inverse).matmul(self.b).scale(-1.0)

    @cached_property
    def loop_polynomials(self) -> tuple[Vector, Vector]:
        """(a, N): det(sI - A) and H^T C adj(sI - A) B with H the base
        sensitivity, coefficients highest power first.  The affine loop's
        characteristic polynomial is built from them (see RunConfig.hurwitz)."""
        feedback = self.base_sensitivity.transpose().matmul(self.c)
        return faddeev_leverrier(self.a, feedback.data, self.b.data)

    @cached_property
    def spectral_norms(self) -> tuple[float, float]:
        """(||A||_2, ||C||_2), which the default step size reads at every gain."""
        return spectral_norm(self.a), spectral_norm(self.c)

    @cached_property
    def steady_moduli(self) -> tuple[float, float]:
        """(ell_h, ell_grad_h): Lipschitz moduli of the steady output map and
        of its sensitivity, both in u."""
        gain = spectral_norm(self.base_sensitivity)
        return self.sensitivity_bound_factor * gain, self.sensitivity_lipschitz_factor * gain

    def input_effect(self, u: float) -> Vector:
        """The term the input contributes to dx/dt (before adding A x and B_w w)."""
        return self.b.matvec((u,))

    def steady_state(self, u: float, w: Vector) -> Vector:
        forced = vec_add(self.input_effect(u), self.bw.matvec(w))
        return tuple(-v for v in self.a_inverse.matvec(forced))

    def steady_output(self, u: float, w: Vector) -> Vector:
        return self.c.matvec(self.steady_state(u, w))

    def sensitivity(self, u: float) -> Vector:
        """The p entries of d y_ss / du at u."""
        return self.base_sensitivity.data

    # Descriptors used when deriving certificate constants.
    kind = "linear"
    input_lipschitz_factor = 1.0     # max |d/du (u)| = 1
    sensitivity_bound_factor = 1.0   # sup_u of the sensitivity scaling
    sensitivity_lipschitz_factor = 0.0


@dataclass(frozen=True)
class SinePlant(LinearPlant):
    """dx/dt = A x + B (u + sin u) + B_w w, y = C x."""

    def input_effect(self, u: float) -> Vector:
        return self.b.matvec((u + math.sin(u),))

    def sensitivity(self, u: float) -> Vector:
        return self.base_sensitivity.scale(1.0 + math.cos(u)).data

    kind = "sine"
    input_lipschitz_factor = 2.0     # max |d/du (u + sin u)| = 2
    sensitivity_bound_factor = 2.0   # max (1 + cos u) = 2
    sensitivity_lipschitz_factor = 1.0  # |d/du (1 + cos u)| <= 1

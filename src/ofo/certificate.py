"""Gain-independent stability certification for the closed loop.

Pipeline: take the plant-side constants from the plant's Lyapunov matrix
(solved once, when the plant is built; this module solves none), merge them
with the cost moduli and any user overrides, map the result to the four
dominance parameters, and search for a weight xi that makes both coupled
decay inequalities strict.  When such a weight exists the loop is certified
exponentially stable for every controller gain, with rate

    tau(alpha) = min(mu1 - xi * theta1, alpha * (mu2 - theta2 / xi)).

When it does not, the minimal extra input regularization that would flip the
verdict is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .costs import CostModel, check_fit
from .errors import ConvexityGapError, InputError
from .linalg import spectral_norm, sym_eigenvalues
from .plants import LinearPlant


@dataclass(frozen=True)
class SimplifyingConstants:
    """Moduli feeding the dominance formulas.

    Plant side: ell_f (input Lipschitz modulus of the dynamics), ell_g (output
    map modulus), and the Lyapunov sandwich/decay/gradient constants c3 <= d3,
    mu3, zeta3.  Cost side: strong convexity mu_phi, coupling moduli ell_phi_u
    and ell_phi_y, and the u-gradient Lipschitz modulus lip_grad_u.  The four
    coupling moduli may be 0: ell_f = 0 (B = 0) zeroes theta1 and ell_g = 0
    (C = 0) theta2.  The other constants must be positive.
    """

    ell_f: float
    ell_g: float
    c3: float
    d3: float
    mu3: float
    zeta3: float
    mu_phi: float
    ell_phi_u: float
    ell_phi_y: float
    lip_grad_u: float

    def __post_init__(self):
        for name in ("c3", "d3", "mu3", "zeta3", "mu_phi", "lip_grad_u"):
            if getattr(self, name) <= 0.0:
                raise InputError(f"constant {name} must be positive")
        for name in ("ell_f", "ell_g", "ell_phi_u", "ell_phi_y"):
            if getattr(self, name) < 0.0:
                raise InputError(f"constant {name} must be nonnegative")
        if self.c3 > self.d3 * (1.0 + 1e-12):
            raise InputError("sandwich constants must satisfy c3 <= d3")
        if self.lip_grad_u < self.mu_phi * (1.0 - 1e-12):
            raise InputError("lip_grad_u must be at least mu_phi")


#: Names accepted as scenario-file overrides of derived constants.
CONSTANT_FIELDS = tuple(f.name for f in fields(SimplifyingConstants))


@dataclass(frozen=True)
class DominanceParams:
    """Coefficients of the coupled decay inequalities."""

    mu1: float
    theta1: float
    mu2: float
    theta2: float


@dataclass(frozen=True)
class XiInterval:
    """Open interval of feasible composite-Lyapunov weights."""

    lo: float
    hi: float
    chosen: float


def assemble_constants(
    plant: LinearPlant,
    cost: CostModel,
    overrides: dict[str, float] | None = None,
) -> tuple[SimplifyingConstants, tuple[str, ...]]:
    """The systematic constants with user overrides applied field by field;
    also returns the sorted names of the overridden fields.

    The plant side comes from plant.lyapunov_p, the P of A^T P + P A = -I:
    the quadratic form W(x) = (x - x*)^T P (x - x*), taken about the
    segment's steady state x* (the point the kernels record V about, not the
    input's steady state s(u)), decays along the frozen-input dynamics at
    unit rate, so mu3 = 1, the sandwich constants c3 and d3 are the extreme
    eigenvalues of P and the gradient bound is zeta3 = 2 lambda_max(P).
    The cost moduli are taken at the plant's steady-output moduli.
    """
    eigs = sym_eigenvalues(plant.lyapunov_p)
    ell_phi_u, ell_phi_y = cost.coupling_moduli(*plant.steady_moduli)
    values = {
        "ell_f": plant.input_lipschitz_factor * spectral_norm(plant.b),
        "ell_g": plant.spectral_norms[1],
        "c3": eigs[0],
        "d3": eigs[-1],
        "mu3": 1.0,
        "zeta3": 2.0 * eigs[-1],
        "mu_phi": cost.grad_u_lipschitz,
        "ell_phi_u": ell_phi_u,
        "ell_phi_y": ell_phi_y,
        "lip_grad_u": cost.grad_u_lipschitz,
    }
    overridden: list[str] = []
    for name, value in (overrides or {}).items():
        if name not in CONSTANT_FIELDS:
            raise InputError(f"unknown certificate constant override: {name}")
        values[name] = float(value)
        overridden.append(name)
    return SimplifyingConstants(**values), tuple(sorted(overridden))


def derive_dominance_params(k: SimplifyingConstants) -> DominanceParams:
    """Closed-form dominance parameters from the simplifying constants."""
    gap = k.mu_phi - k.ell_phi_u
    if gap <= 0.0:
        raise ConvexityGapError(
            "strong convexity must exceed the sensitivity coupling modulus "
            f"(mu_phi = {k.mu_phi}, ell_phi_u = {k.ell_phi_u})")
    return DominanceParams(
        mu1=k.mu3 / (2.0 * k.d3),
        theta1=(k.ell_f ** 2) * (k.zeta3 ** 2) / (2.0 * k.mu3),
        mu2=gap / 2.0,
        theta2=(k.ell_g ** 2) * (k.ell_phi_y ** 2) / (2.0 * gap * k.c3),
    )


def feasible_xi(p: DominanceParams) -> XiInterval | None:
    """Open interval (theta2/mu2, mu1/theta1) of weights making both decay
    margins strict; None when it is empty.  The geometric mean is picked as
    the representative weight, balancing the two margins.  With no output
    coupling (lo = 0) that mean would be 0, outside the interval, so hi/2 is;
    with no input coupling (theta1 = 0, so hi = inf) it would be inf, so 2 lo
    is, leaving the u-margin at mu2/2, and 1 when lo = 0 as well.
    """
    lo = p.theta2 / p.mu2
    hi = p.mu1 / p.theta1 if p.theta1 > 0.0 else math.inf
    if not lo < hi:
        return None
    if hi == math.inf:
        chosen = 2.0 * lo if lo > 0.0 else 1.0
    else:
        chosen = math.sqrt(lo) * math.sqrt(hi) if lo > 0.0 else 0.5 * hi
    return XiInterval(lo=lo, hi=hi, chosen=chosen)


def check_mu_bound(k: SimplifyingConstants) -> tuple[bool, float]:
    """Scalar sufficient condition equivalent to a feasible weight existing.

    Returns (certified, rhs) where certification requires
    mu_phi > rhs = ell_phi_u + sqrt(ell_g^2 ell_phi_y^2 d3 zeta3^2 ell_f^2 / (c3 mu3^2)).
    """
    rhs = k.ell_phi_u + math.sqrt(
        (k.ell_g ** 2) * (k.ell_phi_y ** 2) * k.d3 * (k.zeta3 ** 2) * (k.ell_f ** 2)
        / (k.c3 * (k.mu3 ** 2)))
    return k.mu_phi > rhs, rhs


def decay_rate(p: DominanceParams, xi: float, alpha: float) -> float:
    """Certified exponential rate min(mu1 - xi*theta1, alpha*(mu2 - theta2/xi))."""
    if not 0.0 < alpha < math.inf:
        raise InputError(f"alpha must be positive and finite, got {alpha}")
    x_margin = p.mu1 - xi * p.theta1
    u_margin = p.mu2 - p.theta2 / xi
    if xi <= 0.0 or x_margin <= 0.0 or u_margin <= 0.0:
        raise InputError(f"dominance violated at this xi ({xi})")
    return min(x_margin, alpha * u_margin)


def required_regularization(k: SimplifyingConstants, margin: float = 1e-6) -> float:
    """Smallest extra input curvature making the scalar bound pass (plus margin)."""
    if margin <= 0.0:
        raise InputError("margin must be positive")
    _, rhs = check_mu_bound(k)
    return max(0.0, rhs - k.mu_phi + margin)


@dataclass(frozen=True)
class CertificateReport:
    """Everything the certification pipeline produced for one plant/cost pair."""

    plant_kind: str
    cost_kind: str
    alpha: float
    constants: SimplifyingConstants
    overridden: tuple[str, ...]
    params: DominanceParams
    xi: XiInterval | None
    certified: bool
    mu_bound_rhs: float
    required_mu4: float
    tau_at_alpha: float | None
    claimed_mu_bound_rhs: float | None = None

    def to_text(self) -> str:
        """Flat `name = value` block for CLI output and golden-file tests."""
        from .sim import fmt12  # here, so importing this module loads no ofo.sim or ofo.engine

        lines = [
            f"plant_kind = {self.plant_kind}",
            f"cost_kind = {self.cost_kind}",
            f"alpha = {fmt12(self.alpha)}",
        ]
        for name in CONSTANT_FIELDS:
            mark = "  (override)" if name in self.overridden else ""
            lines.append(f"{name} = {fmt12(getattr(self.constants, name))}{mark}")
        lines += [
            f"mu1 = {fmt12(self.params.mu1)}",
            f"theta1 = {fmt12(self.params.theta1)}",
            f"mu2 = {fmt12(self.params.mu2)}",
            f"theta2 = {fmt12(self.params.theta2)}",
        ]
        if self.xi is None:
            lines.append("xi_interval = infeasible")
        else:
            lines += [
                f"xi_lo = {fmt12(self.xi.lo)}",
                f"xi_hi = {fmt12(self.xi.hi) if self.xi.hi < math.inf else 'inf'}",
                f"xi_chosen = {fmt12(self.xi.chosen)}",
            ]
        lines.append(f"certified = {'true' if self.certified else 'false'}")
        lines.append(f"mu_bound_rhs = {fmt12(self.mu_bound_rhs)}")
        if self.claimed_mu_bound_rhs is not None:
            lines.append(f"claimed_mu_bound_rhs = {fmt12(self.claimed_mu_bound_rhs)}")
            lines.append("claimed_mu_bound_note = reported for comparison only; "
                         "the computed mu_bound_rhs governs the verdict")
        lines.append(f"required_mu4 = {fmt12(self.required_mu4)}")
        if self.xi is not None:
            lines.append(f"tau_x_margin = {fmt12(self.params.mu1 - self.xi.chosen * self.params.theta1)}")
            lines.append(f"tau_u_margin_per_alpha = {fmt12(self.params.mu2 - self.params.theta2 / self.xi.chosen)}")
        if self.tau_at_alpha is not None:
            lines.append(f"tau_at_alpha = {fmt12(self.tau_at_alpha)}")
        return "\n".join(lines) + "\n"


def certify(
    plant: LinearPlant,
    cost: CostModel,
    alpha: float,
    overrides: dict[str, float] | None = None,
    claimed_mu_bound_rhs: float | None = None,
) -> CertificateReport:
    """Run the full certification pipeline for one plant/cost/gain triple."""
    if not 0.0 < alpha < math.inf:
        raise InputError(f"alpha must be positive and finite, got {alpha}")
    check_fit(cost, plant.p)
    constants, overridden = assemble_constants(plant, cost, overrides)
    params = derive_dominance_params(constants)
    # The interval route is operative (the decay rate needs a concrete
    # weight); the scalar bound is algebraically equivalent and reported.
    xi = feasible_xi(params)
    _, rhs = check_mu_bound(constants)
    certified = xi is not None
    tau_at_alpha = decay_rate(params, xi.chosen, alpha) if xi is not None else None
    return CertificateReport(
        plant_kind=plant.kind,
        cost_kind=cost.kind,
        alpha=alpha,
        constants=constants,
        overridden=overridden,
        params=params,
        xi=xi,
        certified=certified,
        mu_bound_rhs=rhs,
        required_mu4=required_regularization(constants),
        tau_at_alpha=tau_at_alpha,
        claimed_mu_bound_rhs=claimed_mu_bound_rhs,
    )

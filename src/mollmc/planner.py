"""Closed-form parameter schedules reaching a target sampling accuracy.

Given a target accuracy ``epsilon`` and the constant ``C >= 1`` of the
concise error envelope, the planners return the smallest admissible step
count ``k`` together with the step size, smoothing radius, and (for the
mini-batch variant) batch size that the complexity analysis prescribes.  The
schedules are reproduced verbatim, not tuned: with realistic ``C`` and ``d``
the step counts are astronomically large, and the planner reports them
honestly instead of overflowing or clamping.

All arithmetic runs in mpmath extended precision because the formulas mix
``exp(2 C d)`` against ``epsilon**16``; ``k`` is an exact Python integer.

:func:`verify_plan` re-derives every inequality the proofs need from the
finished plan alone (independent code path from the planners) and reports
signed margins.  Its verdicts, margins and the serialized plan are evaluated
at ``PRECISION_DPS`` whatever precision the caller has set, so no result
depends on ambient mpmath state.

One wrinkle is documented rather than hidden: for the mini-batch schedule
the analysis text displays ``eta = sqrt(eps^4 / (16 C^4 d^4 k))`` and a batch
size inverse in ``k eta``, but its own proof inequalities (and the displayed
lower bound on ``k``, which matches them exactly) require

    eta = eps^4 / (48 C^4 d^{13/4} sqrt(k)),   n_batch >= 48 C^4 d^2 k eta / eps^4.

The displayed pair violates the envelope the proposition asserts, so this
module implements the proof-consistent pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp

__all__ = [
    "PlanRequest",
    "Plan",
    "PlanReport",
    "PlanItem",
    "UnsupportedRegimeError",
    "plan_lmc",
    "plan_ss_sg_lmc",
    "verify_plan",
    "PRECISION_DPS",
]

PRECISION_DPS = 60


class UnsupportedRegimeError(ValueError):
    """The gradient regularity exponent lies outside the analysed range."""


@dataclass(frozen=True)
class PlanRequest:
    """Inputs of a schedule: accuracy, dimension, envelope constant, and the
    step-size cap data ``m / (2 omega_one^2)``."""

    epsilon: float
    d: int
    c_const: float = 1.0
    alpha: float | None = None
    m: float = 1.0
    omega_one: float = 1.0

    def __post_init__(self):
        # each comparison is written so that NaN fails it
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if not (1 <= self.d < math.inf) or int(self.d) != self.d:
            raise ValueError(f"d must be a positive integer, got {self.d}")
        if not (1.0 <= self.c_const < math.inf):
            raise ValueError(f"c_const must be a finite envelope constant of at least 1, "
                             f"got {self.c_const}")
        for name in ("m", "omega_one"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.alpha is not None and not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")


@dataclass
class Plan:
    """One finished schedule; eta/r/envelope are mpmath values."""

    algorithm: str
    k: int
    eta: mp.mpf
    r: mp.mpf | None
    n_batch: int | None
    eta_capped: bool
    predicted_envelope: mp.mpf

    def to_dict(self) -> dict:
        with mp.workdps(PRECISION_DPS):
            log10_k = mp.nstr(mp.log10(mp.mpf(self.k)), 8)
        return {
            "algorithm": self.algorithm,
            "k": int(self.k),
            "log10_k": log10_k,
            "eta": mp.nstr(self.eta, 17),
            "r": None if self.r is None else mp.nstr(self.r, 17),
            "n_batch": self.n_batch,
            "eta_capped": self.eta_capped,
            "predicted_envelope": mp.nstr(self.predicted_envelope, 12),
        }


def _cap(req: PlanRequest) -> mp.mpf:
    return mp.mpf(req.m) / (2 * mp.mpf(req.omega_one) ** 2)


def plan_lmc(req: PlanRequest) -> Plan:
    """Schedule for the exact-gradient chain under a Hoelder-type modulus.

    Three regimes by the exponent ``alpha``: (1/3, 2/3], (2/3, 1), and 1.
    In each, ``k`` is the ceiling of the displayed lower bound, the step size
    follows the displayed formula capped at ``m / (2 omega_one^2)``, and the
    smoothing radius (absent at ``alpha = 1``) balances the step term
    exactly: ``d^2 r^{alpha-1} k eta^2 = eps^4 / (48 C^4 d^2)``.
    """
    if req.alpha is None:
        raise ValueError("plan_lmc needs the regularity exponent alpha")
    if not (1.0 / 3.0 < req.alpha <= 1.0):
        raise UnsupportedRegimeError(
            f"alpha must lie in (1/3, 1]; got {req.alpha} (no guarantee below 1/3)"
        )
    with mp.workdps(PRECISION_DPS):
        eps = mp.mpf(req.epsilon)
        c = mp.mpf(req.c_const)
        d = mp.mpf(req.d)
        a = mp.mpf(req.alpha)
        logt = mp.log(2 * c * d / eps)
        cap = _cap(req)

        if req.alpha == 1.0:
            k_min = 16 * c**8 * d**16 * mp.e ** (2 * c * d) * logt**2 / eps**4
            k = int(mp.ceil(k_min))
            eta_raw = mp.sqrt(eps**4 / (16 * c**4 * d**4 * k))
            eta = min(eta_raw, cap)
            r = None
        else:
            growth = (3 * a + 1) / (3 * a - 1)
            k_min = (
                d**2
                * (c * d**3 * mp.e ** (c * d) * logt) ** growth
                * (48 * c**4 * d**2 / eps**4) ** (2 / (3 * a - 1))
            )
            if req.alpha > 2.0 / 3.0:
                extra = d ** ((5 + 3 * a) / 2) * (48 * c**4 * d**2 / eps**4) ** (3 * a)
                k_min = max(k_min, extra)
            k = int(mp.ceil(k_min))
            q = eps**4 / (48 * c**4 * d**2)
            eta_raw = d ** (-4 * a / (1 + 3 * a)) * (q / k) ** ((1 + a) / (1 + 3 * a))
            eta = min(eta_raw, cap)
            r = (q / (k * eta)) ** (1 / (2 * a))

        envelope = _lmc_envelope(eps, c, d, a, k, eta, r)
        return Plan(
            algorithm="lmc",
            k=k,
            eta=eta,
            r=r,
            n_batch=None,
            eta_capped=bool(eta < eta_raw),
            predicted_envelope=envelope,
        )


def plan_ss_sg_lmc(req: PlanRequest) -> Plan:
    """Schedule for the mini-batch smoothed chain (no regularity exponent).

    ``omega_one`` is the unit-scale value of the aggregate component modulus.
    """
    with mp.workdps(PRECISION_DPS):
        eps = mp.mpf(req.epsilon)
        c = mp.mpf(req.c_const)
        d = mp.mpf(req.d)
        logt = mp.log(2 * c * d / eps)
        cap = _cap(req)

        k_min = 48**4 * c**18 * d ** mp.mpf("17.5") * mp.e ** (2 * c * d) * logt**2 / eps**16
        k = int(mp.ceil(k_min))
        # proof-consistent step size; see the module docstring
        eta_raw = eps**4 / (48 * c**4 * d ** mp.mpf("3.25") * mp.sqrt(k))
        eta = min(eta_raw, cap)
        r = eps**4 / (48 * c**4 * d ** mp.mpf("2.5"))
        n_batch = int(mp.ceil(48 * c**4 * d**2 * k * eta / eps**4))

        envelope = _ss_envelope(eps, c, d, k, eta, r, n_batch)
        return Plan(
            algorithm="ss_sg_lmc",
            k=k,
            eta=eta,
            r=r,
            n_batch=n_batch,
            eta_capped=bool(eta < eta_raw),
            predicted_envelope=envelope,
        )


def _lmc_envelope(eps, c, d, a, k, eta, r):
    if a == 1:
        first = c * d * (k * eta**2) ** mp.mpf("0.25")
        decay = mp.e ** (-k * eta / (c * d**3 * mp.e ** (c * d)))
    else:
        s = (d**2 * r ** (a - 1) * eta + r ** (2 * a)) * k * eta + r * mp.sqrt(d)
        first = c * mp.sqrt(d) * s ** mp.mpf("0.25")
        decay = mp.e ** (-k * eta / (c * r ** (a - 1) * d**3 * mp.e ** (c * d)))
    return first + c * d * decay


def _ss_envelope(eps, c, d, k, eta, r, n_batch):
    s = (d**2 / r * eta + mp.mpf(1) / n_batch) * k * eta + r * mp.sqrt(d)
    first = c * mp.sqrt(d) * s ** mp.mpf("0.25")
    decay = mp.e ** (-k * eta * r / (c * d**3 * mp.e ** (c * d)))
    return first + c * d * decay


_EQUALITY_SLACK = mp.mpf("1e-30")


@dataclass(frozen=True)
class PlanItem:
    name: str
    lhs: mp.mpf
    rhs: mp.mpf

    @property
    def margin(self) -> mp.mpf:
        with mp.workdps(PRECISION_DPS):
            return self.rhs - self.lhs

    @property
    def ok(self) -> bool:
        # several schedule terms meet their bound with exact equality by
        # construction; extended-precision rounding must not flip those.  The
        # slack is far below the caller's default 15 digits, so the sum must be
        # formed at PRECISION_DPS or it rounds back to rhs.
        with mp.workdps(PRECISION_DPS):
            return self.lhs <= self.rhs + _EQUALITY_SLACK * max(mp.mpf(1), abs(self.rhs))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": mp.nstr(self.lhs, 12),
            "rhs": mp.nstr(self.rhs, 12),
            "margin": mp.nstr(self.margin, 12),
            "ok": self.ok,
        }


@dataclass(frozen=True)
class PlanReport:
    algorithm: str
    items: tuple

    @property
    def passed(self) -> bool:
        return all(item.ok for item in self.items)

    def failures(self):
        return [item for item in self.items if not item.ok]

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "passed": self.passed,
            "items": [item.to_dict() for item in self.items],
        }


def verify_plan(plan: Plan, req: PlanRequest) -> PlanReport:
    """Re-derive every proof inequality from the finished plan.

    Checks the step-size cap, the per-term bounds whose sum controls the
    fourth-root factor, the envelope precondition, the split of the target
    accuracy between the two envelope terms, and the total.

    An item is satisfied when ``lhs <= rhs + 1e-30 * max(1, |rhs|)``,
    evaluated at ``PRECISION_DPS`` whatever the caller's precision.  The
    slack admits the terms that meet their bound with equality by
    construction, so such an item can show a margin ``rhs - lhs`` of either
    sign at the rounding level (say ``-7.3e-63``) and still be satisfied.
    """
    with mp.workdps(PRECISION_DPS):
        eps = mp.mpf(req.epsilon)
        c = mp.mpf(req.c_const)
        d = mp.mpf(req.d)
        k = mp.mpf(plan.k)
        eta = plan.eta
        items = [
            PlanItem("k_at_least_one", mp.mpf(1), k),
            PlanItem("eta_le_one", eta, mp.mpf(1)),
            PlanItem("eta_le_cap", eta, _cap(req)),
        ]
        q = eps**4 / (48 * c**4 * d**2)

        if plan.algorithm == "lmc" and req.alpha == 1.0:
            step_term = k * eta**2
            items.append(PlanItem("step_term", step_term, eps**4 / (16 * c**4 * d**4)))
            items.append(PlanItem("f_term_le_one", step_term, mp.mpf(1)))
            first = c * d * step_term ** mp.mpf("0.25")
            expo = c * d * mp.e ** (-k * eta / (c * d**3 * mp.e ** (c * d)))
        elif plan.algorithm == "lmc":
            a = mp.mpf(req.alpha)
            r = plan.r
            items.append(PlanItem("r_le_one", r, mp.mpf(1)))
            items.append(PlanItem("r_positive", -r, mp.mpf(0)))
            t_step = d**2 * r ** (a - 1) * k * eta**2
            t_bias = r ** (2 * a) * k * eta
            t_smooth = r * mp.sqrt(d)
            items.append(PlanItem("step_term", t_step, q))
            items.append(PlanItem("bias_term", t_bias, q))
            items.append(PlanItem("smoothing_term", t_smooth, q))
            s = t_step + t_bias + t_smooth
            items.append(PlanItem("f_term_le_one", s, mp.mpf(1)))
            first = c * mp.sqrt(d) * s ** mp.mpf("0.25")
            expo = c * d * mp.e ** (-k * eta / (c * r ** (a - 1) * d**3 * mp.e ** (c * d)))
        elif plan.algorithm == "ss_sg_lmc":
            r = plan.r
            nb = mp.mpf(plan.n_batch)
            items.append(PlanItem("r_le_one", r, mp.mpf(1)))
            items.append(PlanItem("r_positive", -r, mp.mpf(0)))
            items.append(PlanItem("n_batch_at_least_one", mp.mpf(1), nb))
            t_step = d**2 / r * k * eta**2
            t_batch = k * eta / nb
            t_smooth = r * mp.sqrt(d)
            items.append(PlanItem("step_term", t_step, q))
            items.append(PlanItem("batch_term", t_batch, q))
            items.append(PlanItem("smoothing_term", t_smooth, q))
            s = t_step + t_batch + t_smooth
            items.append(PlanItem("f_term_le_one", s, mp.mpf(1)))
            first = c * mp.sqrt(d) * s ** mp.mpf("0.25")
            expo = c * d * mp.e ** (-k * eta * r / (c * d**3 * mp.e ** (c * d)))
        else:
            raise ValueError(f"unknown plan algorithm {plan.algorithm!r}")

        items.append(PlanItem("first_term_le_half_eps", first, eps / 2))
        items.append(PlanItem("exp_term_le_half_eps", expo, eps / 2))
        items.append(PlanItem("total_le_eps", first + expo, eps))
        return PlanReport(algorithm=plan.algorithm, items=tuple(items))

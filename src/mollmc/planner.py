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

Each regime's f-terms, their sum and the envelope's two terms are written
once, in ``_envelope``: the planners take ``predicted_envelope`` from it, and
:func:`verify_plan` turns the same terms into its items, so the printed
envelope is the total that the verification checks.  The closed-form
schedules for ``k``, ``eta``, ``r`` and ``n_batch`` live only in the planners,
so :func:`verify_plan` still re-derives every inequality the proofs need
from the finished plan alone, apart from how the plan was made, and reports
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

The records are ``typing.NamedTuple`` classes, not dataclasses: ``mollmc plan``
imports this module, and ``dataclasses`` would load ``inspect`` with it, about
13 ms of a 150 ms process that nothing else in ``plan`` needs.  ``PlanRequest``
checks its inputs in ``__new__``; its ``_replace`` and ``_make`` do not.  A
``k`` of more than ``K_DIGITS`` digits is refused before it is built, since
printing an int takes time quadratic in its digits.
"""

from __future__ import annotations

from typing import NamedTuple

import mpmath as mp

from . import _args

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
    "K_DIGITS",
]

PRECISION_DPS = 60
# the most digits a planned k may have; str() of an int takes time quadratic in them
K_DIGITS = 100_000


class UnsupportedRegimeError(ValueError):
    """The gradient regularity exponent lies outside the analysed range."""


class _Request(NamedTuple):
    epsilon: float
    d: int
    c_const: float = 1.0
    alpha: float | None = None
    m: float = 1.0
    omega_one: float = 1.0


class PlanRequest(_Request):
    """Inputs of a schedule: accuracy, dimension, envelope constant, and the
    step-size cap data ``m / (2 omega_one^2)``.  Checked when built; ``_replace``
    skips the check."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _args.unit("epsilon", self.epsilon)
        _args.count("d", self.d)
        if _args.finite("c_const", self.c_const) < 1:
            raise ValueError(f"c_const must be a finite envelope constant of at least 1, "
                             f"got {self.c_const}")
        _args.positive("m", self.m)
        _args.positive("omega_one", self.omega_one)
        if self.alpha is not None:
            _args.finite("alpha", self.alpha)
        return self


class Plan(NamedTuple):
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


def _inputs(req: PlanRequest):
    """``(epsilon, C, d)`` as mpmath numbers, for use at ``PRECISION_DPS``."""
    return mp.mpf(req.epsilon), mp.mpf(req.c_const), mp.mpf(int(req.d))


def _cap(req: PlanRequest) -> mp.mpf:
    return mp.mpf(req.m) / (2 * mp.mpf(req.omega_one) ** 2)


def _ceil_k(k: mp.mpf) -> int:
    """``ceil(k)`` as an int, or a ``ValueError`` giving ``log10 k`` where ``k``
    has more than ``K_DIGITS`` digits.  The test comes before ``int()``, which
    cannot hold ``e^(2e300)`` and builds a million digits quickly, though printing
    them takes minutes.  Every planned ``k`` becomes an int here; ``n_batch``,
    below ``sqrt(k) + 1``, fits."""
    log10_k = mp.log10(k)
    if log10_k >= K_DIGITS:
        raise ValueError(f"k has more than {K_DIGITS:,} digits "
                         f"(log10 k = {mp.nstr(log10_k, 8)})")
    return int(mp.ceil(k))


def _capped(req: PlanRequest, k: int, eta_raw: mp.mpf):
    """``(k, eta)`` with ``eta`` capped at ``m / (2 omega_one^2)``.

    Where the cap binds, ``k`` grows to ``ceil(k eta_raw / eta)`` so that
    ``k eta``, and with it the exponential decay, is at least the uncapped
    schedule's.
    """
    eta = min(eta_raw, _cap(req))
    if eta < eta_raw:
        k = _ceil_k(k * eta_raw / eta)
    return k, eta


def plan_lmc(req: PlanRequest) -> Plan:
    """Schedule for the exact-gradient chain under a Hoelder-type modulus.

    Three regimes by the exponent ``alpha``: (1/3, 2/3], (2/3, 1), and 1.
    In each, ``k`` is the ceiling of the displayed lower bound, the step size
    follows the displayed formula capped at ``m / (2 omega_one^2)``, and the
    smoothing radius (absent at ``alpha = 1``) meets the bias term with
    equality: ``r^{2 alpha} k eta = eps^4 / (48 C^4 d^2)``; uncapped, the step
    term ``d^2 r^{alpha-1} k eta^2`` meets the same bound with equality too.
    Where the cap binds, ``k`` first grows to ``ceil(k eta_raw / eta)``, so
    ``k eta`` is at least the uncapped schedule's and ``r`` at most its.
    """
    if req.alpha is None:
        raise ValueError("plan_lmc needs the regularity exponent alpha")
    if not (1.0 / 3.0 < req.alpha <= 1.0):
        raise UnsupportedRegimeError(
            f"alpha must lie in (1/3, 1]; got {req.alpha} (no guarantee below 1/3)"
        )
    with mp.workdps(PRECISION_DPS):
        eps, c, d = _inputs(req)
        a = mp.mpf(req.alpha)
        logt = mp.log(2 * c * d / eps)
        q = eps**4 / (48 * c**4 * d**2)

        if req.alpha == 1.0:
            k = _ceil_k(16 * c**8 * d**16 * mp.e ** (2 * c * d) * logt**2 / eps**4)
            eta_raw = mp.sqrt(eps**4 / (16 * c**4 * d**4 * k))
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
            k = _ceil_k(k_min)
            eta_raw = d ** (-4 * a / (1 + 3 * a)) * (q / k) ** ((1 + a) / (1 + 3 * a))
        k, eta = _capped(req, k, eta_raw)
        r = None if req.alpha == 1.0 else (q / (k * eta)) ** (1 / (2 * a))

        _, first, expo = _envelope(req, "lmc", k, eta, r, None)
        return Plan("lmc", k, eta, r, None, bool(eta < eta_raw), first + expo)


def plan_ss_sg_lmc(req: PlanRequest) -> Plan:
    """Schedule for the mini-batch smoothed chain (no regularity exponent).

    ``omega_one`` is the unit-scale value of the aggregate component modulus.
    Where the step-size cap ``m / (2 omega_one^2)`` binds, ``k`` grows to
    ``ceil(k eta_raw / eta)`` before ``n_batch`` is set, so ``k eta`` is at
    least the uncapped schedule's.  A request that gives ``alpha`` is refused.
    """
    if req.alpha is not None:
        raise ValueError(f"the ss_sg_lmc schedule takes no alpha (lmc only), got {req.alpha}")
    with mp.workdps(PRECISION_DPS):
        eps, c, d = _inputs(req)
        logt = mp.log(2 * c * d / eps)

        k_min = 48**4 * c**18 * d ** mp.mpf("17.5") * mp.e ** (2 * c * d) * logt**2 / eps**16
        k = _ceil_k(k_min)
        # proof-consistent step size; see the module docstring
        eta_raw = eps**4 / (48 * c**4 * d ** mp.mpf("3.25") * mp.sqrt(k))
        k, eta = _capped(req, k, eta_raw)
        r = eps**4 / (48 * c**4 * d ** mp.mpf("2.5"))
        n_batch = int(mp.ceil(48 * c**4 * d**2 * k * eta / eps**4))

        _, first, expo = _envelope(req, "ss_sg_lmc", k, eta, r, n_batch)
        return Plan("ss_sg_lmc", k, eta, r, n_batch, bool(eta < eta_raw), first + expo)


def _envelope(req: PlanRequest, algorithm: str, k, eta, r, n_batch):
    """The regime's own items, and the envelope's first and exponential terms.

    The f-terms (step, bias or batch, smoothing) each get their share of the
    fourth-root factor; their sum ``s`` gives the first term ``C lead s^{1/4}``
    and the exponential term is ``C d exp(-rate)``.  Both planners and
    :func:`verify_plan` take the envelope from here, at ``PRECISION_DPS``.
    """
    eps, c, d = _inputs(req)
    k = mp.mpf(k)
    q = eps**4 / (48 * c**4 * d**2)
    one, zero = mp.mpf(1), mp.mpf(0)
    if algorithm == "lmc" and req.alpha == 1.0:
        checks = []
        terms = [PlanItem("step_term", k * eta**2, eps**4 / (16 * c**4 * d**4))]
        lead, rate = d, k * eta / (c * d**3 * mp.e ** (c * d))
    elif algorithm == "lmc":
        a = mp.mpf(req.alpha)
        checks = [PlanItem("r_le_one", r, one), PlanItem("r_positive", -r, zero)]
        terms = [PlanItem("step_term", d**2 * r ** (a - 1) * k * eta**2, q),
                 PlanItem("bias_term", r ** (2 * a) * k * eta, q),
                 PlanItem("smoothing_term", r * mp.sqrt(d), q)]
        lead, rate = mp.sqrt(d), k * eta / (c * r ** (a - 1) * d**3 * mp.e ** (c * d))
    elif algorithm == "ss_sg_lmc":
        nb = mp.mpf(n_batch)
        checks = [PlanItem("r_le_one", r, one), PlanItem("r_positive", -r, zero),
                  PlanItem("n_batch_at_least_one", one, nb)]
        terms = [PlanItem("step_term", d**2 / r * k * eta**2, q),
                 PlanItem("batch_term", k * eta / nb, q),
                 PlanItem("smoothing_term", r * mp.sqrt(d), q)]
        lead, rate = mp.sqrt(d), k * eta * r / (c * d**3 * mp.e ** (c * d))
    else:
        raise ValueError(f"unknown plan algorithm {algorithm!r}")
    s = sum(term.lhs for term in terms)
    items = [*checks, *terms, PlanItem("f_term_le_one", s, one)]
    return items, c * lead * s ** mp.mpf("0.25"), c * d * mp.e ** -rate


_EQUALITY_SLACK = mp.mpf("1e-30")


class PlanItem(NamedTuple):
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


class PlanReport(NamedTuple):
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
        regime, first, expo = _envelope(req, plan.algorithm, plan.k, plan.eta, plan.r, plan.n_batch)
        eps = mp.mpf(req.epsilon)
        items = [
            PlanItem("k_at_least_one", mp.mpf(1), mp.mpf(plan.k)),
            PlanItem("eta_le_one", plan.eta, mp.mpf(1)),
            PlanItem("eta_le_cap", plan.eta, _cap(req)),
            *regime,
            PlanItem("first_term_le_half_eps", first, eps / 2),
            PlanItem("exp_term_le_half_eps", expo, eps / 2),
            PlanItem("total_le_eps", first + expo, eps),
        ]
        return PlanReport(algorithm=plan.algorithm, items=tuple(items))

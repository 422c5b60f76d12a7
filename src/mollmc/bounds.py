"""Explicit constants and the 2-Wasserstein error envelope for a chain run.

Everything here is plain arithmetic: each function evaluates one displayed
constant or inequality of the non-asymptotic error analysis, and
:func:`theorem_bound` assembles them into the full envelope

    W2 <= 2 C1 (sqrt(f) + f^{1/4}) + C1' sqrt(C2 + sqrt(C2)) exp(-k eta / (2 beta c_LS))

with ``f`` collecting the discretisation, bias/variance, and smoothing
contributions.  The bounds are faithful, not useful-by-construction: with
realistic inputs the functional-inequality constants contain factors like
``exp(beta * U0)`` and the envelope can be astronomically larger than any
target accuracy.  Values that overflow float range are reported as ``inf``
together with their logarithm; nothing is clamped.

Inputs live in :class:`BoundInputs`; the bias/variance quadruple ``delta``
follows the quadratic-growth convention

    |E G - grad U_r|^2   <= 2 delta_b2 |x|^2 + 2 delta_b0,
    E |G - E G|^2        <= 2 delta_v2 |x|^2 + 2 delta_v0.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import mpmath as mp
import numpy as np

from . import _args
from .continuity import ModulusSpec

__all__ = [
    "BoundInputs",
    "TheoremBound",
    "eta_max",
    "kappa_inf",
    "c_zero",
    "poincare_bound",
    "poincare_log_bound",
    "log_sobolev_bound",
    "kl_discretization",
    "kl_initial",
    "theorem_bound",
    "exp_moment_bound",
    "gaussian_kappa0",
    "gaussian_log_p0_sup",
    "inputs_from",
]

@dataclass(frozen=True)
class BoundInputs:
    """Everything the envelope arithmetic needs about one configured run.

    ``m, b`` are the potential's dissipativity constants, ``m_tilde,
    b_tilde`` those of the oracle's mean gradient; ``kappa0`` is the log
    exponential moment of the initial law and ``p0_sup_log`` the log of its
    density sup; ``a_abs`` is the absolute constant of the Poincare bound,
    configurable because the analysis only asserts it exists.  A ``delta``
    entry may be inf, a bias or variance bound beyond float range such as
    ``omega(r)^2 / 2`` at a huge modulus; the envelope is then vacuous.
    """

    d: int
    beta: float
    m: float
    b: float
    m_tilde: float
    b_tilde: float
    kappa0: float
    p0_sup_log: float
    grad_u_mnorm: float
    g_tilde_mnorm: float
    omega_grad_u: ModulusSpec
    omega_g_tilde_one: float
    u0: float
    delta: tuple = (0.0, 0.0, 0.0, 0.0)
    a_abs: float = 1.0

    def __post_init__(self):
        _args.count("d", self.d)
        for name in ("beta", "m", "m_tilde", "a_abs"):
            _args.positive(name, getattr(self, name))
        for name in ("b", "b_tilde", "kappa0", "grad_u_mnorm", "g_tilde_mnorm",
                     "omega_g_tilde_one", "u0"):
            _args.nonnegative(name, getattr(self, name))
        _args.finite("p0_sup_log", self.p0_sup_log)
        if len(self.delta) != 4:
            raise ValueError(f"delta must have four entries, got {self.delta}")
        for v in self.delta:
            _args.upper("delta", v)
        object.__setattr__(self, "delta", tuple(float(v) for v in self.delta))


def _square(x: float) -> float:
    """``x**2``, or inf where that overflows (``**`` raises there)."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def eta_max(inputs: BoundInputs) -> float:
    """Largest admissible step size, ``1 and m_tilde / (2 (omega_G(1)^2 + delta_v2))``.
    The root of the sum is taken by ``hypot``, so it is a float wherever the bound is."""
    h = math.hypot(inputs.omega_g_tilde_one, math.sqrt(inputs.delta[3]))
    return min(1.0, inputs.m_tilde / h / h / 2.0) if h else 1.0


def _check_eta(inputs: BoundInputs, eta: float) -> float:
    hi = eta_max(inputs)
    if not (0.0 < eta < hi):
        raise ValueError(
            f"step size {eta} outside the admissible range (0, {hi}); "
            "the moment bound needs eta < m_tilde / (2 (omega_G(1)^2 + delta_v2))"
        )
    return float(eta)


def kappa_inf(inputs: BoundInputs, eta: float) -> float:
    """Uniform-in-time second-moment bound of the chain.

    ``kappa0 + 2 (1 or 1/m_tilde) (b_tilde + eta ||G||^2 + delta_v0 + d/beta)``.
    """
    eta = _check_eta(inputs, eta)
    lever = max(1.0, 1.0 / inputs.m_tilde)
    return inputs.kappa0 + 2.0 * lever * (
        inputs.b_tilde + eta * _square(inputs.g_tilde_mnorm) + inputs.delta[2]
        + inputs.d / inputs.beta
    )


def c_zero(inputs: BoundInputs, eta: float) -> float:
    """Coefficient of the step-size term in the discretisation divergence."""
    ki = kappa_inf(inputs, eta)
    core = inputs.delta[2] + _square(inputs.g_tilde_mnorm) + (
        _square(inputs.omega_g_tilde_one) + inputs.delta[3]
    ) * ki
    return (inputs.d + 4) * (inputs.beta / 3.0 * core + inputs.d / 2.0)


def _poincare_pieces(inputs: BoundInputs) -> tuple[float, float]:
    """(first summand, log of second summand)."""
    s = inputs.d + (inputs.b + inputs.m) * inputs.beta
    mb = inputs.m * inputs.beta
    first = 4.0 / (mb * s)
    arg = inputs.beta * (
        25.0 / 16.0 * inputs.grad_u_mnorm * (1.0 + 8.0 * s / mb) + inputs.u0
    )
    log_second = math.log(8.0 * inputs.a_abs * s / mb) + arg
    return first, log_second


def poincare_bound(inputs: BoundInputs) -> float:
    """Upper bound for the Poincare constant of the smoothed Gibbs measure.

    Independent of the smoothing radius; ``inf`` when the exponential factor
    leaves float range (see :func:`poincare_log_bound`).
    """
    first, log_second = _poincare_pieces(inputs)
    try:
        return first + math.exp(log_second)
    except OverflowError:
        return math.inf


def poincare_log_bound(inputs: BoundInputs) -> float:
    """log of the Poincare bound, finite even when the bound itself overflows."""
    first, log_second = _poincare_pieces(inputs)
    # a first summand below float range is no summand
    return float(np.logaddexp(math.log(first) if first > 0.0 else -math.inf, log_second))


def log_sobolev_bound(inputs: BoundInputs, r: float) -> float:
    """Upper bound for the log-Sobolev constant of the smoothed Gibbs measure."""
    w = inputs.omega_grad_u.eval(_args.unit("r", r))
    if w <= 0.0:  # an omega(r) that underflows
        raise ValueError(f"gradient modulus vanishes at r={r}")
    cp = poincare_bound(inputs)
    s = inputs.d + (inputs.b + inputs.m) * inputs.beta
    mb = inputs.m * inputs.beta
    lam = (inputs.d + 4) * w / r
    try:
        curvature = 32.0 / (inputs.m**2 * inputs.beta**2)
    except OverflowError:  # (m beta)^2 above float range
        curvature = 0.0
    except ZeroDivisionError:  # and below it
        curvature = math.inf
    return (
        lam * (curvature + 12.0 * s * cp / mb)
        + 2.0 * r / lam
        + 2.0 * cp
    )


def kl_discretization(inputs: BoundInputs, r: float, eta: float, k: int) -> float:
    """Divergence between the chain and the smoothed dynamics after k steps.

    ``(C0 omega(r)/r eta + beta (delta_{r,2} kappa_inf + delta_{r,0})) k eta``.
    """
    _args.unit("r", r)
    _args.count("k", k, least=0)
    db0, db2, dv0, dv2 = inputs.delta
    ki = kappa_inf(inputs, eta)
    c0 = c_zero(inputs, eta)
    w = inputs.omega_grad_u.eval(r)
    rate = c0 * w / r * eta + inputs.beta * ((db2 + dv2) * ki + (db0 + dv0))
    return rate * k * eta


def kl_initial(inputs: BoundInputs) -> float:
    """Divergence of the initial law from the smoothed Gibbs measure.

    This is the inner (pre square root) expression; it can be negative for
    extreme inputs, in which case the envelope constant built on it is
    undefined and flagged rather than guessed.
    """
    w1 = inputs.omega_grad_u.eval(1.0)
    return (
        inputs.p0_sup_log
        + 0.5 * inputs.d * math.log(3.0 * math.pi / (inputs.m * inputs.beta))
        + inputs.beta
        * (
            0.5 * w1 * inputs.kappa0
            + 2.5 * inputs.grad_u_mnorm * math.sqrt(inputs.kappa0)
            + inputs.u0
            + 0.5 * inputs.b * math.log(3.0)
        )
    )


@dataclass(frozen=True)
class TheoremBound:
    """All assembled constants plus the evaluated envelope."""

    c0: float
    c1: float
    c1_prime: float
    c2: float
    kappa_inf: float
    c_p_bound: float
    c_p_log: float
    c_ls_bound: float
    f_value: float
    first_term: float
    exp_term: float
    w2_bound: float
    notes: tuple = field(default=())

    @property
    def vacuous(self) -> bool:
        return bool(self.notes) or not math.isfinite(self.w2_bound)

    def to_dict(self) -> dict:
        out = asdict(self)
        notes = out.pop("notes")
        return {**out, "vacuous": self.vacuous, "notes": list(notes)}


def theorem_bound(inputs: BoundInputs, r: float, eta: float, k: int) -> TheoremBound:
    """Evaluate the full error envelope for a run of ``k`` steps at ``(r, eta)``."""
    eta = _check_eta(inputs, eta)
    _args.unit("r", r)
    _args.count("k", k)

    notes = []
    if math.inf in inputs.delta:
        notes.append(f"delta = {inputs.delta} has an entry beyond float range (vacuous bound)")
    ki = kappa_inf(inputs, eta)
    c0 = c_zero(inputs, eta)

    floor = min(1.0, inputs.beta * inputs.m / 4.0)  # 0 where beta m is below float range
    tail = 32.0 * (inputs.b + inputs.m + inputs.d / inputs.beta) / inputs.m + (
        10.0 / floor if floor else math.inf
    )
    c1 = 2.0 * math.sqrt(4.0 * inputs.kappa0 + tail)
    c1p = 2.0 * math.sqrt(tail)

    inner = kl_initial(inputs)
    if inner < 0.0:
        c2 = math.nan
        notes.append("initial-divergence expression negative; C2 undefined (vacuous bound)")
    else:
        c2 = math.sqrt(inner)

    cp = poincare_bound(inputs)
    cp_log = poincare_log_bound(inputs)
    if not math.isfinite(cp):
        notes.append(f"Poincare bound overflows float range; log value {cp_log:.6g}")
    cls = log_sobolev_bound(inputs, r)
    if math.isfinite(cp) and not math.isfinite(cls):
        notes.append("log-Sobolev bound overflows float range; exponential term taken undecayed")

    f = kl_discretization(inputs, r, eta, k) + (
        0.5
        * inputs.beta
        * r
        * inputs.grad_u_mnorm
        * (3.0 + math.sqrt((inputs.b + inputs.d / inputs.beta) / inputs.m))
    )
    first = 2.0 * c1 * (math.sqrt(f) + f**0.25)
    if math.isfinite(cls):
        decay = math.exp(-k * eta / (2.0 * inputs.beta * cls))
    else:
        decay = 1.0
    expo = c1p * math.sqrt(c2 + math.sqrt(c2)) * decay if not math.isnan(c2) else math.nan
    total = first + expo
    return TheoremBound(
        c0=c0,
        c1=c1,
        c1_prime=c1p,
        c2=c2,
        kappa_inf=ki,
        c_p_bound=cp,
        c_ls_bound=cls,
        f_value=f,
        first_term=first,
        exp_term=expo,
        w2_bound=total,
        c_p_log=cp_log,
        notes=tuple(notes),
    )


def exp_moment_bound(
    inputs: BoundInputs,
    t: float,
    alpha_exp: float,
    init_exp_moment: float | None = None,
) -> float:
    """Bound on ``E exp(alpha |X_t|^2)`` along the smoothed dynamics.

    Uses the smoothed dissipativity constants ``m_bar = m/2`` and
    ``b_bar = b + m``; requires ``alpha in (0, beta m_bar)``.  ``t = inf``
    gives the asymptote without needing the initial exponential moment; for
    finite ``t`` the initial moment defaults to the standard Gaussian value
    ``(1 - 2 alpha)^{-d/2}`` (only defined for ``alpha < 1/2``).
    """
    m_bar = 0.5 * inputs.m
    b_bar = inputs.b + inputs.m
    if not (0.0 < alpha_exp < inputs.beta * m_bar):
        raise ValueError(
            f"alpha must lie in (0, beta*m/2) = (0, {inputs.beta * m_bar}), got {alpha_exp}"
        )
    if not t >= 0.0:  # written so that NaN fails it
        raise ValueError(f"time must be nonnegative, got {t}")
    if init_exp_moment is not None:
        _args.positive("init_exp_moment", init_exp_moment)
    rate = 2.0 * alpha_exp * (b_bar + inputs.d / inputs.beta)
    asym_log = 2.0 * alpha_exp * (b_bar + inputs.d / inputs.beta) / (
        m_bar - alpha_exp / inputs.beta
    )
    try:
        asym = 2.0 * math.exp(asym_log)
    except OverflowError:
        asym = math.inf
    if math.isinf(t):
        return asym
    if init_exp_moment is None:
        if alpha_exp >= 0.5:
            raise ValueError(
                "standard Gaussian initial moment undefined for alpha >= 1/2; "
                "pass init_exp_moment explicitly"
            )
        init_exp_moment = (1.0 - 2.0 * alpha_exp) ** (-0.5 * inputs.d)
    w = math.exp(-rate * t)
    return init_exp_moment * w + asym * (1.0 - w)


def gaussian_kappa0(d: int) -> float:
    """log E exp(|x|) for a standard Gaussian in dimension d, in closed form.

    ``|x|`` is chi-distributed with d degrees of freedom, so

        E exp(|x|) = M(d/2, 1/2, 1/2)
                     + sqrt(2) Gamma((d+1)/2) / Gamma(d/2) M((d+1)/2, 3/2, 1/2)

    with ``M`` Kummer's confluent hypergeometric function.  Both terms are
    positive, and the sum is evaluated at 40 digits whatever precision the
    caller has set.
    """
    _args.count("d", d)
    with mp.workdps(40):
        a = mp.mpf(d) / 2
        half = mp.mpf(1) / 2
        gamma_ratio = mp.exp(mp.loggamma(a + half) - mp.loggamma(a))
        mgf = mp.hyp1f1(a, half, half) + mp.sqrt(2) * gamma_ratio * mp.hyp1f1(
            a + half, 3 * half, half
        )
        return float(mp.log(mgf))


def gaussian_log_p0_sup(d: int) -> float:
    """log of the density sup of a standard Gaussian in dimension d."""
    return -0.5 * d * math.log(2.0 * math.pi)


def inputs_from(oracle, beta: float, r: float, a_abs: float = 1.0) -> BoundInputs:
    """Assemble :class:`BoundInputs` for an oracle and its potential at radius r.

    This states what the analysis assumes of each oracle, with ``omega`` the
    potential's gradient modulus.  The exact gradient (``n_batch == 0``) is
    its own mean: the potential's ``(m, b)``, norm ``|grad U(0)| + omega(1)``
    and ``omega(1)``.  It is off the radius-``r`` smoothed gradient by at most
    ``omega(r)``, a squared bias ``delta_b0 = omega(r)^2 / 2``.  A smoothed
    oracle is unbiased at its own radius only, so ``r`` must be ``oracle.r``.
    Smoothing makes the mean's constants ``(m / 2, b + m)`` and adds
    ``omega(r)`` to its norm, and each of the ``n_batch`` points deviates by
    at most ``omega(r)``, a variance ``delta_v0 = omega(r)^2 / (2 n_batch)``.
    A finite sum reads the potential an ``equal_split`` sum was split from:
    its components are identical, so picking them adds no variance to that
    of the smoothing draws.  A sum of distinct components has no potential
    and no bound on that variance, and is refused.

    Assumes the standard Gaussian initial law (the default of the samplers);
    other initial laws need hand-built inputs because a point mass has no
    density and a custom law has no declared moments.
    """
    _args.unit("r", r)
    p = oracle.potential
    if p is None:
        raise ValueError("component-sampling variance is only bounded for equal_split sums")
    w1 = p.modulus.eval(1.0)
    if oracle.n_batch == 0:
        w = p.modulus.eval(r)
        m_tilde, b_tilde, mnorm = p.m, p.b, p.grad_at_zero + w1
        delta = (0.5 * w * w, 0.0, 0.0, 0.0)
    else:
        if not math.isclose(r, oracle.r, rel_tol=1e-12, abs_tol=0.0):
            raise ValueError(
                "bias/variance coefficients are only available at the oracle's "
                f"own smoothing radius {oracle.r}, got {r}"
            )
        w = p.modulus.eval(oracle.r)
        m_tilde, b_tilde, mnorm = 0.5 * p.m, p.b + p.m, p.grad_at_zero + w + w1
        delta = (0.0, 0.0, 0.5 * w * w / oracle.n_batch, 0.0)
    return BoundInputs(
        d=p.dim,
        beta=float(beta),
        m=p.m,
        b=p.b,
        m_tilde=m_tilde,
        b_tilde=b_tilde,
        kappa0=gaussian_kappa0(p.dim),
        p0_sup_log=gaussian_log_p0_sup(p.dim),
        grad_u_mnorm=p.grad_at_zero + w1,
        g_tilde_mnorm=mnorm,
        omega_grad_u=p.modulus,
        omega_g_tilde_one=w1,
        u0=p.u0,
        delta=delta,
        a_abs=a_abs,
    )

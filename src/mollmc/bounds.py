"""Explicit constants and the 2-Wasserstein error envelope for a chain run.

Everything here is plain arithmetic: each function evaluates one displayed
constant or inequality of the non-asymptotic error analysis, and
:func:`theorem_bound` assembles them into the full envelope

    W2 <= 2 C1 (sqrt(f) + f^{1/4}) + C1' sqrt(C2 + sqrt(C2)) exp(-k eta / (2 beta c_LS))

with ``f`` collecting the discretisation, bias/variance, and smoothing
contributions.  The bounds are faithful, not useful-by-construction: with
realistic inputs the functional-inequality constants contain factors like
``exp(beta * U0)`` and the envelope can be astronomically larger than any
target accuracy.  Each constant is evaluated in mpmath at 40 digits, whatever
precision the caller has set, and rounded once to the nearest float, so one
beyond float range reads ``inf``; nothing is clamped.  :func:`inputs_from`
forms the inputs it derives, ``delta`` among them, at those digits too, from
the gradient modulus ``omega`` evaluated there.  Only the Poincare bound also
gives its log, ``c_p_log``, which says how far it overflowed.

Inputs live in :class:`BoundInputs`, with ``r`` a smoothed oracle's own radius or
an exact gradient's analysis radius; ``delta`` follows the quadratic-growth convention

    |E G - grad U_r|^2   <= 2 delta_b2 |x|^2 + 2 delta_b0,
    E |G - E G|^2        <= 2 delta_v2 |x|^2 + 2 delta_v0.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace

import mpmath as mp

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
    configurable because the analysis only asserts it exists.  ``r`` is the
    smoothing radius at which ``delta`` is formed and the envelope evaluated.
    :func:`inputs_from` gives ``m_tilde``, ``b_tilde``, both norms, ``omega_g_tilde_one``
    and ``delta`` as exact mpmath numbers, of any size; inf is refused.
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
    r: float
    delta: tuple = (0.0, 0.0, 0.0, 0.0)
    a_abs: float = 1.0

    def __post_init__(self):
        _args.count("d", self.d)
        for name in ("beta", "m", "m_tilde", "a_abs"):
            _args.positive(name, getattr(self, name))
        for name in ("b", "kappa0", "u0"):
            _args.nonnegative(name, getattr(self, name))
        for name in ("b_tilde", "grad_u_mnorm", "g_tilde_mnorm", "omega_g_tilde_one"):
            _args.magnitude(name, getattr(self, name))
        _args.finite("p0_sup_log", self.p0_sup_log)
        _args.unit("r", self.r)
        if len(self.delta) != 4:
            raise ValueError(f"delta must have four entries, got {self.delta}")
        for v in self.delta:
            _args.magnitude("delta", v)


_DPS = 40  # digits of every evaluation here, whatever precision the caller has set


def _exact(inputs: BoundInputs) -> SimpleNamespace:
    """``inputs`` with each int and float an mpmath number, exact at ``_DPS`` digits,
    so that no sum or product of two inputs is taken in floats."""
    x = SimpleNamespace(**{
        name: mp.mpf(value) if isinstance(value, (int, float)) else value
        for name, value in vars(inputs).items()
    })
    x.delta = tuple(map(mp.mpf, inputs.delta))
    return x


def _rounded(evaluate):
    """The public form of the mpmath function ``evaluate(x, ...)``: it takes a
    :class:`BoundInputs` for ``x``, evaluates at ``_DPS`` digits and rounds once,
    by ``float``, which rounds an mpmath number to the nearest float or to inf."""
    def public(inputs: BoundInputs, *args, **kwargs) -> float:
        with mp.workdps(_DPS):
            return float(evaluate(_exact(inputs), *args, **kwargs))

    public.__name__ = public.__qualname__ = evaluate.__name__.lstrip("_")
    public.__doc__ = evaluate.__doc__
    return public


def _eta_max(x):
    """Largest admissible step size, ``min(1, m_tilde / (2 (omega_G(1)^2 + delta_v2)))``."""
    return 1 / max(1, 2 * (x.omega_g_tilde_one**2 + x.delta[3]) / x.m_tilde)


def _kappa_inf(x, eta):
    """Uniform-in-time second-moment bound of the chain.

    ``kappa0 + 2 (1 or 1/m_tilde) (b_tilde + eta ||G||^2 + delta_v0 + d/beta)``.
    """
    cap = _eta_max(x)
    if not 0 < eta < cap:
        raise ValueError(
            f"step size {eta} outside the admissible range (0, {float(cap)}); "
            "the moment bound needs eta < m_tilde / (2 (omega_G(1)^2 + delta_v2))"
        )
    return x.kappa0 + 2 * max(1, 1 / x.m_tilde) * (
        x.b_tilde + eta * x.g_tilde_mnorm**2 + x.delta[2] + x.d / x.beta
    )


def _c_zero(x, eta):
    """Coefficient of the step-size term in the discretisation divergence."""
    ki = _kappa_inf(x, eta)
    core = x.delta[2] + x.g_tilde_mnorm**2 + (x.omega_g_tilde_one**2 + x.delta[3]) * ki
    return (x.d + 4) * (x.beta / 3 * core + x.d / 2)


def _poincare_bound(x):
    """Upper bound for the Poincare constant of the smoothed Gibbs measure.

    Independent of the smoothing radius; ``inf`` when the bound lies beyond
    float range (see :func:`poincare_log_bound`).
    """
    s = x.d + (x.b + x.m) * x.beta
    mb = x.m * x.beta
    arg = x.beta * (25 * x.grad_u_mnorm * (1 + 8 * s / mb) / 16 + x.u0)
    return 4 / (mb * s) + 8 * x.a_abs * s / mb * mp.exp(arg)


def _poincare_log_bound(x):
    """log of the Poincare bound, finite even when the bound itself overflows."""
    return mp.log(_poincare_bound(x))


def _log_sobolev_bound(x):
    """Upper bound for the log-Sobolev constant of the smoothed Gibbs measure."""
    cp = _poincare_bound(x)
    s = x.d + (x.b + x.m) * x.beta
    mb = x.m * x.beta
    lam = (x.d + 4) * x.omega_grad_u.eval(x.r) / x.r
    return lam * (32 / mb**2 + 12 * s * cp / mb) + 2 * x.r / lam + 2 * cp


def _kl_discretization(x, eta, k):
    """Divergence between the chain and the smoothed dynamics after k steps.

    ``(C0 omega(r)/r eta + beta (delta_{r,2} kappa_inf + delta_{r,0})) k eta``.
    """
    _args.count("k", k, least=0)
    ki = _kappa_inf(x, eta)
    c0 = _c_zero(x, eta)
    db0, db2, dv0, dv2 = x.delta
    rate = c0 * x.omega_grad_u.eval(x.r) / x.r * eta + x.beta * ((db2 + dv2) * ki + db0 + dv0)
    return k * (rate * eta)


def _kl_initial(x):
    """Divergence of the initial law from the smoothed Gibbs measure.

    This is the inner (pre square root) expression; it can be negative for
    extreme inputs, in which case the envelope constant built on it is
    undefined and flagged rather than guessed.
    """
    return (
        x.p0_sup_log
        + x.d / 2 * mp.log(3 * mp.pi / (x.m * x.beta))
        + x.beta * (
            x.omega_grad_u.eval(mp.mpf(1)) * x.kappa0 / 2
            + 5 * x.grad_u_mnorm * mp.sqrt(x.kappa0) / 2
            + x.u0
            + x.b * mp.log(3) / 2
        )
    )


eta_max = _rounded(_eta_max)
kappa_inf = _rounded(_kappa_inf)
c_zero = _rounded(_c_zero)
poincare_bound = _rounded(_poincare_bound)
poincare_log_bound = _rounded(_poincare_log_bound)
log_sobolev_bound = _rounded(_log_sobolev_bound)
kl_discretization = _rounded(_kl_discretization)
kl_initial = _rounded(_kl_initial)


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


def theorem_bound(inputs: BoundInputs, eta: float, k: int) -> TheoremBound:
    """The full error envelope for ``k`` steps of size ``eta`` at radius ``inputs.r``."""
    with mp.workdps(_DPS):
        x = _exact(inputs)
        ki = _kappa_inf(x, eta)
        _args.count("k", k)
        c0 = _c_zero(x, eta)
        tail = 32 * (x.b + x.m + x.d / x.beta) / x.m + 10 / min(1, x.beta * x.m / 4)
        c1 = 2 * mp.sqrt(4 * x.kappa0 + tail)
        c1p = 2 * mp.sqrt(tail)
        inner = _kl_initial(x)
        c2 = mp.sqrt(inner) if inner >= 0 else mp.nan
        cp = _poincare_bound(x)
        cls = _log_sobolev_bound(x)
        f = _kl_discretization(x, eta, k) + (
            x.beta * x.r * x.grad_u_mnorm / 2 * (3 + mp.sqrt((x.b + x.d / x.beta) / x.m))
        )
        first = 2 * c1 * (mp.sqrt(f) + mp.root(f, 4))
        expo = c1p * mp.sqrt(c2 + mp.sqrt(c2)) * mp.exp(-k * (eta / (2 * x.beta * cls)))

        c_p_log = float(mp.log(cp))
        notes = []
        if inner < 0:
            notes.append("initial-divergence expression negative; C2 undefined (vacuous bound)")
        if float(cp) == math.inf:
            notes.append(f"Poincare bound overflows float range; log value {c_p_log:.6g}")
        elif float(cls) == math.inf:
            notes.append("log-Sobolev bound overflows float range; "
                         "exponential term taken undecayed")
        return TheoremBound(
            c0=float(c0),
            c1=float(c1),
            c1_prime=float(c1p),
            c2=float(c2),
            kappa_inf=float(ki),
            c_p_bound=float(cp),
            c_p_log=c_p_log,
            c_ls_bound=float(cls),
            f_value=float(f),
            first_term=float(first),
            exp_term=float(expo),
            w2_bound=float(first + expo),
            notes=tuple(notes),
        )


def _exp_moment_bound(x, t, alpha_exp, init_exp_moment=None):
    """Bound on ``E exp(alpha |X_t|^2)`` along the smoothed dynamics.

    Uses the smoothed dissipativity constants ``m_bar = m/2`` and
    ``b_bar = b + m``; requires ``alpha in (0, beta m_bar)``.  ``t = inf``
    gives the asymptote without needing the initial exponential moment; for
    finite ``t`` the initial moment defaults to the standard Gaussian value
    ``(1 - 2 alpha)^{-d/2}`` (only defined for ``alpha < 1/2``).
    """
    m_bar = x.m / 2
    if not _args.positive("alpha", alpha_exp) < x.beta * m_bar:
        raise ValueError(
            f"alpha must lie in (0, beta*m/2) = (0, {float(x.beta * m_bar)}), got {alpha_exp}"
        )
    _args.upper("time", t)
    if init_exp_moment is not None:
        _args.positive("init_exp_moment", init_exp_moment)
    rate = 2 * mp.mpf(alpha_exp) * (x.b + x.m + x.d / x.beta)
    asym = 2 * mp.exp(rate / (m_bar - alpha_exp / x.beta))
    if math.isinf(t):
        return asym
    if init_exp_moment is None:
        if alpha_exp >= 0.5:
            raise ValueError(
                "standard Gaussian initial moment undefined for alpha >= 1/2; "
                "pass init_exp_moment explicitly"
            )
        init_exp_moment = (1 - 2 * mp.mpf(alpha_exp)) ** (-x.d / 2)
    w = mp.exp(-rate * t)
    return init_exp_moment * w + asym * (1 - w)


exp_moment_bound = _rounded(_exp_moment_bound)


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
    with mp.workdps(_DPS):
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


def inputs_from(oracle, beta: float, r: float | None = None, a_abs: float = 1.0) -> BoundInputs:
    """Assemble :class:`BoundInputs` for an oracle and its potential.

    This states what the analysis assumes of each oracle, with ``omega`` the
    potential's gradient modulus, at the one radius ``r`` the inputs keep.  The
    exact gradient (``n_batch == 0``) takes ``r``, the analysis radius, and is
    its own mean: the potential's ``(m, b)``, norm ``|grad U(0)| + omega(1)``
    and ``omega(1)``.  It is off the radius-``r`` smoothed gradient by at most
    ``omega(r)``, a squared bias ``delta_b0 = omega(r)^2 / 2``.  A smoothed
    oracle is unbiased at its own radius only, so it takes no ``r``: ``r`` is
    ``oracle.r``.  Smoothing makes the mean's constants ``(m / 2, b + m)`` and
    adds ``omega(r)`` to its norm, and each of the ``n_batch`` points deviates
    by at most ``omega(r)``, a variance ``delta_v0 = omega(r)^2 / (2 n_batch)``.
    A finite sum reads the potential an ``equal_split`` sum was split from:
    its components are identical, so picking them adds no variance to that
    of the smoothing draws.  A sum of distinct components has no potential
    and no bound on that variance, and is refused.  ``m_tilde``, ``b_tilde``, both
    norms, ``omega(1)`` and ``delta`` are formed at ``_DPS`` digits and given as
    exact mpmath numbers, which no size makes inf.

    Assumes the standard Gaussian initial law (the default of the samplers);
    other initial laws need hand-built inputs because a point mass has no
    density and a custom law has no declared moments.
    """
    if oracle.n_batch and r is not None:
        raise ValueError(f"a smoothed oracle is analysed at its own radius {oracle.r}, got {r!r}")
    r = _args.unit("r", oracle.r if oracle.n_batch else r)
    p = oracle.potential
    if p is None:
        raise ValueError("component-sampling variance is only bounded for equal_split sums")
    with mp.workdps(_DPS):
        m, w1, w = mp.mpf(p.m), p.modulus.eval(mp.mpf(1)), p.modulus.eval(mp.mpf(r))
        u_mnorm, zero = p.grad_at_zero + w1, mp.mpf(0)
        if oracle.n_batch == 0:
            m_tilde, b_tilde, mnorm = m, mp.mpf(p.b), u_mnorm
            delta = (w * w / 2, zero, zero, zero)
        else:
            m_tilde, b_tilde, mnorm = m / 2, p.b + m, u_mnorm + w
            delta = (zero, zero, w * w / (2 * oracle.n_batch), zero)
        return BoundInputs(
            d=p.dim,
            beta=float(beta),
            m=p.m,
            b=p.b,
            m_tilde=m_tilde,
            b_tilde=b_tilde,
            kappa0=gaussian_kappa0(p.dim),
            p0_sup_log=gaussian_log_p0_sup(p.dim),
            grad_u_mnorm=u_mnorm,
            g_tilde_mnorm=mnorm,
            omega_grad_u=p.modulus,
            omega_g_tilde_one=w1,
            u0=p.u0,
            r=float(r),
            delta=delta,
            a_abs=a_abs,
        )

"""Reference values and output checks for the benchmark, computed apart from mollmc.

Nothing here imports the program.  The sampling references come from 1-D
Gauss-Legendre quadrature of separable targets and from the exact variance
recursion of LMC on a quadratic; the plan check re-evaluates the concise
error envelope in mpmath; the statistics are batch means.  The derivations
of the bias allowances are in README.md.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

Z_SE = 4.5  # standard errors allowed on top of the bias allowance
ENVELOPE_DPS = 80
ENVELOPE_REL_TOL = 1e-12  # covers the 17 printed digits of eta and r


# ---------------------------------------------------------------- statistics

def batch_means(x) -> tuple[float, float, float]:
    """Mean, standard error and effective sample size of a series.

    Batch size ``floor(sqrt(n))``; the asymptotic variance is the batch size
    times the variance of the batch means, and ``ESS = n var(x) / sigma2``.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    size = max(1, math.isqrt(n))
    n_batches = n // size
    if n_batches < 2:
        raise ValueError(f"need at least two batches, got a series of {n}")
    used = x[: n_batches * size]
    sigma2 = size * float(np.var(used.reshape(n_batches, size).mean(axis=1), ddof=1))
    var = float(np.var(x, ddof=1))
    return float(x.mean()), math.sqrt(sigma2 / n), n * var / sigma2


def pooled(series) -> tuple[float, float, float]:
    """Mean of equal-length replica series, its standard error and summed ESS."""
    stats = [batch_means(s) for s in series]
    mean = float(np.mean([m for m, _, _ in stats]))
    se = math.sqrt(sum(e * e for _, e, _ in stats)) / len(stats)
    return mean, se, float(sum(n for _, _, n in stats))


# ---------------------------------------------------------- 1-D references

def _gauss_legendre(edges, nodes=32):
    t, w = np.polynomial.legendre.leggauss(nodes)
    lo, hi = np.asarray(edges[:-1]), np.asarray(edges[1:])
    half = 0.5 * (hi - lo)
    u = (0.5 * (hi + lo))[:, None] + half[:, None] * t[None, :]
    return u.ravel(), (half[:, None] * w[None, :]).ravel()


def marginal_moments(phi, beta: float, half_width: float = 12.0) -> dict:
    """``E u``, ``E u^2`` and ``E |u|`` under the density ``exp(-beta phi(u))``.

    Composite Gauss-Legendre on panels graded geometrically towards 0, where
    the built-in potentials have their kink, and uniform further out.
    """
    inner = np.geomspace(1e-12, 1.0, 60)
    outer = np.linspace(1.0, half_width, 45)[1:]
    pos = np.concatenate(([0.0], inner, outer))
    edges = np.concatenate((-pos[::-1], pos[1:]))
    u, w = _gauss_legendre(edges)
    logp = -beta * phi(u)
    p = w * np.exp(logp - logp.max())
    z = p.sum()
    return {
        "mean": float((p * u).sum() / z),
        "second": float((p * u * u).sum() / z),
        "abs": float((p * np.abs(u)).sum() / z),
    }


def phi_quadratic(u):
    return 0.5 * u * u


def phi_hoelder(alpha: float):
    return lambda u: 0.5 * u * u + np.abs(u) ** (1.0 + alpha) / (1.0 + alpha)


def phi_logistic(lam1: float, lam2: float):
    return lambda u: 0.5 * (1.0 - np.tanh(0.5 * u)) + lam1 * np.abs(u) + 0.5 * lam2 * u * u


# ------------------------------------------------- smoothing-kernel marginal

def kernel_coord_moment(d: int, p: float) -> float:
    """``E |zeta_1|^p`` for one coordinate of the unit compact kernel.

    The kernel ``(1 - |x|^2)^3`` on the unit ball of R^d has the coordinate
    marginal ``(1 - t^2)^a`` on [-1, 1] with ``a = 3 + (d - 1) / 2``.
    """
    a = 3.0 + 0.5 * (d - 1)
    return math.exp(
        math.lgamma(0.5 * (p + 1)) - math.lgamma(0.5 * (p + 1) + a + 1)
        - math.lgamma(0.5) + math.lgamma(a + 1.5)
    )


def kernel_coord_density_at_zero(d: int) -> float:
    a = 3.0 + 0.5 * (d - 1)
    return math.exp(math.lgamma(a + 1.5) - math.lgamma(0.5) - math.lgamma(a + 1))


# ------------------------------------------------------- bias allowances

SIGMOID_CURVATURE = 1.0 / (6.0 * math.sqrt(3.0))  # max |d^2/du^2 sigma(-u)|


def _allowance(delta, curvature, fluct, d, beta, eta, n_batch, m):
    smoothing = math.expm1(beta * delta)
    step = eta * curvature / (2.0 - eta * curvature)
    noise = d * eta * fluct * fluct / (2.0 * m * n_batch)
    return {"rel": smoothing + step, "abs_second": noise}


def hoelder_allowance(d, alpha, beta, eta, r, n_batch) -> dict:
    """Bias allowance of SS-LMC on ``hoelder_mix``; derivation in README.md."""
    holder = 2.0 ** (1.0 - alpha)
    delta = d * holder * r ** (1.0 + alpha) * kernel_coord_moment(d, 1.0 + alpha) / (1.0 + alpha)
    curvature = 1.0 + alpha * r ** (alpha - 1.0) * kernel_coord_moment(d, alpha - 1.0)
    return _allowance(delta, curvature, holder * r**alpha, d, beta, eta, n_batch, 1.0)


def logistic_allowance(d, lam1, lam2, beta, eta, r, n_batch) -> dict:
    """Bias allowance of SS-SG-LMC on ``elastic_net_logistic``; see README.md."""
    e1 = kernel_coord_moment(d, 1.0)
    e2 = kernel_coord_moment(d, 2.0)
    delta = d * (lam1 * r * e1 + SIGMOID_CURVATURE * r * r * e2)
    curvature = lam2 + SIGMOID_CURVATURE + 2.0 * lam1 * kernel_coord_density_at_zero(d) / r
    fluct = 2.0 * lam1 + 2.0 * r * (lam2 + SIGMOID_CURVATURE)
    return _allowance(delta, curvature, fluct, d, beta, eta, n_batch, lam2)


def quadratic_variances(beta: float, eta: float, k: int, v0: float = 1.0) -> np.ndarray:
    """Per-coordinate variance ``v_i`` of LMC on ``|x|^2/2`` for i = 0..k.

    From ``Y_0 ~ N(0, v0 I)`` every step's law is ``N(0, v_i I)`` with
    ``v_{i+1} = (1 - eta)^2 v_i + 2 eta / beta``.
    """
    v = np.empty(k + 1)
    v[0] = v0
    a, c = (1.0 - eta) ** 2, 2.0 * eta / beta
    for i in range(k):
        v[i + 1] = a * v[i] + c
    return v


# ------------------------------------------------------------ sample checks

def _within(name, measured, se, ref, allow) -> dict:
    tol = allow + Z_SE * se
    return {
        "name": name,
        "measured": measured,
        "reference": ref,
        "se": se,
        "tolerance": tol,
        "ok": bool(math.isfinite(measured) and abs(measured - ref) <= tol),
    }


def moment_checks(chains, ref: dict, allowance: dict, d: int) -> tuple[list, float]:
    """Check pooled post-burn-in ``E|Y|^2`` and coordinate mean against a reference.

    ``chains`` are the recorded iterates, one ``(n, d)`` array per replica;
    ``ref`` holds the per-coordinate ``mean``, ``second`` and ``abs``.  Returns
    the checks and the summed batch-means ESS of ``|Y|^2``.
    """
    post = [c[c.shape[0] // 2:] for c in chains]
    sq = [np.einsum("ij,ij->i", c, c) for c in post]
    m2, se2, ess = pooled(sq)
    m1, se1, _ = pooled([c.mean(axis=1) for c in post])
    rel = allowance["rel"]
    return [
        _within("second_moment", m2, se2, d * ref["second"],
                rel * d * ref["second"] + allowance["abs_second"]),
        _within("coordinate_mean", m1, se1, ref["mean"], rel * ref["abs"]),
    ], ess


def quadratic_checks(chains, steps, v, d: int) -> tuple[list, float]:
    """Exact check of LMC on the quadratic: ``E|Y_i|^2 = d v_i``, ``E Y_i = 0``."""
    half = len(steps) // 2
    ref = d * float(np.mean(v[steps[half:]]))
    post = [c[half:] for c in chains]
    m2, se2, ess = pooled([np.einsum("ij,ij->i", c, c) for c in post])
    m1, se1, _ = pooled([c.mean(axis=1) for c in post])
    return [
        _within("second_moment", m2, se2, ref, 0.0),
        _within("coordinate_mean", m1, se1, 0.0, 0.0),
    ], ess


# -------------------------------------------------------------- plan / bound

def envelope(algorithm: str, eps, d, k, eta, r=None, n_batch=None, alpha=None, c=1.0):
    """The concise W2 envelope of a schedule, at ``ENVELOPE_DPS`` digits.

    LMC, alpha = 1:  C d (k eta^2)^{1/4} + C d exp(-k eta / (C d^3 e^{C d}))
    LMC, alpha < 1:  C sqrt(d) ((d^2 r^{alpha-1} eta + r^{2 alpha}) k eta + r sqrt(d))^{1/4}
                     + C d exp(-k eta / (C r^{alpha-1} d^3 e^{C d}))
    SS-SG-LMC:       C sqrt(d) ((d^2 eta / r + 1 / n_batch) k eta + r sqrt(d))^{1/4}
                     + C d exp(-k eta r / (C d^3 e^{C d}))
    """
    with mp.workdps(ENVELOPE_DPS):
        c, d, k, eta = mp.mpf(c), mp.mpf(d), mp.mpf(k), mp.mpf(eta)
        scale = c * d**3 * mp.exp(c * d)
        if algorithm == "lmc" and alpha == 1.0:
            return c * d * mp.root(k * eta**2, 4) + c * d * mp.exp(-k * eta / scale)
        r = mp.mpf(r)
        if algorithm == "lmc":
            a = mp.mpf(alpha)
            inner = (d**2 * r ** (a - 1) * eta + r ** (2 * a)) * k * eta + r * mp.sqrt(d)
            decay = mp.exp(-k * eta / (r ** (a - 1) * scale))
        else:
            inner = (d**2 * eta / r + 1 / mp.mpf(n_batch)) * k * eta + r * mp.sqrt(d)
            decay = mp.exp(-k * eta * r / scale)
        return c * mp.sqrt(d) * mp.root(inner, 4) + c * d * decay


def plan_checks(out: dict, eps: float, d: int, alpha) -> list:
    plan = out["plan"]
    env = envelope(plan["algorithm"], eps, d, int(plan["k"]), plan["eta"], plan["r"],
                   plan["n_batch"], alpha)
    with mp.workdps(ENVELOPE_DPS):
        ok = env <= mp.mpf(eps) * (1 + mp.mpf(ENVELOPE_REL_TOL))
    return [
        {"name": "verification_passed", "ok": out["verification"]["passed"] is True},
        {"name": "envelope_le_epsilon", "ok": bool(ok), "envelope": mp.nstr(env, 20),
         "epsilon": eps},
    ]


def bound_checks(out: dict, w2_floor: float | None = None) -> list:
    w2, first, tail = out["w2_bound"], out["first_term"], out["exp_term"]
    checks = [
        {"name": "w2_bound_finite", "ok": isinstance(w2, float) and math.isfinite(w2)},
        {"name": "w2_is_sum_of_terms",
         "ok": math.isclose(w2, first + tail, rel_tol=1e-12, abs_tol=0.0)},
    ]
    if w2_floor is not None:
        checks.append({"name": "w2_above_exact_distance", "ok": w2 >= w2_floor,
                       "floor": w2_floor, "w2_bound": w2})
    return checks


def quadratic_w2(d: int, beta: float, v_k: float) -> float:
    """Exact W2 between ``N(0, v_k I_d)`` and the target ``N(0, I_d / beta)``."""
    return math.sqrt(d) * abs(math.sqrt(v_k) - 1.0 / math.sqrt(beta))

"""Quantitative hypothesis chain for almost-everywhere convergence.

For f in L^2 of the group, the chain runs: integral modulus of continuity

    Omega(f, t) = sup { ||f - f(h^{-1} .)||_{L^2} : h = exp(X), 0 < ||X|| <= t },

the Dini-type integral int_0^1 Omega^2(f, t)/t dt, the best approximation
E_M(f) = ||f - S_M f||_{L^2} (a Parseval tail), the Jackson quotient
E_{2^k}(f) / Omega(f, 2^{-k}) (bounded by Jackson's theorem, constant not
specified there, recorded empirically here), and the log-weighted block sum
sum_{j>=2} log(j) ||Gamma_j f||^2.  That weight suffices for trigonometric
series (Kolmogorov-Seliverstov 1925, Plessner 1926); the Rademacher-Menshov
criterion for general orthogonal series needs log^2(j) (Rademacher, Math.
Ann. 87, 1922; Menshov, Fund. Math. 4, 1923).  On SU(2) with the
fundamental-weight truncations the blocks Gamma_j are the single
representations, so block energy is just |c_j|^2; this collapse would not
happen for general groups.

For central f the translate difference has the exact coefficient form

    ||delta_h f||^2 = sum_n 2 |c_n|^2 (1 - chi_n(r)/(n+1)),   r = conj angle of h,

independent of the direction of X (class functions only see the conjugacy
angle of the translation), which anchors the general 3D quadrature path.
That path draws each radius's directions in one batch and streams the beta
slabs of the Haar rule through ``fourier._translate_norms``: f once per
``integral_modulus`` or ``modulus_profile`` call, and one translate
f(h^{-1} .) = ``left_translate(f, h^{-1})`` per sampled direction.
Translates compose, so for f = L_z g with g central that is one class-angle
pass of (z h^{-1}) y per direction, read from two real planes, with no group
product and no element arrays on the grid.  The slabs may run on several
threads; ``fourier._each_run`` says when, and why every modulus is bitwise
the same for any CPU count.
Omega estimates are honest lower bounds: suprema are sampled, never
extrapolated, and coefficient tails are dropped (each dropped term is >= 0).

``uniform_error_central`` probes uniform convergence of central Hoelder
functions away from the two poles +-e (max error of S_N f on
[delta, pi - delta]); behaviour at the poles themselves is recorded by
callers, not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import gamma, pi, sqrt

import numpy as np

from .group import GroupElement, QuadratureRule, exp_arrays, random_directions
from .fourier import CentralFn, _translate_norms, partial_sum_central
from .representations import char_table

__all__ = [
    "translate_norm_quadrature",
    "central_translate_norm",
    "integral_modulus",
    "ModulusProfile",
    "modulus_profile",
    "dini_integral",
    "best_approx",
    "JacksonPoint",
    "jackson_ratio",
    "log_weighted_block_sum",
    "uniform_error_central",
    "holder_test_function",
    "sqrt_shift_fn",
]

DEFAULT_COEFF_LIMIT = 4096
_STRATA = np.array([1.0, 0.5, 0.25])  # integral_modulus samples radii t * _STRATA


def translate_norm_quadrature(f, h: GroupElement, rule: QuadratureRule) -> float:
    """||delta_h f||_{L^2} over the supplied Haar rule."""
    return _translate_norms(f, [h], rule)[0]


def central_translate_norm(coeffs: np.ndarray, r) -> np.ndarray | float:
    """||delta_h f|| for central f with coefficients c, conj angle r of h.

    Exact modulo the dropped coefficient tail (a one-sided truncation).
    """
    rr = np.atleast_1d(np.asarray(r, dtype=float))
    table = char_table(len(coeffs) - 1, rr)
    dims = np.arange(1, len(coeffs) + 1)
    sq = (2 * np.abs(coeffs) ** 2) @ (1 - table / dims[:, None])
    out = np.sqrt(np.maximum(sq, 0.0))
    return float(out[0]) if np.ndim(r) == 0 else out


def _largest_translate_norms(f, radii, rng_for_radius, sample_count: int, rule) -> np.ndarray:
    """max ||delta_h f|| over the sampled h = exp(r X), ||X|| = 1, at each radius r.

    Central f takes the exact coefficient form on its first
    DEFAULT_COEFF_LIMIT + 1 coefficients.  General f draws ``sample_count``
    directions X at each radius from the generator ``rng_for_radius()``
    returns, and measures every translate in one ``_translate_norms`` call
    over the Haar ``rule``.
    """
    if isinstance(f, CentralFn):
        return central_translate_norm(f.coeffs(DEFAULT_COEFF_LIMIT), radii)
    hs = []
    for r in radii:
        cs, betas = random_directions(rng_for_radius(), sample_count)
        ah, bh = exp_arrays(r * cs, r * betas)
        hs += [GroupElement(complex(x), complex(y)) for x, y in zip(ah, bh)]
    norms = np.reshape(_translate_norms(f, hs, rule), (len(radii), sample_count))
    return norms.max(axis=1, initial=0.0)  # norms are >= 0, so 0.0 only fills in for no samples


def integral_modulus(
    f,
    t: float,
    sample_count: int = 64,
    seed: int = 0,
    rule: QuadratureRule | None = None,
) -> float:
    """Lower estimate of Omega(f, t) = sup over translations of amplitude <= t.

    The radii are the strata {t, t/2, t/4}.  Central f goes through the exact
    coefficient form, where the direction of X is provably irrelevant, and
    ignores ``sample_count``, ``seed`` and ``rule``.  General f needs the
    Haar ``rule`` and samples ``sample_count`` directions per radius from one
    generator seeded with ``seed``.
    """
    if not 0 < t <= np.pi:
        raise ValueError("t must lie in (0, pi]")
    shared = cache(lambda: np.random.default_rng(seed))
    return float(np.max(_largest_translate_norms(f, t * _STRATA, shared, sample_count, rule)))


@dataclass(frozen=True)
class ModulusProfile:
    """Omega(f, t) estimates on a decreasing radius grid."""

    t_values: np.ndarray
    omega_values: np.ndarray

    def __post_init__(self):
        if not np.all(np.diff(self.t_values) < 0):
            raise ValueError("t_values must be strictly decreasing")


def modulus_profile(
    f,
    t_min: float,
    t_max: float = 1.0,
    per_decade: int = 16,
    sample_count: int = 64,
    seed: int = 0,
    rule: QuadratureRule | None = None,
) -> ModulusProfile:
    """Omega on a log-spaced grid (>= per_decade points per decade).

    The radii must satisfy 0 < t_min <= t_max <= pi, and per_decade >= 1.
    Each Omega(t) is the running supremum over all grid radii <= t, so the
    profile is monotone by construction (nested sampling).  Central f
    ignores ``sample_count``, ``seed`` and ``rule``.  General f needs the
    Haar ``rule`` and samples ``sample_count`` directions per radius, each
    radius from a fresh generator seeded with ``seed``.
    """
    if not 0 < t_min <= t_max <= np.pi:
        raise ValueError(f"radii must satisfy 0 < t_min <= t_max <= pi, got {t_min}, {t_max}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    decades = np.log10(t_max / t_min)
    count = int(np.ceil(per_decade * decades)) + 1
    ts = np.geomspace(t_min, t_max, count)
    vals = _largest_translate_norms(f, ts, lambda: np.random.default_rng(seed), sample_count, rule)
    omega = np.maximum.accumulate(vals)
    return ModulusProfile(t_values=ts[::-1].copy(), omega_values=omega[::-1].copy())


def dini_integral(profile: ModulusProfile, t_min: float) -> float:
    """Log-trapezoid approximation of int_{t_min}^{t_max} Omega^2(f, t)/t dt.

    With s = log t the integrand becomes Omega^2(e^s), slowly varying, so the
    trapezoid rule on the profile's log-spaced grid is adequate.  When t_min
    falls between grid points the integrand is interpolated to the exact
    lower limit rather than truncating the domain.  t_min must lie within
    the profile's radii.
    """
    ts = profile.t_values[::-1]
    om = profile.omega_values[::-1]
    if t_min < ts[0] * (1 - 1e-12):
        raise ValueError("profile does not reach down to t_min")
    if t_min > ts[-1]:
        raise ValueError(f"t_min {t_min} lies above the profile's largest radius {ts[-1]}")
    s = np.log(ts)
    y = om**2
    s_min = np.log(t_min)
    mask = s >= s_min - 1e-12
    ss, yy = s[mask], y[mask]
    if ss[0] > s_min + 1e-12:
        ss = np.concatenate(([s_min], ss))
        yy = np.concatenate(([np.interp(s_min, s, y)], yy))
    return float(np.trapezoid(yy, ss))


def best_approx(f: CentralFn, M: int, coeffs: np.ndarray | None = None) -> float:
    """E_M(f) = sqrt(||f||^2 - sum_{n<=M} |c_n|^2), clipped at 0 for rounding."""
    c = coeffs if coeffs is not None else f.coeffs(M)
    head = float(np.sum(np.abs(c[: M + 1]) ** 2))
    return sqrt(max(0.0, f.l2_norm_sq() - head))


@dataclass(frozen=True)
class JacksonPoint:
    """One Jackson quotient E_{2^k}(f) / Omega(f, 2^{-k})."""

    k: int
    best_approx: float
    modulus: float
    ratio: float
    degenerate: bool  # Omega == 0 (f constant up to sampling): no quotient


def jackson_ratio(f: CentralFn, k: int) -> JacksonPoint:
    """Jackson quotient E_{2^k}(f) / Omega(f, 2^{-k}) of a central f.

    Both sides come from the one coefficient path of f: E from its first
    max(DEFAULT_COEFF_LIMIT, 2^k) + 1 coefficients and ||f||^2, Omega from
    the exact coefficient form on its first DEFAULT_COEFF_LIMIT + 1.  The
    theorem guarantees a uniform bound; the constant is an empirical record,
    not an assertion.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    e_val = best_approx(f, 2**k, coeffs=f.coeffs(max(DEFAULT_COEFF_LIMIT, 2**k)))
    omega = integral_modulus(f, 2.0**-k)
    if omega == 0.0:
        return JacksonPoint(k=k, best_approx=e_val, modulus=0.0, ratio=float("nan"), degenerate=True)
    return JacksonPoint(k=k, best_approx=e_val, modulus=omega, ratio=e_val / omega, degenerate=False)


def log_weighted_block_sum(coeffs: np.ndarray, J: int) -> float:
    """sum_{j=2}^{J} log(j) |c_j|^2 (polyhedral blocks are singletons here).

    The weight is the single log of Kolmogorov-Seliverstov and Plessner, not
    the log^2(j) of Rademacher-Menshov (see the module docstring).  Indices
    beyond the stored coefficients contribute nothing, so for band-limited
    data the sum plateaus at the band edge.
    """
    if J < 2:
        return 0.0
    c = np.asarray(coeffs)
    top = min(J, len(c) - 1)
    if top < 2:
        return 0.0
    j = np.arange(2, top + 1)
    return float(np.sum(np.log(j) * np.abs(c[2 : top + 1]) ** 2))


def uniform_error_central(f: CentralFn, N: int, delta: float, grid_size: int = 2000) -> float:
    """max over [delta, pi - delta] of |S_N f(omega(theta)) - f(omega(theta))|."""
    if not 0 <= delta < np.pi / 2:
        raise ValueError("delta must lie in [0, pi/2)")
    th = np.linspace(delta, np.pi - delta, grid_size)
    vals = partial_sum_central(f, N, "polyhedral", th)
    return float(np.max(np.abs(vals - f(th))))


# --------------------------------------------------------------------------
# Hoelder test families
# --------------------------------------------------------------------------

_HOLDER_AMPLITUDE = 0.125  # keeps the convergence-criterion tails inside the test tolerances


def holder_test_function(alpha: float) -> CentralFn:
    """A |cos theta|^alpha, A = _HOLDER_AMPLITUDE: an alpha-Hoelder class function.

    The cusp at theta = pi/2 makes the coefficients decay like n^{-(1+alpha)}
    (even n only, by symmetry).  The squared norm is exact:
    A^2 * Gamma(alpha + 1/2) / (sqrt(pi) Gamma(alpha + 2)).
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    nsq = _HOLDER_AMPLITUDE**2 * gamma(alpha + 0.5) / (sqrt(pi) * gamma(alpha + 2.0))
    return CentralFn(
        fn=lambda th: _HOLDER_AMPLITUDE * np.abs(np.cos(th)) ** alpha,
        name=f"holder:{alpha}",
        cusps=(np.pi / 2,),
        norm_sq=nsq,
    )


def sqrt_shift_fn() -> CentralFn:
    """|theta - pi/2|^(1/2) as a central function (cusp at the equator)."""
    return CentralFn(
        fn=lambda th: np.sqrt(np.abs(th - np.pi / 2)),
        name="sqrtshift",
        cusps=(np.pi / 2,),
    )

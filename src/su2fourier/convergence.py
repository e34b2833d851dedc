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
That path draws each radius's directions in one batch, every radius from
one generator, and streams the beta slabs of the Haar rule through
``fourier._translate_norms``: f once per ``integral_modulus`` or
``modulus_profile`` call, and one translate
f(h^{-1} .) = ``left_translate(f, h^{-1})`` per sampled direction.
Translates compose, so for f = L_z g with g central that is one class-angle
pass of (z h^{-1}) y per direction, read from two real planes, with no group
product and no element arrays on the grid.  The slabs may run on the
threads of a thread pool made for one call; ``fourier._each_run`` says when,
and why every modulus is bitwise the same for any CPU count.
Omega estimates are honest lower bounds: suprema are sampled, never
extrapolated, and coefficient tails are dropped (each dropped term is >= 0).

``uniform_error_central`` probes uniform convergence of central Hoelder
functions away from the two poles +-e (max error of S_N f on
[delta, pi - delta]); behaviour at the poles themselves is recorded by
callers, not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import factorial, gamma, pi, sin, sqrt

import numpy as np

from .group import GroupElement, QuadratureRule, exp_arrays, random_directions
from .fourier import (
    MAX_COEFFS, CentralFn, _coeffs_from_cos_moments, _translate_norms, partial_sum_central,
)

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


_PI_LO = 1.2246467991473532e-16  # pi - float(pi), to rounding
_SERIES_BELOW = 1.5  # N s below which 1 - q_n(s) comes from the series
# (-1)^(k+1) / (2k+1)!, k = 1..11: P(y) = 1 - sin(y)/y = sum_k a_k y^(2k) to
# rounding for |y| < _SERIES_BELOW
_SINC_SERIES = tuple((-1) ** (k + 1) / factorial(2 * k + 1) for k in range(1, 12))


def _one_minus_sinc(y):
    """P(y) = 1 - sin(y)/y from its alternating series, by Horner's rule in np.polyval."""
    y2 = y * y
    return np.polyval(_SINC_SERIES[::-1], y2) * y2


def central_translate_norm(coeffs: np.ndarray, r) -> np.ndarray | float:
    """||delta_h f|| for central f with coefficients c, conj angle r of h.

    ||delta_h f||^2 = sum_n 2 |c_n|^2 (1 - q_n(r)) with q_n(r) = chi_n(r)/N
    = sin(N r)/(N sin r), N = n + 1, each term in closed form on one
    (radius, n) array, a row per radius; no character table is built.  For
    r > pi/2 the angle folds to s = pi - r, formed as (float(pi) - r) +
    (pi - float(pi)), and q_n(pi - s) = (-1)^n q_n(s): sin(N r) near r = pi
    would carry the rounding of N r into a quotient by sin r ~ s.  Where
    N s < _SERIES_BELOW (s = r when r <= pi/2), 1 - q_n(s) =
    (P(N s) - P(s)) s / sin s with P(y) = 1 - sin(y)/y from its alternating
    series, which does not cancel near q_n = 1 (the subtraction loses at
    most a factor N^2/(N^2 - 1) <= 4/3); elsewhere the quotient is taken as
    it stands.  The hand-off sits at 1.5 because just above N s = 0.5 the
    quotient is still 2.8e-15 relative off.  Each term 1 - q_n(r) is within
    5e-16 relative of a 40-digit evaluation (sampled over r in [1e-6,
    pi - 1e-6]), and the terms are nonnegative, so their sum keeps that
    accuracy.  The norm is exact modulo the dropped coefficient tail (a
    one-sided truncation).  r must lie in [0, pi].
    """
    rr = np.atleast_1d(np.asarray(r, dtype=float))
    if not np.all((rr >= 0) & (rr <= np.pi)):  # NaN fails this test too
        raise ValueError(f"conjugacy angles must lie in [0, pi], got {r!r}")
    N = np.arange(1.0, len(coeffs) + 1)
    terms = np.empty((len(rr), len(N)))  # [radius, n]
    for row, rj in zip(terms, rr):
        s = (np.pi - rj) + _PI_LO if rj > np.pi / 2 else float(rj)
        x = N * s
        near = np.searchsorted(x, _SERIES_BELOW)  # x[:near] < _SERIES_BELOW
        ratio = s / sin(s) if s > 0 else 1.0
        row[:near] = (_one_minus_sinc(x[:near]) - _one_minus_sinc(s)) * ratio
        row[near:] = 1.0 - np.sin(x[near:]) / (N[near:] * sin(s))
        if rj > np.pi / 2:
            row[1::2] = 2.0 - row[1::2]  # odd n: 1 - q_n(r) = 1 + q_n(s)
    out = np.sqrt(terms @ (2 * np.abs(coeffs) ** 2))
    return float(out[0]) if np.ndim(r) == 0 else out


def _largest_translate_norms(f, radii, seed: int, sample_count: int, rule) -> np.ndarray:
    """max ||delta_h f|| over the sampled h = exp(r X), ||X|| = 1, at each radius r.

    Central f takes the exact coefficient form on its first
    DEFAULT_COEFF_LIMIT + 1 coefficients, and draws nothing.  General f draws
    ``sample_count`` directions X at each radius, in the order of ``radii``,
    from one generator seeded with ``seed``, and measures every translate in
    one ``_translate_norms`` call over the Haar ``rule``.
    """
    if isinstance(f, CentralFn):
        return central_translate_norm(f.coeffs(DEFAULT_COEFF_LIMIT), radii)
    rng = np.random.default_rng(seed)
    hs = []
    for r in radii:
        cs, betas = random_directions(rng, sample_count)
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
    Haar ``rule`` and samples ``sample_count`` directions per radius, the
    radii t, t/2, t/4 in turn from one generator seeded with ``seed``.
    """
    if not 0 < t <= np.pi:
        raise ValueError("t must lie in (0, pi]")
    return float(np.max(_largest_translate_norms(f, t * _STRATA, seed, sample_count, rule)))


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
    Haar ``rule`` and samples ``sample_count`` directions per radius, the
    radii from t_min up in turn from one generator seeded with ``seed``.
    """
    if not 0 < t_min <= t_max <= np.pi:
        raise ValueError(f"radii must satisfy 0 < t_min <= t_max <= pi, got {t_min}, {t_max}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    decades = np.log10(t_max / t_min)
    count = int(np.ceil(per_decade * decades)) + 1
    ts = np.geomspace(t_min, t_max, count)
    vals = _largest_translate_norms(f, ts, seed, sample_count, rule)
    omega = np.maximum.accumulate(vals)
    return ModulusProfile(t_values=ts[::-1].copy(), omega_values=omega[::-1].copy())


def dini_integral(profile: ModulusProfile, t_min: float) -> float:
    """Log-trapezoid approximation of int_{t_min}^{t_max} Omega^2(f, t)/t dt.

    With s = log t the integrand becomes Omega^2(e^s), slowly varying, so the
    trapezoid rule on the profile's log-spaced grid is adequate.  When t_min
    falls between grid points the integrand is interpolated to the exact
    lower limit rather than truncating the domain.  t_min must lie within
    the profile's radii; anything else, NaN included, raises ValueError.
    """
    ts = profile.t_values[::-1]
    om = profile.omega_values[::-1]
    if not ts[0] * (1 - 1e-12) <= t_min <= ts[-1]:  # NaN fails this test too
        raise ValueError(f"t_min {t_min} lies outside the profile's radii [{ts[0]}, {ts[-1]}]")
    s = np.log(ts)
    y = om**2
    s_min = np.log(t_min)
    mask = s >= s_min - 1e-12
    ss, yy = s[mask], y[mask]
    if ss[0] > s_min + 1e-12:
        ss = np.concatenate(([s_min], ss))
        yy = np.concatenate(([np.interp(s_min, s, y)], yy))
    return float(np.trapezoid(yy, ss))


def best_approx(f: CentralFn, M: int) -> float:
    """E_M(f) = sqrt(||f||^2 - sum_{n<=M} |c_n|^2), clipped at 0 for rounding."""
    head = float(np.sum(np.abs(f.coeffs(M)) ** 2))
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

    Both sides come from the exact coefficients of f: E from c_0..c_{2^k}
    and ||f||^2, Omega from c_0..c_{DEFAULT_COEFF_LIMIT}.  The
    theorem guarantees a uniform bound; the constant is an empirical record,
    not an assertion.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k >= (MAX_COEFFS - 1).bit_length():  # 2^k >= MAX_COEFFS, read off k: 2^k may be huge
        raise ValueError(f"k = {k} needs 2^k + 1 > MAX_COEFFS = {MAX_COEFFS} coefficients")
    e_val = best_approx(f, 2**k)
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
_HOLDER_HEAD = 16  # moments I_{2m}, m < 16, by the product; later ones by Stirling
# B_{2j} / (2j (2j - 1)), j = 1..7: the terms of Stirling's series for log Gamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _gamma_ratio(z: np.ndarray, p: float, q: float) -> np.ndarray:
    """Gamma(z + p) / Gamma(z + q) for z >= _HOLDER_HEAD and |p|, |q| <= 2.

    Stirling's series log Gamma(w) = (w - 1/2) log w - w + log(2 pi)/2 +
    sum_j B_{2j} / (2j (2j - 1) w^(2j-1)) at w = z + c, with
    (w - 1/2) log w - w = (z + c - 1/2) log z - z + phi(c) and
    phi(c) = (z + c - 1/2) log1p(c/z) - c = O(1/z): the terms of size z log z
    cancel exactly, and the ratio is z^(p - q) exp(phi(p) - phi(q) + ...).
    Seven terms leave under 1e-19 at z = 16.
    """

    def phi(c):
        return (z + c - 0.5) * np.log1p(c / z) - c

    tail = phi(p) - phi(q)
    for j, b in enumerate(_STIRLING, start=1):
        tail += b * ((z + p) ** (1 - 2 * j) - (z + q) ** (1 - 2 * j))
    return z ** (p - q) * np.exp(tail)


def _holder_coeffs(alpha: float, n_max: int) -> np.ndarray:
    """c_0..c_{n_max} of A |cos theta|^alpha, A = _HOLDER_AMPLITUDE, in closed form.

    The moments I_k = int_0^pi |cos t|^alpha cos(k t) dt vanish for odd k,
    I_0 = sqrt(pi) Gamma((alpha + 1)/2) / Gamma(alpha/2 + 1), and
    I_{k+2} / I_k = (alpha - k) / (k + 2 + alpha), so c_n = A (I_n - I_{n+2})/pi
    = A I_n (2n + 2) / ((n + 2 + alpha) pi).  With a = alpha/2 the product
    telescopes: I_{2m} = (-1)^m sqrt(pi) Gamma((alpha + 1)/2) / Gamma(-a) *
    Gamma(m - a) / Gamma(m + 1 + a).  The first _HOLDER_HEAD moments follow
    the product; later ones the Gamma ratio (``_gamma_ratio``), since the
    plain product drifts (7.8e-14 relative at n = 4096, 1.2e-12 at 2^16).
    Within 1.5e-15 relative of 40-digit values up to n = 2^16.
    """
    a = alpha / 2
    m = np.arange(n_max // 2 + 1)
    head = m[:_HOLDER_HEAD]
    ratios = (alpha - 2 * head[:-1]) / (2 * head[:-1] + 2 + alpha)
    I0 = sqrt(pi) * gamma((alpha + 1) / 2) / gamma(a + 1)
    I = np.empty(len(m))
    I[: len(head)] = I0 * np.cumprod(np.concatenate(([1.0], ratios)))
    tail = m[_HOLDER_HEAD:]
    scale = sqrt(pi) * gamma((alpha + 1) / 2) / gamma(-a)
    I[_HOLDER_HEAD:] = np.where(tail % 2, -scale, scale) * _gamma_ratio(tail.astype(float), -a, 1 + a)
    n = 2 * m
    c = np.zeros(n_max + 1)
    c[::2] = _HOLDER_AMPLITUDE * I * (2 * n + 2) / ((n + 2 + alpha) * pi)
    return c


def holder_test_function(alpha: float) -> CentralFn:
    """A |cos theta|^alpha, A = _HOLDER_AMPLITUDE: an alpha-Hoelder class function.

    The cusp at theta = pi/2 makes the coefficients decay like n^{-(1+alpha)}
    (even n only, by symmetry); they come in closed form (``_holder_coeffs``).
    The squared norm is exact:
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
        closed_form=partial(_holder_coeffs, alpha),
    )


_FRESNEL_STEP = 0.125  # trapezoid step in w for the Fresnel auxiliary f
_FRESNEL_REACH = 7.0  # e^{-w^2} < 1e-21 beyond


def _sqrt_shift_coeffs(n_max: int) -> np.ndarray:
    """c_0..c_{n_max} of |theta - pi/2|^(1/2) in closed form.

    The moments I_k = int_0^pi |t - pi/2|^(1/2) cos(k t) dt vanish for odd k,
    I_0 = (4/3) (pi/2)^(3/2), and for k = 2m > 0 integration by parts and
    u = pi s^2 / (2k) give I_k = -(-1)^m (2/k) sqrt(pi/(2k)) S(sqrt k), S
    Fresnel's sine integral.  As pi k / 2 = m pi, S(sqrt k) = 1/2 - (-1)^m
    f(sqrt k) with the auxiliary function f (NIST DLMF 7.5.4), so
    I_k = (2/k) sqrt(pi/(2k)) (f(sqrt k) - (-1)^m / 2).  DLMF 7.7.10 with
    t = (2/(pi k)) w^2 gives f(sqrt k) = 2/(pi sqrt(pi k)) int_0^inf
    e^{-w^2} / (1 + (2 w^2/(pi k))^2) dw, an even integrand analytic in
    |Im w| < 1.25 for every k >= 2, so the trapezoid rule with step 1/8 is
    exact to rounding (Trefethen and Weideman, SIAM Rev. 56, 2014).  All its
    terms are positive, and f <= 0.2 sits beside 1/2, so no step cancels:
    within 2e-16 relative of 40-digit values up to n = 2^16.  (A
    Gauss-Legendre rule for int 2 s^2 cos(k s^2) ds cancels instead, 1.5e-13
    relative at n = 30.)
    """
    k = np.arange(2, n_max + 3, 2, dtype=float)
    stretch = 2 / (np.pi * k)
    f = np.zeros_like(k)
    for w in np.arange(_FRESNEL_STEP, _FRESNEL_REACH, _FRESNEL_STEP):
        f += np.exp(-w * w) / (1 + (stretch * w * w) ** 2)
    f = (0.5 + f) * _FRESNEL_STEP * 2 / (np.pi * np.sqrt(np.pi * k))  # w = 0 has weight 1/2
    alternating = np.where(np.arange(1, len(k) + 1) % 2, -0.5, 0.5)  # (-1)^m / 2
    I = np.zeros(n_max + 3)
    I[0] = (4 / 3) * (np.pi / 2) ** 1.5
    I[2::2] = (2 / k) * np.sqrt(np.pi / (2 * k)) * (f - alternating)
    return _coeffs_from_cos_moments(I, n_max)


def sqrt_shift_fn() -> CentralFn:
    """|theta - pi/2|^(1/2) as a central function (cusp at the equator).

    The coefficients come in closed form (``_sqrt_shift_coeffs``), and so
    does the squared norm (2/pi) int |theta - pi/2| sin^2 = pi/4 - 1/pi.
    """
    return CentralFn(
        fn=lambda th: np.sqrt(np.abs(th - np.pi / 2)),
        name="sqrtshift",
        cusps=(np.pi / 2,),
        norm_sq=pi / 4 - 1 / pi,
        closed_form=_sqrt_shift_coeffs,
    )

"""Reference values the benchmark checks the program against.

Everything here is written from the mathematics alone and uses only NumPy,
``math`` and ``scipy.special``; none of it calls su2fourier, so a defect in
the program cannot hide in its own check.  Conventions follow the package:
a central function has coefficients c_n = (2/pi) int_0^pi f chi_n sin^2,
chi_n(theta) = sin((n+1) theta) / sin(theta), and the Haar measure of SU(2)
is normalised to mass 1.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import fresnel


def chi_table(n_max: int, theta) -> np.ndarray:
    """chi_n(theta) for n = 0..n_max, shape (n_max+1, len(theta)).

    Within 1e-8 of the poles the limits n+1 and (-1)^n (n+1) replace the
    quotient, whose rounded numerator and denominator are both ~1e-16 there.
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    n1 = np.arange(1, n_max + 2)[:, None]
    s = np.sin(th)
    pole = np.abs(s) < 1e-8
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.sin(n1 * th) / s
    if pole.any():
        sign = np.where(np.cos(th[pole]) > 0, 1.0, -1.0)
        out[:, pole] = n1 * sign ** (n1 - 1)
    return out


# --------------------------------------------------------------------------
# coefficients of the package's test functions
# --------------------------------------------------------------------------

def _coeffs_from_cos_moments(I: np.ndarray, n_max: int) -> np.ndarray:
    # chi_n sin^2 = sin((n+1) t) sin t = (cos(n t) - cos((n+2) t)) / 2
    m = np.arange(n_max + 1)
    return (I[m] - I[m + 2]) / np.pi


def sawtooth_profile(n: int):
    """Breakpoints and values of the witness f_n: (-1)^k at 2 k pi/(2n+3)."""
    M = 2 * n + 3
    th = np.append(2 * np.pi * np.arange(n + 2) / M, np.pi)
    va = np.append((-1.0) ** np.arange(n + 2), 0.0)
    return th, va


def piecewise_linear_coeffs(th, va, n_max: int) -> np.ndarray:
    """Exact coefficients of a piecewise-linear profile from antiderivatives.

    On a segment g = v0 + s (t - t0), the primitive of g cos(k t) is
    g sin(k t)/k + s cos(k t)/k^2.
    """
    t0, t1, v0, v1 = th[:-1], th[1:], va[:-1], va[1:]
    s = (v1 - v0) / (t1 - t0)
    k = np.arange(1, n_max + 3)[:, None]
    prim = lambda t, v: v * np.sin(k * t) / k + s * np.cos(k * t) / k**2  # noqa: E731
    I = np.empty(n_max + 3)
    I[0] = float(np.sum(0.5 * (v0 + v1) * (t1 - t0)))
    I[1:] = (prim(t1, v1) - prim(t0, v0)).sum(axis=1)
    return _coeffs_from_cos_moments(I, n_max)


def piecewise_linear_norm_sq(th, va) -> float:
    """(2/pi) int g^2 sin^2 by a 24-node Gauss rule per segment (exact here)."""
    xg, wg = leggauss(24)
    t0, t1 = th[:-1, None], th[1:, None]
    tt = 0.5 * (xg + 1) * (t1 - t0) + t0
    g = np.interp(tt, th, va)
    return float(np.sum(0.5 * (t1 - t0) * wg * g**2 * np.sin(tt) ** 2) * 2 / np.pi)


def holder_coeffs(alpha: float, n_max: int, amplitude: float = 0.125) -> np.ndarray:
    """Coefficients of amplitude * |cos t|^alpha from the Beta-function integral

        int_0^{pi/2} cos^alpha t cos(k t) dt
            = pi Gamma(alpha+1) / (2^{alpha+1} Gamma(1+(alpha+k)/2) Gamma(1+(alpha-k)/2)),

    doubled for even k and zero for odd k (symmetry about pi/2).  For even
    k >= 2 the reflection formula turns 1/Gamma(1+(alpha-k)/2) into
    sin(pi q)/pi * Gamma((k-alpha)/2), and the ratio
    R(k) = Gamma((k-alpha)/2) / Gamma(1+(k+alpha)/2) follows a product
    recurrence in k, which avoids differences of huge log-gammas.
    """
    kmax = n_max + 2
    pre = math.pi * math.gamma(alpha + 1) / 2 ** (alpha + 1)
    I = np.zeros(kmax + 1)
    I[0] = 2 * pre / math.gamma(1 + alpha / 2) ** 2
    R = math.gamma((2 - alpha) / 2) / math.gamma(1 + (2 + alpha) / 2)
    for k in range(2, kmax + 1, 2):
        m = k // 2
        sin_pq = -((-1) ** m) * math.sin(math.pi * alpha / 2)
        I[k] = 2 * pre * sin_pq / math.pi * R
        R *= ((k - alpha) / 2) / (1 + (k + alpha) / 2)
    return amplitude * _coeffs_from_cos_moments(I, n_max)


def sqrt_shift_coeffs(n_max: int) -> np.ndarray:
    """Coefficients of |t - pi/2|^{1/2} through Fresnel integrals.

    With u = t - pi/2 and u = s^2, for even k
        int_0^pi |t - pi/2|^{1/2} cos(k t) dt = -(-1)^{k/2} (2/k) sqrt(pi/(2k)) S(sqrt k),
    S the Fresnel sine integral (integration by parts of 4 int s^2 cos(k s^2)).
    Odd k give 0, and k = 0 gives (4/3) (pi/2)^{3/2}.
    """
    kmax = n_max + 2
    I = np.zeros(kmax + 1)
    I[0] = (4.0 / 3.0) * (np.pi / 2) ** 1.5
    k = np.arange(2, kmax + 1, 2, dtype=float)
    S, _ = fresnel(np.sqrt(k))
    I[2::2] = -((-1.0) ** (k // 2)) * (2 / k) * np.sqrt(np.pi / (2 * k)) * S
    return _coeffs_from_cos_moments(I, n_max)


def central_fn(spec: str):
    """(profile callable, coefficient function n_max -> c) of a CLI function spec."""
    kind, _, arg = spec.partition(":")
    if kind == "sawtooth":
        th, va = sawtooth_profile(int(arg))
        return lambda t: np.interp(t, th, va), lambda n_max: piecewise_linear_coeffs(th, va, n_max)
    if kind == "holder":
        alpha = float(arg)
        return lambda t: 0.125 * np.abs(np.cos(t)) ** alpha, lambda n_max: holder_coeffs(alpha, n_max)
    if kind == "sqrtshift":
        return lambda t: np.sqrt(np.abs(t - np.pi / 2)), sqrt_shift_coeffs
    raise ValueError(f"no reference for {spec!r}")


# --------------------------------------------------------------------------
# derived quantities
# --------------------------------------------------------------------------

def truncation_members(mode: str, N: int) -> np.ndarray:
    """Polyhedral {0..N}; spherical {m : |m-1| <= N}."""
    if mode == "polyhedral":
        return np.arange(N + 1)
    return np.array([m for m in range(N + 2) if abs(m - 1) <= N])


def partial_sum(coeffs: np.ndarray, members: np.ndarray, theta) -> np.ndarray:
    return coeffs[members] @ chi_table(int(members.max()), theta)[members]


def translate_norm(coeffs: np.ndarray, r) -> np.ndarray:
    """||f - f(h^-1 .)|| of a central f at conjugacy angle r of h:
    sum_n 2 |c_n|^2 (1 - chi_n(r)/(n+1)), square-rooted."""
    rr = np.atleast_1d(np.asarray(r, dtype=float))
    dims = np.arange(1, len(coeffs) + 1)[:, None]
    sq = (2 * np.abs(coeffs) ** 2) @ (1 - chi_table(len(coeffs) - 1, rr) / dims)
    return np.sqrt(np.maximum(sq, 0.0))


def lebesgue_fejer(m: int) -> float:
    """Fejer's closed form of (1/pi) int_0^pi |D_m|, D_m(t) = sin((2m+1)t/2)/sin(t/2):
    1/(2m+1) + (2/pi) sum_{k=1}^m tan(k pi/(2m+1)) / k."""
    k = np.arange(1, m + 1, dtype=float)
    return 1.0 / (2 * m + 1) + (2 / math.pi) * math.fsum(np.tan(k * math.pi / (2 * m + 1)) / k)


def dirichlet_at_first_node(n: int) -> float:
    """D_{n+1}(pi/(2n+3)) = 1/sin(pi/(2(2n+3)))."""
    return 1.0 / math.sin(math.pi / (2 * (2 * n + 3)))


def witness_value_at_identity(n: int) -> float:
    """S_n f_n(e) = sum_{m<=n} (m+1) c_m, chi_m(identity) = m+1."""
    th, va = sawtooth_profile(n)
    c = piecewise_linear_coeffs(th, va, n)
    return float(np.sum((np.arange(n + 1) + 1) * c))


# --------------------------------------------------------------------------
# polynomials on SU(2) in (a, b, conj a, conj b)
# --------------------------------------------------------------------------

def monomial_moment(p: int, q: int, r: int, s: int) -> float:
    """int a^p b^q conj(a)^r conj(b)^s d(mu) = p! q!/(p+q+1)! if (p, q) = (r, s), else 0."""
    if p != r or q != s:
        return 0.0
    return math.exp(math.lgamma(p + 1) + math.lgamma(q + 1) - math.lgamma(p + q + 2))


class Polynomial:
    """f = sum_i c_i a^p b^q conj(a)^r conj(b)^s with exact Haar L^2 norm.

    A polynomial of total degree N lies in the span of the matrix
    coefficients of pi_0..pi_N, so its polyhedral partial sum of order N
    reproduces it exactly.
    """

    def __init__(self, exponents, coeffs):
        self.exponents = [tuple(int(e) for e in ex) for ex in exponents]
        scale = [math.sqrt(monomial_moment(p + r, q + s, p + r, q + s)) for p, q, r, s in self.exponents]
        self.coeffs = np.asarray(coeffs, dtype=complex) / np.asarray(scale)
        # f conj(f) collects a^{p+r'} b^{q+s'} conj(a)^{r+p'} conj(b)^{s+q'}
        total = 0.0 + 0.0j
        for ci, (p, q, r, s) in zip(self.coeffs, self.exponents):
            for cj, (p2, q2, r2, s2) in zip(self.coeffs, self.exponents):
                total += ci * np.conj(cj) * monomial_moment(p + r2, q + s2, r + p2, s + q2)
        self.norm = math.sqrt(total.real)

    def __call__(self, a, b):
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        ac, bc = np.conj(a), np.conj(b)
        out = np.zeros(a.shape, dtype=complex)
        for c, (p, q, r, s) in zip(self.coeffs, self.exponents):
            out += c * a**p * b**q * ac**r * bc**s
        return out


"""Fourier analysis on SU(2): coefficients, Dirichlet kernels, partial sums.

Central functions f(x) = f(omega(theta)) have scalar coefficients

    c_n = <f, chi_n> = (2/pi) int_0^pi f(omega(theta)) chi_n(theta) sin^2 d(theta),

and the partial sum over a truncation set S is  sum_{n in S} c_n chi_n.
General square-integrable functions carry matrix coefficients

    F_n = int f(x) pi_n(x)^* d(mu)(x)        (conjugate transpose),

with projections P_n f(x) = (n+1) tr(F_n pi_n(x)); the spherical/polyhedral
partial sums add the projections over the corresponding truncation sets.
For a central f the blocks are scalar, F_n = (c_n / (n+1)) I.  All F_n up to
n_max come from one pass over the Euler tensor rule in beta slabs, which
evaluates f once per node; the integral modulus in ``convergence`` likewise
evaluates f on its rule once per call.  A left translate of a central f
forms only the class angle of z y, not the whole product.

Kernels.  The group Dirichlet kernel D_N = sum_{n<=N} (n+1) chi_n has the
closed form -D'_{N+1}(theta) / (2 sin theta) in terms of the classical
kernel D_m(t) = sin((2m+1)t/2)/sin(t/2) = 1 + 2 sum_{j<=m} cos(jt); both
evaluations are provided, with series fallbacks inside |sin| < 1e-4 pole
neighborhoods (summed in blocks of indices, in the plain loop's order).  The
L^1 norm (Lebesgue constant) is integrated piecewise between the known zeros
t_k = 2 k pi/(2n+3) of the oscillating factor, 8-node Gauss-Legendre per
subinterval, which restores spectral accuracy lost to the absolute value.

Partial sums are computed in coefficient space (exact for band-limited
inputs); kernel convolution survives only as a test oracle.  Coefficients of
a piecewise-linear central function are also available in closed form (the
integrals of (linear) x cos(k theta) per segment), which anchors the
quadrature path.  Computed coefficient vectors are cached per function and
coefficient path, read-only; populate caches single-threaded before any
parallel read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .group import (
    GroupElement,
    QuadratureRule,
    WeylRule,
    conj_angle_arrays,
    gauss_panels,
    mul_arrays,
    weyl_grid,
)
from .representations import (
    char_eval,
    char_table,
    euler_diag_freqs,
    pole_safe,
    repr_matrices,
    truncation_set,
)

__all__ = [
    "CentralFn",
    "char_fn",
    "const_fn",
    "band_limited_fn",
    "from_breakpoints",
    "left_translate",
    "matrix_coeffs",
    "dirichlet_direct",
    "dirichlet_closed",
    "classical_dirichlet",
    "classical_dirichlet_deriv",
    "partial_sum_central",
    "partial_sum_general",
    "lebesgue_constant",
]

# --------------------------------------------------------------------------
# central functions
# --------------------------------------------------------------------------

@dataclass
class CentralFn:
    """A class function on SU(2), given by its profile on theta in [0, pi].

    ``breakpoints`` marks an exact piecewise-linear profile (coefficients and
    the L^2 norm then come from closed-form segment integrals);
    ``band_coeffs`` marks an exactly band-limited function given by its
    chi-coefficients; ``cusps`` lists interior angles where the profile is
    continuous but not smooth, so that auto-built quadrature rules grade
    panels there.  ``norm_sq`` may supply an exact squared L^2 norm.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    breakpoints: Optional[tuple] = None  # (theta array, value array)
    band_coeffs: Optional[np.ndarray] = None
    cusps: tuple = ()
    norm_sq: Optional[float] = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __call__(self, theta):
        return self.fn(np.asarray(theta, dtype=float))

    def on_group(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Evaluate at group elements given as (a, b) arrays."""
        return self.fn(conj_angle_arrays(a, b))

    def coeffs(self, n_max: int) -> np.ndarray:
        """Coefficients c_0..c_{n_max} from the function's one coefficient path.

        Band-limited functions return their stored vector, breakpoint
        functions the closed form, anything else the quadrature on an
        auto-built graded Weyl rule sized for n_max.  The closed form and each
        n_max bucket of the auto rule are cached; cached vectors are read-only.
        """
        if self.band_coeffs is not None:
            c = np.zeros(n_max + 1, dtype=self.band_coeffs.dtype)
            m = min(n_max + 1, len(self.band_coeffs))
            c[:m] = self.band_coeffs[:m]
            return c
        if self.breakpoints is not None:
            key = ("exact",)
        else:
            # bucket n_max so sweeps over N reuse one rule
            key = ("auto", 256 * int(np.ceil((n_max + 1) / 256)))
        cached = self._cache.get(key)
        if cached is not None and len(cached) >= n_max + 1:
            return cached[: n_max + 1]
        if self.breakpoints is not None:
            c = _pl_coeffs(*self.breakpoints, n_max)
        else:
            rule = weyl_grid(order=key[1] // 2 + 8, cusps=self.cusps)
            c = _quadrature_coeffs(self, n_max, rule)
        c.flags.writeable = False
        self._cache[key] = c
        return c

    def l2_norm_sq(self) -> float:
        """Exact closed forms where available, graded quadrature otherwise."""
        if self.norm_sq is not None:
            return self.norm_sq
        if self.band_coeffs is not None:
            return float(np.sum(np.abs(self.band_coeffs) ** 2))
        if self.breakpoints is not None:
            return _pl_norm_sq(*self.breakpoints)
        rule = weyl_grid(order=520, cusps=self.cusps)
        return float(np.real(rule.integrate(np.abs(self.fn(rule.nodes)) ** 2)))


def char_fn(n: int) -> CentralFn:
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    return CentralFn(
        fn=lambda th: char_eval(n, th), name=f"char:{n}", band_coeffs=coeffs
    )


def const_fn(value: float = 1.0) -> CentralFn:
    return CentralFn(
        fn=lambda th: np.full_like(np.asarray(th, dtype=float), value),
        name=f"const:{value}",
        band_coeffs=np.array([value]),
    )


def band_limited_fn(coeffs, name: str = "band") -> CentralFn:
    c = np.asarray(coeffs)

    def fn(th):
        vals = np.tensordot(c, char_table(len(c) - 1, np.atleast_1d(th)), axes=1)
        return vals if np.ndim(th) else vals[0]

    return CentralFn(fn=fn, name=name, band_coeffs=c)


def from_breakpoints(theta, values, name: str = "pl") -> CentralFn:
    th = np.asarray(theta, dtype=float)
    va = np.asarray(values, dtype=float)
    return CentralFn(
        fn=lambda t: np.interp(t, th, va), name=name, breakpoints=(th, va)
    )


def left_translate(f, z: GroupElement):
    """(L_z f)(y) = f(z y) as a batch callable on (a, b) arrays.

    A central f sees only the class angle of z y, which needs only the a-entry
    of the product, so the b-entry is never formed.
    """
    if isinstance(f, CentralFn):

        def translated(a, b):
            return f.on_group(z.a * a - z.b * np.conj(b), None)

    else:

        def translated(a, b):
            return f(*mul_arrays(z.a, z.b, a, b))

    return translated


# --------------------------------------------------------------------------
# closed-form segment integrals for piecewise-linear profiles
# --------------------------------------------------------------------------

def _pl_cos_moments(th, va, kmax):
    """I_k = int_0^pi g cos(k theta) d(theta), k = 0..kmax, g piecewise linear."""
    t0, t1 = th[:-1], th[1:]
    v0, v1 = va[:-1], va[1:]
    slope = (v1 - v0) / (t1 - t0)
    I = np.empty(kmax + 1)
    I[0] = float(np.sum(0.5 * (v0 + v1) * (t1 - t0)))
    if kmax >= 1:
        ks = np.arange(1, kmax + 1)[:, None]
        seg = (v1 * np.sin(ks * t1) - v0 * np.sin(ks * t0)) / ks + slope * (
            np.cos(ks * t1) - np.cos(ks * t0)
        ) / ks**2
        I[1:] = seg.sum(axis=1)
    return I


def _pl_coeffs(th, va, n_max):
    # sin((m+1)t) sin t = (cos(m t) - cos((m+2) t)) / 2
    I = _pl_cos_moments(th, va, n_max + 2)
    m = np.arange(n_max + 1)
    return (I[m] - I[m + 2]) / np.pi


def _poly2_cos_integral(p0, p1, p2, k, t0, t1):
    """int_{t0}^{t1} (p0 + p1 t + p2 t^2) cos(k t) dt for k > 0 (array segments)."""

    def F(t):
        s, c = np.sin(k * t), np.cos(k * t)
        return (
            p0 * s / k
            + p1 * (c / k**2 + t * s / k)
            + p2 * (2 * t * c / k**2 + (t**2 / k - 2 / k**3) * s)
        )

    return F(t1) - F(t0)


def _pl_norm_sq(th, va):
    """(2/pi) int g^2 sin^2 = (1/pi) (int g^2 - int g^2 cos 2theta), exactly."""
    t0, t1 = th[:-1], th[1:]
    v0, v1 = va[:-1], va[1:]
    s = (v1 - v0) / (t1 - t0)
    A = v0 - s * t0  # g = A + s theta on the segment
    p0, p1, p2 = A**2, 2 * A * s, s**2
    plain = p0 * (t1 - t0) + p1 * (t1**2 - t0**2) / 2 + p2 * (t1**3 - t0**3) / 3
    osc = _poly2_cos_integral(p0, p1, p2, 2.0, t0, t1)
    return float(np.sum(plain - osc) / np.pi)


def _quadrature_coeffs(f: CentralFn, n_max: int, rule: WeylRule) -> np.ndarray:
    fw = np.asarray(f.fn(rule.nodes)) * rule.weights
    # chunk over nodes: the (n_max+1, nodes) character table can get large
    chunk = max(1, 8_000_000 // (n_max + 1))
    c = np.zeros(n_max + 1, dtype=fw.dtype)
    for lo in range(0, len(fw), chunk):
        sl = slice(lo, lo + chunk)
        c += char_table(n_max, rule.nodes[sl]) @ fw[sl]
    return c


# --------------------------------------------------------------------------
# Dirichlet kernels
# --------------------------------------------------------------------------

def _half_sine(t):
    return np.sin(t / 2)


_SUM_BLOCK = 4096  # values of j per block: bounds a block to 4097 rows


def _sum_in_blocks(acc: np.ndarray, n: int, terms) -> np.ndarray:
    """acc + terms(1) + ... + terms(n), added left to right as a loop would.

    ``terms(j)`` maps a column of indices j to one row of terms each.  The
    indices run in blocks of at most _SUM_BLOCK; each block is stacked under
    the running accumulator and accumulated in place along axis 0, which adds
    row by row for any number of columns (a plain axis-0 sum of a single
    column would add pairwise).
    """
    for lo in range(1, n + 1, _SUM_BLOCK):
        j = np.arange(lo, min(lo + _SUM_BLOCK, n + 1))[:, None]
        rows = np.concatenate((acc[None], terms(j)))
        acc = np.add.accumulate(rows, axis=0, out=rows)[-1]
    return acc


def classical_dirichlet(n: int, t) -> np.ndarray | float:
    """D_n(t) = sin((2n+1)t/2)/sin(t/2), with the cosine-sum fallback at poles.

    The fallback 1 + 2 sum_{j<=n} cos(jt) runs in blocks of j, in the order
    of the plain loop over j, so it rounds exactly as that loop does.
    """

    def cosine_sum(tt, m):
        tp = tt[m]
        return _sum_in_blocks(np.ones_like(tp), n, lambda j: 2 * np.cos(j * tp))

    return pole_safe(
        t, _half_sine, lambda tt, s, m: np.sin((2 * n + 1) * tt[m] / 2) / s[m], cosine_sum
    )


def classical_dirichlet_deriv(n: int, t) -> np.ndarray | float:
    """D'_n(t), analytic closed form with the -2 sum j sin(jt) fallback.

    The fallback runs in blocks of j like that of ``classical_dirichlet``;
    adding -(2j sin(jt)) rounds exactly as subtracting 2j sin(jt) in a loop.
    """
    a = n + 0.5

    def quotient(tt, s, m):
        ts = tt[m]
        return (
            a * np.cos(a * ts) * np.sin(ts / 2) - 0.5 * np.cos(ts / 2) * np.sin(a * ts)
        ) / np.sin(ts / 2) ** 2

    def sine_sum(tt, m):
        tp = tt[m]
        return _sum_in_blocks(np.zeros_like(tp), n, lambda j: -2 * j * np.sin(j * tp))

    return pole_safe(t, _half_sine, quotient, sine_sum)


def dirichlet_direct(N: int, theta) -> np.ndarray | float:
    """D_N(omega(theta)) = sum_{n<=N} (n+1) chi_n(theta), by stable summation."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    table = char_table(N, th)
    out = (np.arange(N + 1) + 1.0) @ table
    return float(out[0]) if np.ndim(theta) == 0 else out


def dirichlet_closed(N: int, theta) -> np.ndarray | float:
    """D_N(omega(theta)) = -D'_{N+1}(theta) / (2 sin theta).

    Inside |sin theta| < 1e-4 the quotient is replaced by the direct sum,
    which the character recurrence evaluates stably.
    """
    return pole_safe(
        theta,
        np.sin,
        lambda th, s, m: -classical_dirichlet_deriv(N + 1, th[m]) / (2 * s[m]),
        lambda th, m: dirichlet_direct(N, th[m]),
    )


def lebesgue_constant(n: int, nodes_per_interval: int = 8) -> float:
    """(1/pi) int_0^pi |D_{n+1}(theta)| d(theta).

    |D_{n+1}| is smooth between consecutive zeros t_k = 2 k pi / (2n+3), so
    the integral is summed per subinterval with a small Gauss rule each;
    accuracy is limited only by the one half-oscillation per subinterval.
    """
    M = 2 * n + 3
    edges = np.concatenate(([0.0], 2 * np.pi * np.arange(1, n + 2) / M, [np.pi]))
    tt, ww = gauss_panels(edges, nodes_per_interval)
    vals = np.abs(classical_dirichlet(n + 1, tt.ravel())).reshape(tt.shape)
    return float(np.sum(ww * vals) / np.pi)


# --------------------------------------------------------------------------
# partial sums
# --------------------------------------------------------------------------

def partial_sum_central(f: CentralFn, N: int, mode: str, theta):
    """sum_{n in truncation_set(mode, N)} c_n chi_n(theta).

    Spherical mode at order N uses the members {0..N+1} and therefore equals
    the polyhedral sum at N+1 coefficient-by-coefficient.
    """
    tset = truncation_set(mode, N)
    c = f.coeffs(tset.max_index)
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    table = char_table(tset.max_index, th)
    members = np.fromiter(tset.members, dtype=int)
    out = c[members] @ table[members]
    return out[0] if np.ndim(theta) == 0 else out


def matrix_coeffs(f, n_max: int, rule: QuadratureRule) -> list:
    """All F_k = int f(x) pi_k(x)^* d(mu)(x) for k = 0..n_max in one pass.

    f is a CentralFn or a batch callable on (a, b) arrays, and ``rule`` the
    Euler tensor rule of ``haar_grid``; any other rule raises ValueError.
    With pi_k[q, p] = e^{i alpha (k-2q)/2} d_k(beta)[q, p] e^{i gamma (k-2p)/2},
    F_k[p, q] = sum over the grid of w f conj(pi_k[q, p]), so the alpha
    transform carries the q-frequencies and the gamma transform the
    p-frequencies.  The grid is streamed in beta slabs to bound memory: the
    Euler phases e^{i (alpha +- gamma)/2} are built once, each slab scales
    them by cos(beta/2) and sin(beta/2), and its two transforms are matrix
    products, Y[beta] = E_alpha @ f(slab) @ E_gamma (Kostelec & Rockmore,
    FFTs on the rotation group, JFAA 2008).  A weighted beta sum against
    d_k then gives each F_k.
    """
    if not isinstance(rule, QuadratureRule):
        raise ValueError("matrix coefficients need a haar_euler_3d rule")
    fg = f.on_group if isinstance(f, CentralFn) else f
    al, be, wb, ga = rule.alpha, rule.beta, rule.w_beta, rule.gamma
    freqs = np.arange(-n_max, n_max + 1)
    Ea = np.exp(-0.5j * np.outer(freqs, al)) / len(al)
    Eg = np.exp(-0.5j * np.outer(ga, freqs)) / len(ga)
    phase_sum = np.exp(1j * ((al[:, None] + ga[None, :]) / 2))
    phase_dif = np.exp(1j * ((al[:, None] - ga[None, :]) / 2))
    cb, sb = np.cos(be / 2), np.sin(be / 2)
    Y = np.empty((len(be), 2 * n_max + 1, 2 * n_max + 1), dtype=complex)
    for ib in range(len(be)):
        vals = np.asarray(fg(cb[ib] * phase_sum, sb[ib] * phase_dif))
        Y[ib] = Ea @ (vals @ Eg)  # [mu(alpha), nu(gamma)]
    out = []
    for k, d in enumerate(repr_matrices(n_max, cb, sb)):
        idx = euler_diag_freqs(k) + n_max
        Yk = Y[:, idx][:, :, idx]  # [beta, q, p]
        out.append(np.einsum("b,bqp,bqp->pq", wb, d, Yk))
    return out


def partial_sum_general(f, N: int, mode: str, x: GroupElement, rule: QuadratureRule):
    """sum over the truncation set of (k+1) tr(F_k pi_k(x))."""
    tset = truncation_set(mode, N)
    F = matrix_coeffs(f, tset.max_index, rule)
    total = 0.0 + 0.0j
    for k, Pi in enumerate(repr_matrices(tset.max_index, x.a, x.b)):
        if k in tset.members:
            total += (k + 1) * np.trace(F[k] @ Pi)
    return complex(total)

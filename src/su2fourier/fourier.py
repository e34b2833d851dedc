"""Fourier analysis on SU(2): coefficients, Dirichlet kernels, partial sums.

Central functions f(x) = f(omega(theta)) have scalar coefficients

    c_n = <f, chi_n> = (2/pi) int_0^pi f(omega(theta)) chi_n(theta) sin^2 d(theta),

and the partial sum over a truncation set S is  sum_{n in S} c_n chi_n.
General square-integrable functions carry matrix coefficients

    F_n = int f(x) pi_n(x)^* d(mu)(x)        (conjugate transpose),

with projections P_n f(x) = (n+1) tr(F_n pi_n(x)); the spherical/polyhedral
partial sums add the projections over the corresponding truncation sets.
``partial_sum_general`` also takes a batch, one order per function, and
owns the batch's memory cap (``_store_runs``).
For a central f the blocks are scalar, F_n = (c_n / (n+1)) I.  One
evaluator, ``_euler_slabs``, turns a batch of functions into their values on
the Euler tensor rule, one beta slab at a time, from the Euler phases of the
rule's ``planes()``; ``matrix_coeffs`` and ``_translate_norms`` (behind the
general integral modulus in ``convergence``) both stream its slabs, and
neither forms (a, b) arrays over the whole grid.  ``matrix_coeffs`` takes one
function or a batch, whose functions share one pass over the slabs and one
representation walk; it keeps of each slab's (alpha, gamma) transform only
the frequency pairs of equal parity, the only ones a degree reads, and sums
each degree over beta from views.  A central f, or a left translate of one,
reads Re of the a-entry on each slab as cos(beta/2) P + sin(beta/2) Q from
two real (alpha, gamma) planes built once per call, and the functions of a
batch translated by one z read one read-only class angle per slab.  A real
slab enters the gamma transform as one real matrix product against the
interleaved real and imaginary parts of the transform matrix.  The slabs of
that two-plane path may run on the threads of a thread pool made for one
call; ``_each_run`` says when, and why results do not depend on it.
Translates compose (L_g L_z f = L_{z g} f), so a translate of a translate
is evaluated as one.

Kernels.  The group Dirichlet kernel D_N = sum_{n<=N} (n+1) chi_n has the
closed form -D'_{N+1}(theta) / (2 sin theta) in terms of the classical
kernel D_m(t) = sin((2m+1)t/2)/sin(t/2).  ``dirichlet_direct`` sums the
characters, and ``dirichlet_closed`` evaluates the quotient, with the direct
sum as its one fallback where |sin theta| or |sin(theta/2)| is below 1e-4.  The
L^1 norm (Lebesgue constant) of D_{n+1} is Fejer's finite sum
1/M + (2/pi) sum_{k<=n+1} tan(k pi/M)/k, M = 2n+3, exact up to rounding; no
kernel value and no quadrature enters it (the panel quadrature between the
zeros of the numerator survives only as a test oracle).  ``lebesgue_constant``
takes a list of n as well, whose sums share ragged runs (``_ragged_runs``).

Partial sums are computed in coefficient space (exact for band-limited
inputs); kernel convolution survives only as a test oracle.  Central
coefficients and norms are exact only: a ``CentralFn`` is band-limited
(``band_coeffs``) or carries its coefficients in closed form
(``closed_form``) and its squared norm (``norm_sq``): a piecewise-linear
profile through the integrals of (linear) x cos(k theta) per segment, and the
Hoelder and sqrtshift families of ``convergence`` through Gamma ratios and
Fresnel integrals.  A user profile becomes exact through ``from_breakpoints``
(its piecewise-linear interpolant) or ``band_limited_fn``; quadrature
coefficients survive only as a test oracle.  The closed-form vector is cached
per function, read-only; populate caches single-threaded before any parallel
read.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .group import (
    IDENTITY,
    GroupElement,
    QuadratureRule,
    conj_angle_arrays,
    mul_arrays,
)
from .representations import (
    char_eval,
    char_table,
    pole_safe,
    repr_matrices,
    truncation_set,
)

__all__ = [
    "MAX_COEFFS",
    "CentralFn",
    "char_fn",
    "const_fn",
    "band_limited_fn",
    "from_breakpoints",
    "left_translate",
    "matrix_coeffs",
    "dirichlet_direct",
    "dirichlet_closed",
    "partial_sum_central",
    "partial_sum_general",
    "lebesgue_constant",
]

# --------------------------------------------------------------------------
# central functions
# --------------------------------------------------------------------------

MAX_COEFFS = 2**22  # a closed form this long takes up to about 1 s and 300 MB
_MAX_N = 2**59  # n below this keeps 2n + 3 and the bytes of n + 3 floats within int64


@dataclass
class CentralFn:
    """A class function on SU(2), given by its profile on theta in [0, pi].

    Its coefficients and squared L^2 norm are exact: ``band_coeffs`` marks an
    exactly band-limited function given by its chi-coefficients; otherwise
    ``closed_form`` maps n_max to the coefficients c_0..c_{n_max} in closed
    form.  ``norm_sq`` is the exact squared L^2 norm.  The constructors below
    set them and store their arrays read-only.  ``cusps`` lists interior
    angles where the profile is continuous but not smooth, where graded
    quadrature rules put panel edges.  ``fn`` must not write to its
    argument: on the Euler rule it reads a read-only class angle that other
    functions of a batch may share (see ``_euler_slabs``).  It must be safe
    to call from several threads at once, unless the function is
    band-limited: the beta slabs may evaluate it concurrently (see
    ``_each_run``).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    band_coeffs: Optional[np.ndarray] = None
    cusps: tuple = ()
    norm_sq: Optional[float] = None
    closed_form: Optional[Callable[[int], np.ndarray]] = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __call__(self, theta):
        return self.fn(np.asarray(theta, dtype=float))

    def on_group(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Evaluate at group elements given as (a, b) arrays."""
        return self.fn(conj_angle_arrays(a, b))

    def _not_exact(self, what: str) -> NotImplementedError:
        return NotImplementedError(
            f"{self.name or 'this CentralFn'} has no exact {what}; give a user "
            "profile through from_breakpoints (its piecewise-linear interpolant) "
            "or band_limited_fn (its chi-coefficients)"
        )

    def coeffs(self, n_max: int) -> np.ndarray:
        """Coefficients c_0..c_{n_max}, exact to rounding.

        Band-limited functions return their stored vector, zero-padded; any
        other function its ``closed_form``, which is cached and read-only.
        Each closed-form coefficient does not depend on n_max, so every n_max
        reads a prefix of one vector, whatever was asked before.  A function
        with neither raises NotImplementedError.  More than MAX_COEFFS
        coefficients raise ValueError before anything is allocated.
        """
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        if n_max >= MAX_COEFFS:
            raise ValueError(
                f"n_max = {n_max} asks for more than MAX_COEFFS = {MAX_COEFFS} coefficients"
            )
        if self.band_coeffs is not None:
            c = np.zeros(n_max + 1, dtype=self.band_coeffs.dtype)
            m = min(n_max + 1, len(self.band_coeffs))
            c[:m] = self.band_coeffs[:m]
            return c
        if self.closed_form is None:
            raise self._not_exact("coefficients")
        cached = self._cache.get("exact")
        if cached is not None and len(cached) >= n_max + 1:
            return cached[: n_max + 1]
        c = self.closed_form(n_max)
        c.flags.writeable = False
        self._cache["exact"] = c
        return c[: n_max + 1]

    def l2_norm_sq(self) -> float:
        """The exact ``norm_sq``; NotImplementedError if the function has none."""
        if self.norm_sq is None:
            raise self._not_exact("squared norm")
        return self.norm_sq


def _read_only(a, dtype=None) -> np.ndarray:
    """A read-only copy of a: later writes to the caller's array change nothing."""
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


def _band_norm_sq(c: np.ndarray) -> float:
    return float(np.sum(np.abs(c) ** 2))


def char_fn(n: int) -> CentralFn:
    if n < 0:
        raise ValueError(f"degree n must be >= 0, got {n}")
    if n >= MAX_COEFFS:  # before the n + 1 coefficients are allocated
        raise ValueError(f"degree n = {n} needs more than MAX_COEFFS = {MAX_COEFFS} coefficients")
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    coeffs.flags.writeable = False
    return CentralFn(
        fn=lambda th: char_eval(n, th),
        name=f"char:{n}",
        band_coeffs=coeffs,
        norm_sq=_band_norm_sq(coeffs),
    )


def const_fn(value: float = 1.0) -> CentralFn:
    if not np.isfinite(value):
        raise ValueError(f"constant value must be finite, got {value!r}")
    coeffs = _read_only([value])
    return CentralFn(
        fn=lambda th: np.full_like(np.asarray(th, dtype=float), value),
        name=f"const:{value}",
        band_coeffs=coeffs,
        norm_sq=_band_norm_sq(coeffs),
    )


def band_limited_fn(coeffs, name: str = "band") -> CentralFn:
    """sum_n c_n chi_n for 1-D finite chi-coefficients, 1 to MAX_COEFFS many (copied, read-only)."""
    c = _read_only(coeffs)
    if c.ndim != 1 or not 0 < len(c) <= MAX_COEFFS or not np.all(np.isfinite(c)):
        raise ValueError(f"band-limited coefficients must be 1-D, finite and 1 to "
                         f"MAX_COEFFS = {MAX_COEFFS} many, got shape {c.shape}")

    def fn(th):
        vals = np.tensordot(c, char_table(len(c) - 1, np.atleast_1d(th)), axes=1)
        return vals if np.ndim(th) else vals[0]

    return CentralFn(fn=fn, name=name, band_coeffs=c, norm_sq=_band_norm_sq(c))


def from_breakpoints(theta, values, name: str = "pl") -> CentralFn:
    """The piecewise-linear profile through (theta_i, values_i), exactly.

    The angles must increase strictly from exactly 0 to exactly pi, so the
    interpolant is the profile on all of [0, pi]; both arrays must be 1-D,
    finite and of one length >= 2.  Anything else raises ValueError.  The
    coefficients and the squared norm are the profile's segment integrals,
    and both arrays are stored as read-only copies.  Its np.interp copies
    the read-only class angle of each Euler slab; no built-in profile does.
    """
    th, va = _read_only(theta, float), _read_only(values, float)
    if th.ndim != 1 or va.shape != th.shape or len(th) < 2:
        raise ValueError(
            f"breakpoints need 1-D angles and values of one length >= 2, "
            f"got shapes {th.shape} and {va.shape}"
        )
    if not (np.all(np.isfinite(th)) and np.all(np.isfinite(va))):
        raise ValueError("breakpoint angles and values must be finite")
    if th[0] != 0.0 or th[-1] != np.pi or np.any(np.diff(th) <= 0):
        raise ValueError("breakpoint angles must increase strictly from 0 to pi")
    return CentralFn(
        fn=lambda t: np.interp(t, th, va),
        name=name,
        norm_sq=_pl_norm_sq(th, va),
        closed_form=partial(_pl_coeffs, th, va),
    )


@dataclass(frozen=True, eq=False)
class _Translate:
    """(L_z f)(y) = f(z y) for a CentralFn or batch callable f on (a, b) arrays.

    A central f sees only the class angle of z y, which needs only the a-entry
    of the product, so the b-entry is never formed.
    """

    f: object
    z: GroupElement

    def __call__(self, a, b):
        f, z = self.f, self.z
        if isinstance(f, CentralFn):
            return f.on_group(z.a * a - z.b * np.conj(b), None)
        return f(*mul_arrays(z.a, z.b, a, b))


def left_translate(f, z: GroupElement):
    """(L_z f)(y) = f(z y) as a batch callable on (a, b) arrays.

    Translates compose: L_g (L_z f) = L_{z g} f, so a translate of a translate
    holds the one element z g and evaluates like a single translate of f (for
    a central f, one class-angle pass and no group product).
    """
    if isinstance(f, _Translate):
        return _Translate(f.f, f.z * z)
    return _Translate(f, z)


# --------------------------------------------------------------------------
# closed-form segment integrals for piecewise-linear profiles
# --------------------------------------------------------------------------

_MOMENT_BLOCK = 256  # values of k per block: bounds a block to 256 x segments


def _pl_cos_moments(th, va, kmax):
    """I_k = int_0^pi g cos(k theta) d(theta), k = 0..kmax, g piecewise linear.

    The k run in blocks; each row's sum over segments does not depend on how
    many rows its block holds, so the blocks round exactly as one array would.
    """
    t0, t1 = th[:-1], th[1:]
    v0, v1 = va[:-1], va[1:]
    slope = (v1 - v0) / (t1 - t0)
    I = np.empty(kmax + 1)
    I[0] = float(np.sum(0.5 * (v0 + v1) * (t1 - t0)))
    for lo in range(1, kmax + 1, _MOMENT_BLOCK):
        hi = min(lo + _MOMENT_BLOCK, kmax + 1)
        ks = np.arange(lo, hi)[:, None]
        seg = (v1 * np.sin(ks * t1) - v0 * np.sin(ks * t0)) / ks + slope * (
            np.cos(ks * t1) - np.cos(ks * t0)
        ) / ks**2
        I[lo:hi] = seg.sum(axis=1)
    return I


def _coeffs_from_cos_moments(I, n_max):
    """c_0..c_{n_max} from I_k = int_0^pi g cos(k theta) d(theta), k <= n_max + 2.

    sin((m+1)t) sin t = (cos(m t) - cos((m+2) t)) / 2 gives c_m = (I_m - I_{m+2}) / pi.
    """
    c = I[: n_max + 1] - I[2 : n_max + 3]
    c /= np.pi
    return c


def _pl_coeffs(th, va, n_max):
    return _coeffs_from_cos_moments(_pl_cos_moments(th, va, n_max + 2), n_max)


# (sin x - x cos x) / x^3 = sum_k (-1)^k 2(k+1) x^{2k} / (2k+3)!; below x = 1
# ten terms reach rounding, and the closed form would lose up to 1/x^2 of it
_SINC3_SERIES = [(-1) ** k * 2 * (k + 1) / math.factorial(2 * k + 3) for k in range(9, -1, -1)]


def _sinc3(x):
    """(sin x - x cos x) / x^3 for an array x in (0, pi], without cancellation at small x."""
    small = x < 1.0
    out = np.polyval(_SINC3_SERIES, x * x)
    big = x[~small]
    out[~small] = (np.sin(big) - big * np.cos(big)) / big**3
    return out


def _pl_norm_sq(th, va):
    """(2/pi) int g^2 sin^2 = (1/pi) (int g^2 - int g^2 cos 2theta), exactly.

    Each segment is integrated about its midpoint c, where g = m + s u with
    u = theta - c in [-x/2, x/2], x the segment's width, m the mean of its end
    values and s = dv / x their slope.  Then int g^2 = x (v0^2 + v0 v1 + v1^2)/3
    and, with E = (sin x - x cos x)/x^3 (``_sinc3``),

        int g^2 cos 2theta = cos 2c [(v0^2 + v1^2)/2 sin x - dv^2 x E/2]
                             - sin 2c m dv x^2 E,

    so no term grows with the slope, and a steep segment adds no more
    rounding than a flat one.
    """
    v0, v1 = va[:-1], va[1:]
    x = th[1:] - th[:-1]
    c2 = th[:-1] + th[1:]
    dv = v1 - v0
    E = _sinc3(x)
    plain = x * (v0**2 + v0 * v1 + v1**2) / 3
    even = (v0**2 + v1**2) / 2 * np.sin(x) - dv**2 * x * E / 2
    odd = (v0 + v1) / 2 * dv * x**2 * E
    osc = np.cos(c2) * even - np.sin(c2) * odd
    return float(np.sum(plain - osc) / np.pi)


# --------------------------------------------------------------------------
# Dirichlet kernels
# --------------------------------------------------------------------------

def _pole_distance(th):
    """min(|sin theta|, |sin(theta/2)|): the closed kernel divides by both."""
    return np.minimum(np.abs(np.sin(th)), np.abs(np.sin(th / 2)))


def _check_degrees(N) -> None:
    """ValueError unless N is one degree >= 0 or a non-empty array of them."""
    if np.size(N) == 0 or np.min(N) < 0:
        raise ValueError(f"degrees must be >= 0, got {N!r}")


def dirichlet_direct(N, theta) -> np.ndarray | float:
    """D_N(omega(theta)) = sum_{n<=N} (n+1) chi_n(theta), by stable summation.

    ``N`` is one degree, or a 1-D array of degrees that gives one row each.
    All rows come from one ``char_table`` up to the largest degree and one
    running sum of (n+1) chi_n over n, which adds the terms in order, so each
    row is bitwise the call with its own degree.
    """
    _check_degrees(N)
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    table = char_table(int(np.max(N)), th)
    table *= np.arange(len(table))[:, None] + 1.0
    out = np.cumsum(table, axis=0, out=table)[N]
    if np.ndim(theta):
        return out
    return out[..., 0] if np.ndim(N) else float(out[0])


def dirichlet_closed(N, theta) -> np.ndarray | float:
    """D_N(omega(theta)) = -D'_{N+1}(theta) / (2 sin theta).

    With a = N + 3/2 and h = sin(theta/2), the classical kernel
    D_{N+1}(t) = sin(a t)/sin(t/2) has the derivative
    (a cos(a theta) h - cos(theta/2) sin(a theta)/2) / h^2.  ``N`` is one
    degree, or a 1-D array of degrees that gives one row each; every row is
    bitwise the call with its own degree, and the angle-only factors are
    formed once per call.  Where |sin theta| < 1e-4 or |sin(theta/2)| < 1e-4
    the quotient is replaced by ``dirichlet_direct``.  Either way the value is
    within 1e-8 D_N(0) = 1e-8 (N+1)(N+2)(2N+3)/6 of the exact kernel.  A
    negative degree raises ValueError, as in ``dirichlet_direct``.
    """
    _check_degrees(N)
    a = (N if np.ndim(N) == 0 else np.asarray(N)[:, None]) + 1.5

    def quotient(th, s, m):
        t = th[m]
        h, at = np.sin(t / 2), a * t
        deriv = (a * np.cos(at) * h - 0.5 * np.cos(t / 2) * np.sin(at)) / h**2
        return -deriv / (2 * np.sin(t))

    return pole_safe(
        theta, _pole_distance, quotient, lambda th, m: dirichlet_direct(N, th[m])
    )


def lebesgue_constant(n) -> np.ndarray | float:
    """(1/pi) int_0^pi |D_{n+1}(t)| dt, D_{n+1}(t) = sin(M t/2) / sin(t/2), M = 2n+3.

    Fejer's closed form 1/M + (2/pi) sum_{k=1}^{n+1} tan(k pi/M) / k (L. Fejer,
    J. reine angew. Math. 138, 1910).  For 4k > M the tangent is taken as
    cot((M - 2k) pi / (2M)): that argument is small and rounds relatively,
    while tan's own argument there lies near pi/2, where its rounding is
    amplified up to M times.  The positive terms are added pairwise.

    ``n`` is one degree, or a 1-D array of degrees that gives one value each,
    bitwise the call with its own degree: the terms of consecutive degrees
    share one ragged array of at most ``_RUN_ENTRIES`` entries (a larger
    degree runs alone), and each degree's terms are summed over its own
    slice.  Every degree is checked before any term is formed.
    """
    ns = np.asarray(n)  # an object array if some n is beyond int64
    if np.any(ns < 0):
        raise ValueError(f"n must be >= 0, got {ns[ns < 0].flat[0]}")
    if np.any(ns >= _MAX_N):
        raise ValueError(f"n must be < {_MAX_N}, got {ns[ns >= _MAX_N].flat[0]}")
    flat = ns.reshape(-1)
    sums = []
    for items, first, k in _ragged_runs(flat + 1, float):
        part = flat[items]
        k += 1
        half = np.repeat(part + 1.5, part + 1)  # M/2, exact in floats
        term = half - k
        far = term < k  # 4k > M
        np.minimum(term, k, out=term)
        # (M/2 - k) (pi/2) / (M/2) rounds as (M - 2k) pi/(2M), and k (pi/2) / (M/2)
        # as k pi/M: halving and doubling are exact
        term *= np.pi / 2
        term /= half
        np.tan(term, out=term)
        np.divide(1, term, out=term, where=far)
        term /= k
        ends = (first + part + 1).tolist()
        sums += [np.add.reduce(term[a:b]) for a, b in zip(first.tolist(), ends)]
    out = 1 / (2 * flat + 3) + 2 / np.pi * np.array(sums)
    return out.reshape(ns.shape) if ns.ndim else float(out[0])


# --------------------------------------------------------------------------
# partial sums
# --------------------------------------------------------------------------

def partial_sum_central(f: CentralFn, N: int, mode: str, theta):
    """sum_{n in truncation_set(mode, N)} c_n chi_n(theta).

    Spherical mode at order N uses the members {0..N+1} and therefore equals
    the polyhedral sum at N+1 coefficient-by-coefficient.  Every SU(2)
    truncation set is a contiguous index range, so the sum runs over slices.
    """
    r = truncation_set(mode, N)
    c = f.coeffs(r[-1])
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    table = char_table(r[-1], th)
    out = c[r[0] :] @ table[r[0] :]
    return out[0] if np.ndim(theta) == 0 else out


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _split_cpus(environ) -> int:
    """CPUs the beta-slab split may use: all usable ones when BLAS has one thread.

    The BLAS thread count is OpenBLAS's reading of ``environ``: the first
    positive leading integer among ``_BLAS_THREAD_VARS``, in that order.
    With more BLAS threads, or none set (BLAS then starts one per CPU), the
    slab matrix products run on BLAS's own threads, which then compete with
    the slab threads for the CPUs: splitting on top of them made ``diverge``
    slower than the serial loop.  So the split then gets one CPU, which is
    the serial loop.
    """
    leads = (environ.get(name, "").strip().split(",")[0] for name in _BLAS_THREAD_VARS)
    if next((int(v) for v in leads if v.isdigit() and int(v) > 0), None) != 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_CPUS = _split_cpus(os.environ)  # read once at import, as BLAS reads its own


def _each_run(work, count: int, split: bool) -> None:
    """Call work(run) on contiguous ranges ``run`` that cover range(count).

    This is the one account of the beta-slab split of ``matrix_coeffs`` and
    ``_translate_norms``.  ``split`` is true only when every function of
    ``_euler_slabs``'s batch is on its two-plane path (a CentralFn or a left
    translate of one) and no profile is band-limited.  A band-limited profile
    sums characters through package functions; it and any other callable,
    and every function batched with one, run on the calling thread only, so
    that anything wrapped around package functions sees one thread.  With
    ``split`` true and ``_CPUS`` above one (every usable CPU when BLAS runs
    on one thread, else one: see ``_split_cpus``), range(count) is cut into
    min(_CPUS, count) contiguous runs (``np.array_split``): the calling
    thread takes the first run, and a ``ThreadPoolExecutor`` made for this
    call, with one worker fewer than there are runs, takes the others.
    Leaving its ``with`` block shuts it down and joins every worker, also
    when the first run raises, so no thread outlives the call.  If the first
    run raised, that exception is raised here; otherwise the workers' results
    are read in run order, so the exception of the lowest-numbered failing
    run is raised (a worker keeps whatever ``work`` raised, BaseException
    included).  Otherwise the calling thread does work(range(count)).

    ``work`` writes its own slots of a preallocated result, one per beta
    slab, and the callers sum over beta after the join, on the calling
    thread in beta order, so results are bitwise the same for any CPU count.
    One call starts at most one thread per CPU, whatever ``work`` loops
    over: each thread start may give the new thread a fresh malloc arena.
    The executor is imported here, not with the module, so ``import
    su2fourier`` (the benchmark's ``setup_s``) and every call that does not
    split never load ``concurrent.futures`` and the ``logging`` it imports;
    the first split call of a process pays that import once.
    """
    runs = min(_CPUS, count) if split else 1
    if runs <= 1:
        work(range(count))
        return
    from concurrent.futures import ThreadPoolExecutor

    parts = [range(p[0], p[-1] + 1) for p in np.array_split(np.arange(count), runs)]
    with ThreadPoolExecutor(runs - 1) as pool:
        futures = [pool.submit(work, part) for part in parts[1:]]
        work(parts[0])
    for future in futures:
        future.result()


def _euler_slabs(fs, planes):
    """(slab, split) for the functions fs on the Euler rule with its ``planes()``.

    This is the package's one evaluation of functions on that rule, shared
    by ``matrix_coeffs`` and ``_translate_norms``.  ``slab(ib)`` yields each
    function of fs on beta slab ib as an (alpha, gamma) array, in the order
    of fs and one at a time, so a caller that consumes each before the next
    holds one value array per slab.  On that slab y has
    a = cos(beta/2) e^{i(alpha+gamma)/2} and b = sin(beta/2)
    e^{i(alpha-gamma)/2}.  A CentralFn (its own translate by z = identity) or
    a left translate of one reads Re of the a-entry z.a a - z.b conj(b) of
    z y as cos(beta/2) P + sin(beta/2) Q with the two real (alpha, gamma)
    planes P = Re(z.a e^{i(alpha+gamma)/2}) and Q = -Re(z.b
    e^{-i(alpha-gamma)/2}), built once per call for each distinct z, so its
    slabs form no complex (a, b) arrays.  Each slab computes the class angle
    of each distinct z once, and every profile translated by that z reads
    it.  That angle is read-only, for every reader in a batch and for a
    single function alike, so a profile that writes to its argument raises
    ValueError.  Any other callable gets the slab's own (a, b) arrays from
    the Euler phases, scaled by cos(beta/2) and sin(beta/2).

    ``split`` is the flag of ``_each_run``: true only if every function is
    on the two-plane path and none is band-limited.
    """
    cb, sb, phase_sum, phase_dif = planes
    planes_of = {}  # each distinct translation z and its (P, Q)
    evals = []  # (profile, z) on the two-plane path, else (ib -> values, None)
    for f in fs:
        if isinstance(f, _Translate) and isinstance(f.f, CentralFn):
            g, z = f.f, f.z
        elif isinstance(f, CentralFn):
            g, z = f, IDENTITY
        else:  # only a general callable's evaluator holds the phase planes
            evals.append((lambda ib, f=f: f(cb[ib] * phase_sum, sb[ib] * phase_dif), None))
            continue
        if z not in planes_of:
            P = np.real(z.a * phase_sum).copy()  # contiguous, without the complex product
            planes_of[z] = P, -np.real(z.b * np.conj(phase_dif))
        evals.append((g, z))

    def slab(ib):
        angles = {}  # the slab's class angle per translation
        for g, z in evals:
            if z is None:
                yield np.asarray(g(ib))
                continue
            if z not in angles:
                # conj_angle_arrays of cos(beta/2) P + sin(beta/2) Q, in place, so
                # each of the concurrent slabs holds one temporary per distinct z
                P, Q = planes_of[z]
                x = cb[ib] * P
                x += sb[ib] * Q
                np.clip(x, -1.0, 1.0, out=x)
                angles[z] = np.arccos(x, out=x)
                x.flags.writeable = False
            yield np.asarray(g.fn(angles[z]))

    return slab, all(z is not None and g.band_coeffs is None for g, z in evals)


def _batch(f, n_max):
    """([f], [n_max]) for one function, or the batch f with its bounds n_max, checked."""
    if callable(f):
        if np.ndim(n_max) != 0:
            raise ValueError(f"one function takes one bound n_max, got {n_max!r}")
        fs, bounds = [f], [n_max]
    else:
        fs = list(f)
        if np.ndim(n_max) == 0:
            raise ValueError(
                f"a batch of functions needs a sequence of bounds n_max, one per "
                f"function, got {n_max!r}"
            )
        bounds = list(n_max)
        if len(bounds) != len(fs):
            raise ValueError(
                f"the batch has {len(fs)} function(s) but {len(bounds)} bound(s) n_max"
            )
        if not fs:
            raise ValueError("a batch of functions needs at least one function")
    for n in bounds:
        if n < 0:
            raise ValueError(f"n_max must be >= 0, got {n}")
    return fs, bounds


def matrix_coeffs(f, n_max, rule: QuadratureRule) -> list:
    """All F_k = int f(x) pi_k(x)^* d(mu)(x) for k = 0..n_max in one pass.

    f is a CentralFn or a batch callable on (a, b) arrays, and ``rule`` the
    Euler tensor rule of ``haar_grid``; any other rule raises ValueError.
    With pi_k[q, p] = e^{i alpha (k-2q)/2} d_k(beta)[q, p] e^{i gamma (k-2p)/2},
    F_k[p, q] = sum over the grid of w f conj(pi_k[q, p]), so the alpha
    transform carries the q-frequencies and the gamma transform the
    p-frequencies.  The grid is streamed in beta slabs to bound memory, and
    each slab's two transforms are matrix products, Y[beta] = E_alpha @
    f(slab) @ E_gamma (Kostelec & Rockmore, FFTs on the rotation group, JFAA
    2008).  A weighted beta sum against d_k then gives each F_k.

    f may also be a sequence of such functions with a sequence n_max of as
    many bounds; the call then returns one F_0..F_{n_max} list per function,
    each bitwise what the call with that function alone returns.  The batch
    shares one streamed pass: one ``planes()``, one ``_each_run``, one
    ``repr_matrices`` walk up to the largest bound, one E_alpha and E_gamma
    per distinct bound, and on each slab one class angle per distinct
    translation (see ``_euler_slabs``).  Each slab transforms and stores one
    function before it evaluates the next.  A sequence f with one bound,
    bounds of another length, an empty batch or a negative bound raises
    ValueError.

    The slabs come from ``_euler_slabs``: two real (alpha, gamma) planes for
    a CentralFn or a left translate of one, the Euler phases for any other
    callable.  A real slab multiplies E_gamma as one real matrix product
    against its interleaved real and imaginary parts.  Each slab writes its
    own rows Y[beta], and ``_each_run`` runs the slabs.

    F_k reads the frequencies k, k - 2, ..., -k on both axes, all of the
    parity of k, so no degree reads a (mu, nu) pair of mixed parity.  Y is
    stored as its two diagonal parity blocks, the even-indexed and the
    odd-indexed rows and columns of each slab's (2 n_max + 1)^2 product,
    about half of the full store.  In its block, degree k's frequencies are
    one reversed run of rows and of columns, so the beta sum reads a view.
    """
    if not isinstance(rule, QuadratureRule):
        raise ValueError("matrix coefficients need a haar_grid rule")
    fs, bounds = _batch(f, n_max)
    al, be, wb, ga = rule.alpha, rule.beta, rule.w_beta, rule.gamma
    transforms = {}  # n_max -> (E_alpha, E_gamma)
    for n in bounds:
        if n not in transforms:
            freqs = np.arange(-n, n + 1)
            Ea = np.exp(-0.5j * np.outer(freqs, al)) / len(al)
            transforms[n] = Ea, np.exp(-0.5j * np.outer(ga, freqs)) / len(ga)
    planes = rule.planes()
    cb, sb = planes[:2]
    slab, split = _euler_slabs(fs, planes)
    del planes  # only a general callable's slabs need the phase planes
    # Y[par][beta, i, j] holds (mu, nu) = (2i + par - n, 2j + par - n), per function
    Ys = [[np.empty((len(be), n + 1 - par, n + 1 - par), dtype=complex) for par in (0, 1)]
          for n in bounds]

    def transform(run):
        for ib in run:
            stores = iter(zip(bounds, Ys))
            # not zipped with the stores: zip would hold each vals while the
            # slab evaluates the next function
            for vals in slab(ib):
                n, Y = next(stores)
                Ea, Eg = transforms[n]
                if np.iscomplexobj(vals):
                    full = Ea @ (vals @ Eg)  # [mu(alpha), nu(gamma)]
                else:  # Eg as [gamma, (re, im) of each nu]
                    full = Ea @ (vals @ Eg.view(float)).view(complex)
                Y[0][ib] = full[0::2, 0::2]
                Y[1][ib] = full[1::2, 1::2]
                del vals  # released before the slab evaluates the next function

    _each_run(transform, len(be), split)
    out = [[] for _ in fs]
    for k, d in enumerate(repr_matrices(max(bounds), cb, sb)):
        for n, Y, F in zip(bounds, Ys, out):
            if k > n:
                continue
            # frequencies k, k - 2, ..., -k: one reversed run of block (n + k) % 2
            hi, lo = (n + k) // 2, (n - k) // 2
            freq = slice(hi, lo - 1 if lo else None, -1)
            Yk = Y[(n + k) % 2][:, freq, freq]  # [beta, q, p], a view
            F.append(np.einsum("b,bqp,bqp->pq", wb, d, Yk))
    return out[0] if callable(f) else out


def _runs(sizes, cap) -> list:
    """Consecutive runs of items, as slices, whose sizes total at most ``cap``;
    an item larger than ``cap`` runs alone."""
    runs, start, total = [], 0, 0
    for i, size in enumerate(sizes):
        if total + size > cap and i > start:
            runs.append(slice(start, i))
            start, total = i, 0
        total += size
    if start < len(sizes):
        runs.append(slice(start, len(sizes)))
    return runs


_RUN_ENTRIES = 2**12  # entries of one ragged run: its temporaries stay near 100 kB


def _ragged_runs(sizes, dtype=np.int64):
    """(items, first, j) for each run of ``_runs(sizes, _RUN_ENTRIES)``.

    A run lays its items out as one ragged array of sizes[i] entries for
    item i: ``items`` is the run's slice of the items, ``first`` each item's
    first entry, and ``j`` each entry's index within its item, of ``dtype``
    (a new array the caller may overwrite).  The batch forms of
    ``lebesgue_constant`` and ``divergence.verify_chain`` evaluate each run
    in one set of NumPy calls.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    for items in _runs(sizes.tolist(), _RUN_ENTRIES):
        s = sizes[items]
        first = np.cumsum(s) - s
        j = np.arange(first[-1] + s[-1], dtype=dtype)
        if len(s) > 1:  # one item's entries are their own indices
            j -= np.repeat(first, s)
        yield items, first, j


def _store_runs(bounds) -> list:
    """Consecutive runs of bounds, as slices, for one ``matrix_coeffs`` batch each.

    A batch holds the parity-block Y store of every function, (n + 1)^2 + n^2
    entries per beta node for bound n, until its beta sums end.  A run grows
    while its stores total at most twice the largest single store, so a
    batch of a long list of bounds holds at most about twice the memory of
    its largest single call, and a few small bounds share a larger one's pass.
    Its one caller, ``partial_sum_general``, sets every batch's memory cap here.
    """
    sizes = [(n + 1) ** 2 + n**2 for n in bounds]
    return _runs(sizes, 2 * max(sizes, default=0))


def _translate_norms(f, hs, rule: QuadratureRule | None) -> list:
    """||delta_h f||_{L^2} over the Haar rule for each h in hs.

    f and each translate f(h^{-1} x) stream through the beta slabs of
    ``_euler_slabs`` on one set of the rule's ``planes()``, built once per
    call; f itself is evaluated once per slab, and each squared norm is the
    beta-weighted sum of the slabs' mean |f - f(h^{-1} .)|^2.  ``_each_run``
    runs the slabs; each run holds f on its own slabs and visits every
    direction, one evaluator of one function each, and each slab stores its
    weighted term.  (Evaluating all directions per slab as one batch was
    bitwise the same but slower.)
    """
    if not isinstance(rule, QuadratureRule):
        raise ValueError("general functions need a haar rule")
    planes = rule.planes()
    slab, split = _euler_slabs([f], planes)
    translates = [left_translate(f, h.inverse()) for h in hs]
    terms = np.empty((len(hs), len(rule.beta)))  # [direction, beta]

    def fill(run):
        base = [fb for ib in run for fb in slab(ib)]
        for row, fh in zip(terms, translates):
            moved, _ = _euler_slabs([fh], planes)
            for ib, fb in zip(run, base):
                [fm] = moved(ib)
                row[ib] = rule.w_beta[ib] * np.sum(np.abs(fb - fm) ** 2)

    _each_run(fill, len(rule.beta), split)
    per_slab = len(rule.alpha) * len(rule.gamma)
    return np.sqrt(np.cumsum(terms, axis=1)[:, -1] / per_slab).tolist()


def partial_sum_general(f, N, mode: str, x: GroupElement, rule: QuadratureRule):
    """sum over truncation_set(mode, N) of (k+1) tr(F_k pi_k(x)), F_k from ``matrix_coeffs``.

    f may also be a sequence of functions with a sequence N of as many
    orders; the call then returns one sum per function, each bitwise what
    the call with that function alone returns.  This owns the batch's memory
    rule: the orders go in consecutive runs (``_store_runs``), each one
    batched ``matrix_coeffs`` pass and one ``repr_matrices`` walk at x whose
    F_k lists are released before the next run's pass, so a long batch holds
    about twice the memory of its largest single call.  A negative order,
    and every batch form ``matrix_coeffs`` refuses, raise ValueError.
    """
    fs, orders = _batch(f, N)
    sets = [truncation_set(mode, n) for n in orders]
    bounds = [r[-1] for r in sets]
    sums = []
    for run in _store_runs(bounds):
        Fs = matrix_coeffs(fs[run], bounds[run], rule)
        totals = [0.0 + 0.0j for _ in Fs]
        for k, Pi in enumerate(repr_matrices(max(bounds[run]), x.a, x.b)):
            for i, r in enumerate(sets[run]):
                if k in r:
                    totals[i] += (k + 1) * np.trace(Fs[i][k] @ Pi)
        sums += [complex(t) for t in totals]
        del Fs  # the only reference: released before the next run's pass
    return sums[0] if callable(f) else sums

"""Sawtooth witnesses whose partial sums blow up at chosen points.

The witness of index n is the central function f_n with profile g_n on
[0, pi]: g_n(2 k pi / (2n+3)) = (-1)^k for k = 0..n+1, g_n(pi) = 0, linear
in between.  That is one triangle wave on all of [0, pi], of period 4 in
v = (theta/pi)(2n+3), and the witness evaluates it so, in a few NumPy passes
with no breakpoint search (``_witness``); ``sawtooth_breakpoints`` gives the
breakpoints as arrays for interpolation by others.  The breakpoints
interlace the extrema of h_n(theta) = cos((n + 3/2) theta), so f_n
correlates with the oscillatory part of the Dirichlet kernel.  The value
of the n-th partial sum at the identity splits into two plain d(theta)
integrals,

    S_n f_n(e) = (1/pi) int f_n cos^2(theta/2) D_{n+1}(theta) d(theta)
               - ((2n+3)/pi) int f_n cos((n+3/2) theta) cos(theta/2) d(theta),

whose first ("bounded") term is dominated by the Lebesgue constant while the
second ("oscillatory") term admits the per-interval lower bounds

    int_{I_k} f_n h_n cos(theta/2) >= (2 pi / (3(2n+3))) cos((k+1) pi/(2n+3)),

I_k = [2k pi/(2n+3), 2(k+1) pi/(2n+3)], plus a nonnegative tail piece.
Summing, and using the identity

    sum_{k=1}^{n+1} cos(k pi/(2n+3)) = (D_{n+1}(pi/(2n+3)) - 1) / 2,

the oscillatory term is >= (1/3) (D_{n+1}(pi/(2n+3)) - 1), and
D_{n+1}(pi/(2n+3)) = 1/sin(pi/(2(2n+3))) >= 2(2n+3)/pi.  So the functional
values grow linearly in n.

Hoelder normalization.  The unit-amplitude witness is NOT uniformly bounded
in the alpha-Hoelder seminorm: two adjacent breakpoint classes lie at
distance 2 sin(pi/(2n+3)) while the values differ by 2, so quotients grow
like ((2n+3)/2 pi)^alpha.  Uniformity holds for the slope-normalized witness
(pi/(2n+3)) f_n, which is 1-Lipschitz in the conjugacy angle: since the
angle is itself (pi/2)-Lipschitz against the chordal metric and the values
stay within +-pi/(2n+3),

    |Delta| <= min((pi/2) d, 2 pi/(2n+3))
            <= ((pi/2) d)^alpha (2 pi/(2n+3))^{1-alpha},

giving the quotient bound ``holder_bound(n, alpha)`` <= pi, uniformly in n.
The functional-norm growth is scale invariant, so either normalization
witnesses divergence; ``holder_bound`` and ``verify_chain`` report the
normalized family.

Closed forms.  With M = 2n + 3, the breakpoints 2 pi j/M and slopes of one
magnitude M/pi (the last segment, of half width, falls from +-1 to 0 at
pi), integration by parts leaves one geometric sum, which
(n + 3/2) 2 pi k/M = pi k closes.  The cosine moments are

    I_0 = int_0^pi g_n = (-1)^{n+1} pi/(2M),
    I_k = int_0^pi g_n cos(k theta)
        = (-1)^{n+1+k} (2M/(pi k^2)) sin^2(pi k/2M) / cos(pi k/M),   k >= 1,

and everything else follows from them:

    c_m = (I_m - I_{m+2}) / pi,                                   ||f_n||^2 = 1/3,
    S_n f_n(e) = sum (m+1) c_m
               = (1/pi) [I_0 + 2 sum_{m=1}^{n} I_m - n I_{n+1} - (n+1) I_{n+2}],
    oscillatory term = (M/(2 pi)) (I_{n+1} + I_{n+2}),
    bounded term = (1/pi) [I_0 + 2 sum_{m=1}^{n} I_m + (3/2) I_{n+1} + (1/2) I_{n+2}],

the last two because cos((n+3/2) theta) cos(theta/2) = [cos((n+2) theta) +
cos((n+1) theta)]/2.  (||f_n||^2 = (1/pi)(int g^2 - int g^2 cos 2 theta),
int g^2 = pi/3 and the second integral vanishes since 2 is not a multiple of
M.)  Neither split term cancels: the oscillatory one adds two positive
moments, and the bounded one adds moments below one in size, not the
value (about -n/2) and the oscillatory term (about n/2).  The angles of
the moments and of the cell integrals are reduced as integers (pi k/M by
k mod 2M) before any sine or cosine, so the forms stay exact to rounding
at any k and n.

``verify_chain`` evaluates the split and every link of the chain from these
forms, with signed margins.  The per-interval integrals and the tail piece
are (linear) x [cos((n+2) theta) + cos((n+1) theta)]/2 on each cell, integrated
through their explicit antiderivatives.  Every margin is then an exact
quantity up to rounding (each is >= 0 for n = 2..1024 and n = 2^k up to
2^16), so a negative margin means the inequality is false.  Given a list
of n, it evaluates the forms of consecutive n in one ragged array per run
of a few thousand entries, as ``lebesgue_constant`` does Fejer's sums, and
each report is bitwise the one its n gives alone.

Left translation L_z f(y) = f(z y) moves the blow-up point: the partial sums
satisfy S_n(L_z f)(x) = S_n f(z x), so the translated witnesses blow up at
z^{-1} -- ``divergence_table`` cross-checks this identity through the honest
3D quadrature path, one batched ``partial_sum_general`` call per point,
against the exact central path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .group import GroupElement, QuadratureRule
from .fourier import (
    CentralFn,
    _MAX_N,
    _coeffs_from_cos_moments,
    _ragged_runs,
    left_translate,
    lebesgue_constant,
    partial_sum_general,
)

__all__ = [
    "sawtooth",
    "sawtooth_breakpoints",
    "sawtooth_normalized",
    "holder_bound",
    "ChainReport",
    "CHAIN_MARGIN_TOL",
    "verify_chain",
    "partial_sum_at_identity",
    "DivergenceRow",
    "divergence_table",
]

CHAIN_MARGIN_TOL = 1e-8  # how far below 0 a margin may round and still count as ok


def _period(n: int) -> int:
    """M = 2n + 3, whose (2 pi/M)-grid holds the breakpoints; requires 2 <= n < _MAX_N."""
    if n < 2:
        raise ValueError("sawtooth witnesses need n >= 2")
    if n >= _MAX_N:
        raise ValueError(f"n = {n} is too large: sawtooth witnesses need n < {_MAX_N}")
    return 2 * n + 3


def sawtooth_breakpoints(n: int):
    """Breakpoint angles and values of the witness profile g_n; requires n >= 2."""
    M = _period(n)
    th = np.append(2 * np.pi * np.arange(n + 2) / M, np.pi)
    va = np.append((-1.0) ** np.arange(n + 2), 0.0)
    return th, va


def _moments(n, k):
    """I_k = int_0^pi g_n cos(k theta) d(theta) for k >= 1, in closed form,
    elementwise over integer n and k (arrays that broadcast).

    sin^2(pi k/2M) reads k mod 2M folded into [0, M], and cos(pi k/M) is
    sin(pi r/2M) with the integer r = M - 2k folded into [-M, M], so both
    sines take arguments within pi/2 and round relatively, at any k.
    """
    M = 2 * n + 3
    q = k % (2 * M)  # both sines have period 2M in k
    r = M - 2 * q  # in (-3M, M]; sin(pi r/2M) = sin(pi (-2M - r)/2M)
    r = np.where(r < -M, -2 * M - r, r)
    q = np.minimum(q, 2 * M - q)  # sin(pi q/2M) = sin(pi (2M - q)/2M)
    sign = 1.0 - 2.0 * ((n + 1 + k) & 1)
    return sign * (2 * M / np.pi) * np.sin(np.pi * q / (2 * M)) ** 2 / (
        k**2 * np.sin(np.pi * r / (2 * M))
    )


def _witness_moments(n: int, kmax: int) -> np.ndarray:
    """I_0..I_kmax of g_n; requires n >= 2."""
    I = np.empty(kmax + 1)
    I[0] = (-1.0) ** (n + 1) * np.pi / (2 * _period(n))
    I[1:] = _moments(n, np.arange(1, kmax + 1))
    return I


def _witness(n: int, scale: float, name: str) -> CentralFn:
    """scale * f_n with its closed-form profile, coefficients and norm.

    The profile is the triangle wave of period 4 in v = (theta/pi) M, scaled
    by ``scale``: g_n = 1 - |v - 4 rint(v/4)| = 1 - 4 |w - rint(w)| with
    w = v/4, the same bits since scaling by 4 is exact.  theta/pi is formed
    before the product with M, so theta = pi gives w = M/4 exactly and
    g_n(pi) = 0 exactly, as g_n(0) = 1.  w - rint(w) is exact (Sterbenz's
    lemma where rint(w) >= 1), so |g_n| <= 1 holds exactly, and the value is
    within about M eps of g_n at the rounded angle, the conditioning of a
    slope of M/pi.  ``fn`` fills new arrays only: it never writes to its
    argument and never copies it, so a read-only class angle costs nothing.

    The coefficients c_m = (I_m - I_{m+2})/pi lose relative accuracy at
    small m for large n, where I_m and I_{m+2} have one sign and nearly one
    size: 9.6e-9 relative off 40-digit values at n = 16384.  Their absolute
    error stays at rounding, within 6.2e-16 (|I_m| + |I_{m+2}|).
    """
    quarter = _period(n) / 4

    def fn(t):
        w = np.divide(t, np.pi, out=np.empty(np.shape(t)))
        w *= quarter
        w -= np.rint(w)
        np.abs(w, out=w)
        w *= -4.0
        w += 1.0
        if scale != 1.0:
            w *= scale
        return w[()]  # a scalar for a 0-d argument, as np.interp gives

    def coeffs(n_max):
        return scale * _coeffs_from_cos_moments(_witness_moments(n, n_max + 2), n_max)

    return CentralFn(fn=fn, name=name, norm_sq=scale**2 / 3, closed_form=coeffs)


def sawtooth(n: int) -> CentralFn:
    """The piecewise-linear witness f_n; requires n >= 2.

    (For n < 2 the extrema interlacing that drives the lower bounds breaks
    down, so such witnesses are rejected.)  Its coefficients and norm are
    the closed forms of the module docstring.
    """
    return _witness(n, 1.0, f"sawtooth:{n}")


def sawtooth_normalized(n: int) -> CentralFn:
    """The slope-normalized witness (pi/(2n+3)) f_n: 1-Lipschitz in the angle.

    This is the family whose alpha-Hoelder quotients are uniformly bounded
    (by ``holder_bound``, hence by pi); see the module docstring.
    """
    return _witness(n, np.pi / _period(n), f"sawtooth-normalized:{n}")


def holder_bound(n, alpha):
    """(pi/2)^alpha (2 pi/(2n+3))^(1-alpha) <= pi.

    Hoelder quotient bound for the slope-normalized witness; interpolation of
    |Delta| <= min((pi/2) d, 2 pi/(2n+3)).  The unit-amplitude witness has no
    such uniform bound (its quotients grow like ((2n+3)/(2 pi))^alpha).
    """
    n = np.asarray(n, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    return (np.pi / 2) ** alpha * (2 * np.pi / (2 * n + 3)) ** (1 - alpha)


# --------------------------------------------------------------------------
# the two-integral split of S_n f_n(e) and the inequality chain
# --------------------------------------------------------------------------

@dataclass
class ChainReport:
    """The split of S_n f_n(e) and signed margins for every link of its chain.

    ``value`` = ``bounded_term`` - ``oscillatory_term`` is S_n f_n(e); it
    agrees with the telescoped coefficient sum ``partial_sum_at_identity`` to
    rounding.  intervals[k] = (lhs integral over I_k, analytic lower bound,
    margin).  ``final_lower_bound`` is the summed bound (D_{n+1}(pi/(2n+3)) -
    1)/3 on the oscillatory term.  ``identity_error`` is |cosine sum - (D-1)/2|.
    ``lip_norm_bound`` bounds sup + Hoelder quotient of the slope-normalized
    witness at the report's alpha.  Every quantity is a closed form, so a
    negative margin means its inequality is false.
    """

    n: int
    intervals: np.ndarray
    tail_integral: float
    cosine_sum: float
    dirichlet_value: float
    identity_error: float
    summed_bound: float
    final_lower_bound: float
    dirichlet_floor: float
    bounded_term: float
    oscillatory_term: float
    value: float
    lebesgue: float
    lip_norm_bound: float
    margins: dict

    @property
    def min_margin(self) -> float:
        return min(self.margins.values())

    def ok(self) -> bool:
        return self.min_margin >= -CHAIN_MARGIN_TOL


def _chain_report(n, alpha, intervals, tail, cosine_sum, D, summed, bounded, osc, leb):
    """The ``ChainReport`` of n from its closed-form pieces, with every margin."""
    M = 2 * n + 3
    final = (D - 1) / 3  # = (M/pi) * summed via the cosine identity
    floor = 2 * M / np.pi
    return ChainReport(
        n=n,
        intervals=intervals,
        tail_integral=tail,
        cosine_sum=cosine_sum,
        dirichlet_value=D,
        identity_error=abs(cosine_sum - (D - 1) / 2),
        summed_bound=summed,
        final_lower_bound=final,
        dirichlet_floor=floor,
        bounded_term=bounded,
        oscillatory_term=osc,
        value=bounded - osc,
        lebesgue=leb,
        lip_norm_bound=np.pi / M + float(holder_bound(n, alpha)),
        margins={
            "intervals": float(intervals[:, 2].min()),
            "tail": tail,
            "oscillatory_vs_final": osc - final,
            "bounded_vs_lebesgue": leb - abs(bounded),
            "dirichlet_floor": D - floor,
        },
    )


def verify_chain(n, alpha: float = 0.5):
    """Evaluate the split and its inequality chain in closed form, with signed margins.

    ``n`` is one n >= 2, which gives its ``ChainReport``, or a sequence of
    them, which gives a list of reports in order, each bitwise the call with
    its own n.  Consecutive n share one ragged array of at most
    ``fourier._RUN_ENTRIES`` entries, n + 3 each (a larger n runs alone):
    the moments, the cell antiderivatives, cos(k pi/M), D_{n+1}(pi/M) and
    the Lebesgue constants of a run take one set of NumPy calls, and only
    each n's sums over its own slice and its report are formed per n.
    ``alpha`` and every n are checked before any array is built.

    Margin violations are reported, not raised; each margin is exact to
    rounding, so a violation would mean a false inequality.  ``alpha`` is the
    Hoelder exponent of ``lip_norm_bound``; outside 0 < alpha <= 1, where the
    interpolation behind ``holder_bound`` holds, it raises ValueError.
    """
    if not 0.0 < alpha <= 1.0:  # NaN fails this test too
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    ns = [n] if np.ndim(n) == 0 else list(n)
    for nn in ns:
        if nn < 2:
            raise ValueError(f"sawtooth witnesses need n >= 2, got {nn}")
        if nn >= _MAX_N:
            raise ValueError(f"n = {nn} is too large: sawtooth witnesses need n < {_MAX_N}")
    reports = []
    for items, first, j in _ragged_runs([nn + 3 for nn in ns]):
        # entry j = 0..n+2 of each n holds I_j, the breakpoint e_j and cos((j+1) pi/M)
        nr = np.array(ns[items], dtype=np.int64)
        Mr = 2 * nr + 3
        n_j, M = np.repeat(nr, nr + 3), np.repeat(Mr, nr + 3)
        last = first + nr + 2  # entry n + 2
        I = _moments(n_j, np.maximum(j, 1))
        I[first] = (-1.0) ** (nr + 1) * np.pi / (2 * Mr)
        # cell j runs from t_j = pi e_j/M to t_{j+1}, with e_j = 2j for j <= n+1 and
        # e_{n+2} = M (t = pi); on it g falls from v_j = (-1)^j to v_{j+1} (v_{n+2}
        # = 0) with slope s_j = -(M/pi) v_j.  int g cos(m theta) over the cell is
        # [g sin(m theta)/m + s_j cos(m theta)/m^2] between its ends, for m = n+1
        # and n+2, with each angle m t_j = pi (m e_j mod 2M)/M reduced in integers.
        # The difference from an n's last entry to the next n's first is never read.
        e = 2 * j
        e[last] = Mr
        m = np.stack([n_j + 1, n_j + 2])
        angle = np.pi * ((m * e) % (2 * M)) / M
        v = 1.0 - 2.0 * (j & 1)  # (-1)^j
        v[last] = 0.0
        g_sin = v * np.sin(angle) / m
        cos_t = np.cos(angle)
        slope = -(M[:-1] / np.pi) * v[:-1]
        per_freq = g_sin[:, 1:] - g_sin[:, :-1] + slope * (
            cos_t[:, 1:] - cos_t[:, :-1]
        ) / m[:, :-1] ** 2
        cell_vals = (per_freq[0] + per_freq[1]) / 2  # cos((n+3/2)t) cos(t/2), halved
        cos_k = np.cos((j + 1) * np.pi / M)[:-1]  # cos(k pi/M), k = 1..n+1 at j = 0..n
        rhs = (2 * np.pi / (3 * M[:-1])) * cos_k
        table = np.stack([cell_vals, rhs, cell_vals - rhs], axis=1)
        D = 1 / np.sin(np.pi / (2 * Mr))  # D_{n+1}(pi/M), see the module docstring

        cells = [slice(a, a + k) for a, k in zip(first.tolist(), (nr + 1).tolist())]
        # the split; the bounded term is summed directly, not as value + osc
        head = I[first] + 2 * np.array([np.add.reduce(I[c.start + 1 : c.stop]) for c in cells])
        bounded = (head + 1.5 * I[last - 1] + 0.5 * I[last]) / np.pi
        osc = Mr / (2 * np.pi) * (I[last - 1] + I[last])
        pieces = zip(
            ns[items], cells, cell_vals[last - 1].tolist(), D.tolist(), bounded.tolist(),
            osc.tolist(), lebesgue_constant(nr).tolist(),
        )
        for nn, c, tail, Dn, bt, ot, leb in pieces:
            cosine_sum = float(np.add.reduce(cos_k[c]))
            summed = float(np.add.reduce(rhs[c]))  # the tail's bound is 0
            reports.append(
                _chain_report(nn, alpha, table[c], tail, cosine_sum, Dn, summed, bt, ot, leb)
            )
    return reports[0] if np.ndim(n) == 0 else reports


def partial_sum_at_identity(n: int) -> float:
    """S_n f_n(e) = sum_{m<=n} (m+1) c_m (chi_m(0) = m+1), telescoped to O(n) moments.

    (1/pi) [I_0 + 2 sum_{m=1}^{n} I_m - n I_{n+1} - (n+1) I_{n+2}]; see the
    module docstring.
    """
    I = _witness_moments(n, n + 2)
    head = I[0] + 2 * np.sum(I[1 : n + 1])
    return float((head - n * I[n + 1] - (n + 1) * I[n + 2]) / np.pi)


# --------------------------------------------------------------------------
# blow-up tables at arbitrary points via translation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DivergenceRow:
    z: GroupElement
    n: int
    general_abs: float
    central_abs: float
    rel_gap: float
    growth: float


def divergence_table(points, n_list, rule: QuadratureRule) -> list:
    """Rows (z, n, |S_n(L_{z^-1} f_n)(z)|, |S_n f_n(e)|, gap, growth).

    The first column goes through matrix coefficients of the translated
    witness on the 3D rule; the second is the exact central path.  They agree
    up to the quadrature error of the rough integrand, which the rel_gap
    column reports.  Each witness and its exact value are built once per
    call, so a bad n raises before any grid work.  Each point takes one
    ``partial_sum_general`` call with every n, which keeps the batch's memory
    cap: a short list such as 4, 8, 16 is one pass over the rule's slabs,
    sharing the class angle of the translation by z^-1, and one walk at z.
    The rows are bitwise those of one call per point and n.
    """
    witnesses = [(n, sawtooth(n), partial_sum_at_identity(n)) for n in n_list]
    if not witnesses:  # a batch needs at least one function
        return []
    rows = []
    for z in points:
        zi = z.inverse()
        fs = [left_translate(f, zi) for _, f, _ in witnesses]
        sums = partial_sum_general(fs, [n for n, _, _ in witnesses], "polyhedral", z, rule)
        for (n, _, exact), general in zip(witnesses, sums):
            rows.append(DivergenceRow(
                z=z, n=n, general_abs=abs(general), central_abs=abs(exact),
                rel_gap=float(abs(general - exact) / abs(exact)), growth=abs(exact) / n,
            ))
    return rows

"""Sawtooth witnesses whose partial sums blow up at chosen points.

The witness of index n is the central function f_n with profile g_n on
[0, pi]: g_n(2 k pi / (2n+3)) = (-1)^k for k = 0..n+1, g_n(pi) = 0, linear
in between.  Its breakpoints interlace the extrema of
h_n(theta) = cos((n + 3/2) theta), so f_n correlates with the oscillatory
part of the Dirichlet kernel.  The value of the n-th partial sum at the
identity splits into two plain d(theta) integrals,

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
2^16), so a negative margin means the inequality is false.

Left translation L_z f(y) = f(z y) moves the blow-up point: the partial sums
satisfy S_n(L_z f)(x) = S_n f(z x), so the translated witnesses blow up at
z^{-1} -- ``divergence_table`` cross-checks this identity through the honest
3D quadrature path against the exact central path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .group import GroupElement, QuadratureRule
from .fourier import (
    CentralFn,
    _coeffs_from_cos_moments,
    _projection_sums,
    _store_runs,
    left_translate,
    lebesgue_constant,
    matrix_coeffs,
)
from .representations import truncation_set

__all__ = [
    "sawtooth",
    "sawtooth_breakpoints",
    "sawtooth_normalized",
    "holder_bound",
    "ChainReport",
    "verify_chain",
    "partial_sum_at_identity",
    "DivergenceRow",
    "divergence_table",
]


def _period(n: int) -> int:
    """M = 2n + 3, whose (2 pi/M)-grid holds the breakpoints; requires n >= 2."""
    if n < 2:
        raise ValueError("sawtooth witnesses need n >= 2")
    return 2 * n + 3


def sawtooth_breakpoints(n: int):
    """Breakpoint angles and values of the witness profile g_n; requires n >= 2."""
    M = _period(n)
    th = np.append(2 * np.pi * np.arange(n + 2) / M, np.pi)
    va = np.append((-1.0) ** np.arange(n + 2), 0.0)
    return th, va


def _witness_moments(n: int, kmax: int) -> np.ndarray:
    """I_k = int_0^pi g_n cos(k theta) d(theta) for k = 0..kmax, in closed form.

    sin^2(pi k/2M) reads k mod 2M folded into [0, M], and cos(pi k/M) is
    sin(pi r/2M) with the integer r = M - 2k folded into [-M, M], so both
    sines take arguments within pi/2 and round relatively, at any k.
    """
    M = _period(n)
    k = np.arange(1, kmax + 1)
    q = k % (2 * M)  # both sines have period 2M in k
    r = M - 2 * q  # in (-3M, M]; sin(pi r/2M) = sin(pi (-2M - r)/2M)
    r = np.where(r < -M, -2 * M - r, r)
    q = np.minimum(q, 2 * M - q)  # sin(pi q/2M) = sin(pi (2M - q)/2M)
    sign = 1.0 - 2.0 * ((n + 1 + k) % 2)
    I = np.empty(kmax + 1)
    I[0] = (-1.0) ** (n + 1) * np.pi / (2 * M)
    I[1:] = sign * (2 * M / np.pi) * np.sin(np.pi * q / (2 * M)) ** 2 / (
        k**2 * np.sin(np.pi * r / (2 * M))
    )
    return I


def _witness(n: int, scale: float, name: str) -> CentralFn:
    """scale * f_n with its closed-form coefficients and norm."""
    th, va = sawtooth_breakpoints(n)
    va = scale * va
    th.flags.writeable = va.flags.writeable = False

    def coeffs(n_max):
        return scale * _coeffs_from_cos_moments(_witness_moments(n, n_max + 2), n_max)

    return CentralFn(
        fn=lambda t: np.interp(t, th, va),
        name=name,
        norm_sq=scale**2 / 3,
        closed_form=coeffs,
    )


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

    def ok(self, tol: float = 1e-8) -> bool:
        return self.min_margin >= -tol


def verify_chain(n: int, alpha: float = 0.5) -> ChainReport:
    """Evaluate the split and its inequality chain in closed form, with signed margins.

    Margin violations are reported, not raised; each margin is exact to
    rounding, so a violation would mean a false inequality.  ``alpha`` is the
    Hoelder exponent of ``lip_norm_bound``; outside 0 < alpha <= 1, where the
    interpolation behind ``holder_bound`` holds, it raises ValueError.
    """
    if not 0.0 < alpha <= 1.0:  # NaN fails this test too
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    M = _period(n)
    I = _witness_moments(n, n + 2)
    # cell j runs from t_j = pi e_j/M to t_{j+1}, with e_j = 2j for j <= n+1 and
    # e_{n+2} = M (t = pi); on it g falls from v_j = (-1)^j to v_{j+1} (v_{n+2}
    # = 0) with slope s_j = -(M/pi) v_j.  int g cos(m theta) over the cell is
    # [g sin(m theta)/m + s_j cos(m theta)/m^2] between its ends, for m = n+1
    # and n+2, with each angle m t_j = pi (m e_j mod 2M)/M reduced in integers.
    e = np.arange(0, 2 * n + 5, 2)
    e[-1] = M
    m = np.array([[n + 1], [n + 2]])
    angle = np.pi * ((m * e) % (2 * M)) / M
    v = (-1.0) ** np.arange(n + 3)
    v[-1] = 0.0
    g_sin = v * np.sin(angle) / m
    cos_t = np.cos(angle)
    slope = -(M / np.pi) * v[:-1]
    per_freq = g_sin[:, 1:] - g_sin[:, :-1] + slope * (cos_t[:, 1:] - cos_t[:, :-1]) / m**2
    cell_vals = (per_freq[0] + per_freq[1]) / 2  # cos((n+3/2)t) cos(t/2), halved
    lhs = cell_vals[: n + 1]
    ks = np.arange(n + 1)
    rhs = (2 * np.pi / (3 * M)) * np.cos((ks + 1) * np.pi / M)
    intervals = np.stack([lhs, rhs, lhs - rhs], axis=1)
    tail = float(cell_vals[n + 1])

    cosine_sum = float(np.sum(np.cos(np.arange(1, n + 2) * np.pi / M)))
    D = float(1 / np.sin(np.pi / (2 * M)))  # D_{n+1}(pi/M), see the module docstring
    identity_error = abs(cosine_sum - (D - 1) / 2)

    # the split; the bounded term is summed directly, not as value + osc
    head = I[0] + 2 * np.sum(I[1 : n + 1])
    bounded = float((head + 1.5 * I[n + 1] + 0.5 * I[n + 2]) / np.pi)
    osc = float(M / (2 * np.pi) * (I[n + 1] + I[n + 2]))
    summed = float(np.sum(rhs))  # tail bound is 0
    final = (D - 1) / 3  # = (M/pi) * summed via the cosine identity
    floor = 2 * M / np.pi
    leb = lebesgue_constant(n)
    margins = {
        "intervals": float(intervals[:, 2].min()),
        "tail": tail,
        "oscillatory_vs_final": osc - final,
        "bounded_vs_lebesgue": leb - abs(bounded),
        "dirichlet_floor": D - floor,
    }
    return ChainReport(
        n=n,
        intervals=intervals,
        tail_integral=tail,
        cosine_sum=cosine_sum,
        dirichlet_value=D,
        identity_error=identity_error,
        summed_bound=summed,
        final_lower_bound=final,
        dirichlet_floor=floor,
        bounded_term=bounded,
        oscillatory_term=osc,
        value=bounded - osc,
        lebesgue=leb,
        lip_norm_bound=np.pi / M + float(holder_bound(n, alpha)),
        margins=margins,
    )


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
    call, so a bad n raises before any grid work.  At each point, n_list
    goes in consecutive runs (``_store_runs``: a run's Y stores total at most
    twice the largest single one) and each run takes one batched
    ``matrix_coeffs`` call (one pass over the rule's slabs, sharing the class
    angle of the translation by z^-1) and one representation walk at z for
    its projection sums.  A short list such as 4, 8, 16 is one run.  The rows
    are bitwise those of one ``partial_sum_general`` call per point and n.
    """
    witnesses = [(n, sawtooth(n), partial_sum_at_identity(n)) for n in n_list]
    sets = [truncation_set("polyhedral", n) for n in n_list]
    runs = _store_runs([r[-1] for r in sets])
    rows = []
    for z in points:
        zi = z.inverse()
        for run in runs:
            fs = [left_translate(f, zi) for _, f, _ in witnesses[run]]
            bounds = [r[-1] for r in sets[run]]
            sums = _projection_sums(matrix_coeffs(fs, bounds, rule), sets[run], z)
            for (n, _, exact), general in zip(witnesses[run], sums):
                gap = abs(general - exact) / abs(exact)
                rows.append(
                    DivergenceRow(
                        z=z,
                        n=n,
                        general_abs=abs(general),
                        central_abs=abs(exact),
                        rel_gap=float(gap),
                        growth=abs(exact) / n,
                    )
                )
    return rows

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

``verify_chain`` evaluates the split and every link of this chain, with
signed margins.  All the integrals run on the exact breakpoint partition
(per cell the integrand is linear times trigonometric, so a fixed 8-node
Gauss rule per cell is exact to machine precision).

Left translation L_z f(y) = f(z y) moves the blow-up point: the partial sums
satisfy S_n(L_z f)(x) = S_n f(z x), so the translated witnesses blow up at
z^{-1} -- ``divergence_table`` cross-checks this identity through the honest
3D quadrature path against the exact central path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .group import GroupElement, QuadratureRule, gauss_panels
from .fourier import (
    CentralFn,
    classical_dirichlet,
    from_breakpoints,
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
    "verify_chain",
    "partial_sum_at_identity",
    "DivergenceRow",
    "divergence_table",
]


def sawtooth_breakpoints(n: int):
    """Breakpoint angles and values of the witness profile g_n; requires n >= 2."""
    if n < 2:
        raise ValueError("sawtooth witnesses need n >= 2")
    M = 2 * n + 3
    th = np.append(2 * np.pi * np.arange(n + 2) / M, np.pi)
    va = np.append((-1.0) ** np.arange(n + 2), 0.0)
    return th, va


def sawtooth(n: int) -> CentralFn:
    """The piecewise-linear witness f_n; requires n >= 2.

    (For n < 2 the extrema interlacing that drives the lower bounds breaks
    down, so such witnesses are rejected.)
    """
    th, va = sawtooth_breakpoints(n)
    return from_breakpoints(th, va, name=f"sawtooth:{n}")


def sawtooth_normalized(n: int) -> CentralFn:
    """The slope-normalized witness (pi/(2n+3)) f_n: 1-Lipschitz in the angle.

    This is the family whose alpha-Hoelder quotients are uniformly bounded
    (by ``holder_bound``, hence by pi); see the module docstring.
    """
    th, va = sawtooth_breakpoints(n)
    scale = np.pi / (2 * n + 3)
    return from_breakpoints(th, scale * va, name=f"sawtooth-normalized:{n}")


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

    ``value`` = ``bounded_term`` - ``oscillatory_term`` is S_n f_n(e); it must
    agree with the coefficient path ``partial_sum_at_identity``.
    intervals[k] = (lhs integral over I_k, analytic lower bound, margin).
    ``final_lower_bound`` is the summed bound (D_{n+1}(pi/(2n+3)) - 1)/3 on
    the oscillatory term.  ``identity_error`` is |cosine sum - (D-1)/2|.
    ``lip_norm_bound`` bounds sup + Hoelder quotient of the slope-normalized
    witness at the report's alpha.
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


def verify_chain(n: int, nodes_per_cell: int = 8, alpha: float = 0.5) -> ChainReport:
    """Evaluate the split and its inequality chain; margins < 0 flag quadrature trouble.

    Margin violations are reported, not raised: with adequate per-cell nodes
    every margin is a true inequality, so a violation signals an
    under-resolved rule, not bad mathematics.  ``alpha`` is the Hoelder
    exponent of ``lip_norm_bound``; outside 0 < alpha <= 1, where the
    interpolation behind ``holder_bound`` holds, it raises ValueError.
    """
    if not 0.0 < alpha <= 1.0:  # NaN fails this test too
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    M = 2 * n + 3
    th, va = sawtooth_breakpoints(n)
    tt, ww = gauss_panels(th, nodes_per_cell)
    g = np.interp(tt, th, va)
    h = np.cos((n + 1.5) * tt)
    half = np.cos(tt / 2)
    cell_vals = np.sum(ww * (g * h * half), axis=1)
    lhs = cell_vals[: n + 1]
    ks = np.arange(n + 1)
    rhs = (2 * np.pi / (3 * M)) * np.cos((ks + 1) * np.pi / M)
    intervals = np.stack([lhs, rhs, lhs - rhs], axis=1)
    tail = float(cell_vals[n + 1])

    cosine_sum = float(np.sum(np.cos(np.arange(1, n + 2) * np.pi / M)))
    D = float(1 / np.sin(np.pi / (2 * M)))  # D_{n+1}(pi/M), see the module docstring
    identity_error = abs(cosine_sum - (D - 1) / 2)

    # the split: both products form ww * g first, as the published payloads round it
    kernel = classical_dirichlet(n + 1, tt.ravel()).reshape(tt.shape)
    bounded = float(np.sum(ww * g * half**2 * kernel) / np.pi)
    osc = float(np.sum(ww * g * h * half) * M / np.pi)
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
    """S_n f_n(e) through the exact coefficient path, chi_m(0) = m+1."""
    c = sawtooth(n).coeffs(n)
    return float(np.sum((np.arange(n + 1) + 1) * c))


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
    column reports.
    """
    rows = []
    for z in points:
        zi = z.inverse()
        for n in n_list:
            f = sawtooth(n)
            exact = partial_sum_at_identity(n)
            general = partial_sum_general(
                left_translate(f, zi), n, "polyhedral", z, rule
            )
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

"""SU(2) group arithmetic, the bi-invariant chordal metric, and quadrature grids.

An element is stored as the complex pair (a, b) with |a|^2 + |b|^2 = 1,
representing the matrix

    [[ a,        b      ],
     [-conj(b),  conj(a)]].

The inverse is (conj(a), -b), the identity is (1, 0), and every element is
conjugate to omega(theta) = diag(e^{i theta}, e^{-i theta}) with
theta = arccos(Re a) in [0, pi] (the conjugacy angle).

The metric is d(x, y) = sqrt(tr((x-y)(x-y)^*) / 2)
              = sqrt(2 - 2 Re(a_x conj(a_y) + b_x conj(b_y))),
which is invariant under left and right translation.  Lie-algebra vectors
X = [[i c, beta], [-conj(beta), -i c]] carry the norm
||X|| = sqrt(c^2 + |beta|^2) = sqrt(tr(X X^*) / 2); with this pairing
d(e, exp X) = 2 sin(||X||/2), so metric radii and Lie-algebra radii agree to
first order.

Two integration rule types are provided, both normalized to total mass 1:

* ``WeylRule``, from ``weyl_grid(order)``: composite Gauss-Legendre on
  [0, pi] (panels from ``gauss_panels``, the package's one panel-rule
  builder) with the class measure (2/pi) sin^2(theta) d(theta) absorbed
  into the weights.  The rule uses 32-node panels, ceil((order+4)/8) of
  them, which integrates cos(k theta) sin^2(theta) to machine precision for
  every k <= 2*order - 4.  A single panel of `order` nodes could not do this
  (two points per oscillation is the hard floor), hence the internal
  oversampling.
  Optional ``cusps`` add geometrically graded panels around points where the
  integrand is not smooth (algebraic cusps of Hoelder-type integrands).

* ``QuadratureRule``, from ``haar_grid(order)``: Euler-angle product rule
  for the full Haar measure, x(alpha, beta, gamma) with
  a = cos(beta/2) e^{i(alpha+gamma)/2},
  b = sin(beta/2) e^{i(alpha-gamma)/2}, alpha in [0, 2pi), beta in [0, pi],
  gamma in [0, 4pi), d(mu) = sin(beta) d(alpha) d(beta) d(gamma) / (16 pi^2).
  Trapezoid (equal weight) in the periodic angles, Gauss-Legendre with the
  sin(beta) weight in beta.  Products of matrix coefficients of total degree
  <= order are integrated to near machine precision.

The Gauss-Legendre nodes and weights behind both rules are computed once per
node count and cached read-only.  The arrays a rule stores or caches (nodes,
weights, axes, element arrays) are read-only too: every caller shares them.

All operations are pure; quadrature sums are evaluated with a fixed
summation order, so results do not depend on execution interleaving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "GroupElement",
    "LieVector",
    "WeylRule",
    "QuadratureRule",
    "IDENTITY",
    "make_element",
    "conj_angle",
    "conj_angle_arrays",
    "metric_d",
    "metric_d_arrays",
    "exp_map",
    "exp_arrays",
    "mul_arrays",
    "gauss_panels",
    "weyl_grid",
    "haar_grid",
    "random_elements",
    "random_directions",
]

_NORM_TOL = 1e-6


@dataclass(frozen=True)
class GroupElement:
    """A point of SU(2), stored as the first row (a, b) of its matrix."""

    a: complex
    b: complex

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        a = self.a * other.a - self.b * np.conj(other.b)
        b = self.a * other.b + self.b * np.conj(other.a)
        return GroupElement(complex(a), complex(b))

    def inverse(self) -> "GroupElement":
        return GroupElement(np.conj(self.a), -self.b)

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.a, self.b], [-np.conj(self.b), np.conj(self.a)]], dtype=complex
        )


IDENTITY = GroupElement(1.0 + 0.0j, 0.0 + 0.0j)


def make_element(a: complex, b: complex) -> GroupElement:
    """Build a group element, re-normalizing rounding drift up to 1e-6.

    Larger norm defects signal a caller bug and raise ValueError.
    """
    s = abs(a) ** 2 + abs(b) ** 2
    if abs(s - 1.0) > _NORM_TOL:
        raise ValueError(f"(a, b) is not on the unit sphere: |a|^2+|b|^2 = {s!r}")
    r = np.sqrt(s)
    return GroupElement(complex(a) / r, complex(b) / r)


def conj_angle(x: GroupElement) -> float:
    """Conjugacy angle theta in [0, pi]; x is conjugate to omega(theta)."""
    return float(np.arccos(np.clip(x.a.real, -1.0, 1.0)))


def conj_angle_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # b never enters: the trace is 2 Re(a).
    return np.arccos(np.clip(np.real(a), -1.0, 1.0))


def metric_d(x: GroupElement, y: GroupElement) -> float:
    """Bi-invariant chordal distance sqrt(tr((x-y)(x-y)^*)/2)."""
    inner = np.real(x.a * np.conj(y.a) + x.b * np.conj(y.b))
    return float(np.sqrt(max(0.0, 2.0 - 2.0 * inner)))


def metric_d_arrays(ax, bx, ay, by) -> np.ndarray:
    inner = np.real(ax * np.conj(ay) + bx * np.conj(by))
    return np.sqrt(np.maximum(0.0, 2.0 - 2.0 * inner))


def mul_arrays(a1, b1, a2, b2):
    """Entrywise product of elements given as (a, b) arrays (broadcasting)."""
    return a1 * a2 - b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


@dataclass(frozen=True)
class LieVector:
    """X = [[i c, beta], [-conj(beta), -i c]] in su(2)."""

    c: float
    beta: complex

    @property
    def norm(self) -> float:
        return float(np.sqrt(self.c**2 + abs(self.beta) ** 2))

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[1j * self.c, self.beta], [-np.conj(self.beta), -1j * self.c]],
            dtype=complex,
        )


def exp_map(X: LieVector) -> GroupElement:
    """Matrix exponential of X; eigenvalues of X are +-i||X||.

    exp(X) = cos(||X||) I + (sin(||X||)/||X||) X, so
    a = cos t + i c sinc, b = beta sinc with t = ||X||.
    """
    t = X.norm
    if t == 0.0:
        return IDENTITY
    s = np.sin(t) / t
    return GroupElement(complex(np.cos(t) + 1j * X.c * s), complex(X.beta * s))


def exp_arrays(c: np.ndarray, beta: np.ndarray):
    """Vectorized exp_map for arrays of (c, beta)."""
    t = np.sqrt(c**2 + np.abs(beta) ** 2)
    s = np.sinc(t / np.pi)  # sin(t)/t, exact 1 at t = 0
    return np.cos(t) + 1j * c * s, beta * s


def random_elements(rng: np.random.Generator, size: int):
    """Haar-uniform elements via normalized Gaussian quaternions: (a, b) arrays."""
    v = rng.normal(size=(4, size))
    v /= np.linalg.norm(v, axis=0)
    return v[0] + 1j * v[1], v[2] + 1j * v[3]


def random_directions(rng: np.random.Generator, size: int):
    """Uniform unit vectors on the sphere of su(2): (c, beta) arrays."""
    v = rng.normal(size=(3, size))
    v /= np.linalg.norm(v, axis=0)
    return v[0], v[1] + 1j * v[2]


# --------------------------------------------------------------------------
# quadrature
# --------------------------------------------------------------------------

_PANEL_NODES = 32


def _read_only(*arrays) -> tuple:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@dataclass(frozen=True, eq=False)
class WeylRule:
    """Class-measure rule on [0, pi] from ``weyl_grid``.

    Nodes are angles theta; the weights absorb (2/pi) sin^2(theta) and sum
    to 1.
    """

    order: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        _read_only(self.nodes, self.weights)

    def __len__(self) -> int:
        return len(self.weights)

    def integrate(self, values: np.ndarray) -> complex | float:
        """Weighted sum over the rule's nodes (fixed summation order)."""
        return np.dot(self.weights, values)


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Euler tensor rule for normalized Haar measure (weights sum to 1).

    Only the axes are stored, for separable fast paths; the flattened
    weights and (a, b) element arrays, in (alpha, beta, gamma) C order, are
    built on first access (large rules never need them).  All are read-only.
    """

    order: int
    alpha: np.ndarray = field(repr=False)
    beta: np.ndarray = field(repr=False)
    w_beta: np.ndarray = field(repr=False)
    gamma: np.ndarray = field(repr=False)

    def __post_init__(self):
        _read_only(self.alpha, self.beta, self.w_beta, self.gamma)

    def __len__(self) -> int:
        return len(self.alpha) * len(self.beta) * len(self.gamma)

    @cached_property
    def weights(self) -> np.ndarray:
        na, nb, ng = len(self.alpha), len(self.beta), len(self.gamma)
        w = np.broadcast_to(self.w_beta[None, :, None] / (na * ng), (na, nb, ng)).ravel()
        _read_only(w)
        return w

    @cached_property
    def _elements(self) -> tuple:
        al, ga = self.alpha[:, None, None], self.gamma[None, None, :]
        be = self.beta[None, :, None]
        a = np.cos(be / 2) * np.exp(1j * (al + ga) / 2)
        b = np.sin(be / 2) * np.exp(1j * (al - ga) / 2)
        return _read_only(a.ravel(), b.ravel())

    def element_arrays(self):
        """Flattened (a, b) arrays of the rule's elements."""
        return self._elements

    def integrate(self, values: np.ndarray) -> complex | float:
        """Weighted sum over the rule's nodes (fixed summation order)."""
        return np.dot(self.weights, values)


@lru_cache(maxsize=32)
def _gauss_legendre(nodes: int) -> tuple:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], cached per count."""
    return _read_only(*leggauss(nodes))


def gauss_panels(edges: np.ndarray, nodes: int):
    """Gauss-Legendre rule with ``nodes`` nodes on each cell [edges[i], edges[i+1]].

    Returns (t, w), both of shape (cells, nodes): sum(w * f(t)) approximates
    the integral of f over [edges[0], edges[-1]].  The reference nodes and
    weights come from a cache per node count; (t, w) are new arrays.
    """
    xg, wg = _gauss_legendre(nodes)
    t0, t1 = edges[:-1], edges[1:]
    t = 0.5 * (xg[None, :] + 1) * (t1 - t0)[:, None] + t0[:, None]
    w = 0.5 * (t1 - t0)[:, None] * wg[None, :]
    return t, w


def _panel_edges(order: int, cusps=()) -> np.ndarray:
    panels = int(np.ceil((order + 4) / 8))
    edges = set(np.linspace(0.0, np.pi, panels + 1))
    for c in cusps:
        if not 0.0 < c < np.pi:
            raise ValueError(f"cusp {c} outside (0, pi)")
        edges.add(c)
        for j in range(1, 35):  # grade down to ~3e-12 panel widths
            w = (np.pi / 64) * 2.0 ** (-j)
            if c - w > 0.0:
                edges.add(c - w)
            if c + w < np.pi:
                edges.add(c + w)
    return np.array(sorted(edges))


def weyl_grid(order: int, cusps=()) -> WeylRule:
    """Class-measure rule on [0, pi]: sum w_i f(theta_i) ~ (2/pi) int f sin^2.

    ``order`` is a resolution parameter: integrands cos(k theta) sin^2(theta)
    are exact (<= ~1e-14) for k <= 2*order - 4.  For oscillatory work follow
    the rule of thumb order >= 4*(max frequency) + 16 used throughout this
    package.  ``cusps`` lists interior points of reduced smoothness that get
    geometrically graded panels.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    t, w = gauss_panels(_panel_edges(order, cusps), _PANEL_NODES)
    t, w = t.ravel(), w.ravel()
    return WeylRule(order=order, nodes=t, weights=w * (2.0 / np.pi) * np.sin(t) ** 2)


def haar_grid(order: int) -> QuadratureRule:
    """Euler-angle product rule for normalized Haar measure.

    Sized so that products of matrix coefficients pi_k[i,j] conj(pi_m[k,l])
    with k + m <= order integrate to near machine precision: trapezoid counts
    n_alpha = order+8 and n_gamma = 2 n_alpha kill all aliases (n_gamma even
    also kills the half-integer cross-parity frequencies), Gauss-Legendre in
    beta with ~1.07*order nodes resolves the polynomial degree in cos(beta/2),
    sin(beta/2).  Spatial spacing is ~2 pi/order in each direction, which is
    what matters when integrating merely Lipschitz functions.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    na = int(2 * np.ceil((order + 8) / 2))
    nb = int(np.ceil(1.07 * order)) + 8
    ng = 2 * na
    al = 2 * np.pi * np.arange(na) / na
    ga = 4 * np.pi * np.arange(ng) / ng
    xg, wg = _gauss_legendre(nb)
    be = 0.5 * (xg + 1) * np.pi
    wb = 0.5 * np.pi * wg * np.sin(be) / 2.0  # int_0^pi sin = 2
    return QuadratureRule(order=order, alpha=al, beta=be, w_beta=wb, gamma=ga)

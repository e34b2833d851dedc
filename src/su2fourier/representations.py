"""Irreducible unitary representations of SU(2).

The representation pi_n (n >= 0) has dimension n+1 and acts on homogeneous
polynomials of degree n in two variables, in the orthonormal monomial basis
e_q = u^{n-q} v^q / sqrt((n-q)! q!); pi_1(x) = [[a, b], [-conj(b), conj(a)]]
is the matrix of x = (a, b) itself.

One kernel, ``repr_matrices``, walks the degrees.  Multiplication of
polynomials intertwines pi_1 (x) pi_n with pi_{n+1}, and its adjoint divided
by sqrt(n+1) is an isometry, which gives the step

    pi_{n+1}[p, q] = sum_{s, t in {u, v}} c_p^s c_q^t pi_1[s, t]
                         pi_n[p - [s = v], q - [t = v]]

with c_k^u = sqrt((n+1-k)/(n+1)) and c_k^v = sqrt(k/(n+1)) (the degree
recursion of T. Risbo, J. Geodesy 1996; Kostelec and Rockmore, JFAA 2008).
Each step compresses a unitary by isometries, so rounding does not grow with
the degree.  The step works on complex (a, b) directly: no Euler angles, no
phase branch cuts, and no degree cap.  The character is

    chi_n(omega(theta)) = sin((n+1) theta) / sin(theta),

evaluated through the Chebyshev-U recurrence wherever sin(theta) is small
(|sin theta| < 1e-4), which removes the 0/0 cancellation at theta in {0, pi}
where the limits are n+1 and (-1)^n (n+1).  The pole mask is ``pole_safe``,
which the closed Dirichlet kernel of ``fourier`` shares, with the direct
character sum as its fallback.

On the Euler tensor grid of ``group.haar_grid`` the matrices factorize as

    pi_n(x(alpha, beta, gamma))[p, q]
        = e^{i alpha (n-2p)/2} * d_n(beta)[p, q] * e^{i gamma (n-2q)/2}

with the real "little-d" factor d_n(beta) = pi_n((cos(beta/2), sin(beta/2))),
which the kernel computes in real arithmetic.  ``fourier`` relies on this
factorization for fast transforms; it is asserted against the direct
evaluation in the test suite.

Truncation index sets: the polyhedral set of order N is {0, ..., N}; the
spherical set collects |m - 1| <= N under the normalization that spaces the
shifted lattice at integers, giving {1} for N = 0 and {0, ..., N+1} for
N >= 1 (so the spherical set of order N equals the polyhedral one of order
N+1).  Both are contiguous, so ``truncation_set`` returns a ``range``.
"""

from __future__ import annotations

from collections import deque

import numpy as np

__all__ = [
    "CHAR_POLE_THRESHOLD",
    "pole_safe",
    "char_eval",
    "char_table",
    "repr_matrices",
    "repr_matrix",
    "wigner_d",
    "truncation_set",
]

CHAR_POLE_THRESHOLD = 1e-4


def pole_safe(theta, sine, quotient, fallback) -> np.ndarray | float:
    """Evaluate a quotient with a pole fallback at angle(s) theta.

    With th the angles as a 1-D float array, s = sine(th) and the mask
    m = |s| >= CHAR_POLE_THRESHOLD, entries in m take quotient(th, s, m) and
    the rest fallback(th, ~m); each branch indexes th and s with the mask
    inside its own expression.  The angles run along the last axis: a branch
    may return leading axes (one row per degree, say), and then both must
    return the same ones.  A scalar theta gives a float, or one value per
    row.
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    s = sine(th)
    safe = np.abs(s) >= CHAR_POLE_THRESHOLD
    q = quotient(th, s, safe)
    out = np.empty(q.shape[:-1] + th.shape)
    out[..., safe] = q
    if (~safe).any():
        out[..., ~safe] = fallback(th, ~safe)
    if np.ndim(theta):
        return out
    return float(out[0]) if out.ndim == 1 else out[..., 0]


def char_eval(n: int, theta) -> np.ndarray | float:
    """chi_n at conjugacy angle(s) theta, pole-safe.

    Uses sin((n+1)theta)/sin(theta) where |sin theta| >= 1e-4 and the
    Chebyshev recurrence U_n(cos theta) of ``char_table`` elsewhere.
    """
    return pole_safe(
        theta,
        np.sin,
        lambda th, s, m: np.sin((n + 1) * th[m]) / s[m],
        lambda th, m: char_table(n, th[m])[n],
    )


def char_table(n_max: int, theta: np.ndarray) -> np.ndarray:
    """Table chi_n(theta) for n = 0..n_max, shape (n_max+1,) + theta.shape.

    The recurrence U_{n+1} = 2 cos(theta) U_n - U_{n-1} is stable on [0, pi]
    (solutions stay oscillatory), so one pass serves every angle including
    the poles.  Each row is filled in place from 2 cos(theta), computed once,
    with the rounding of (2 cos theta) U_n - U_{n-1} and no temporaries.
    """
    if n_max < 0:
        raise ValueError(f"degree n must be >= 0, got {n_max}")
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    x2 = 2 * np.cos(th)
    out = np.empty((n_max + 1,) + th.shape)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = x2
    for n in range(2, n_max + 1):
        np.multiply(x2, out[n - 1], out=out[n])
        out[n] -= out[n - 2]
    return out


def repr_matrices(n_max: int, a, b):
    """Yield pi_0, ..., pi_{n_max} at arrays (a, b), each a.shape + (n+1, n+1).

    Each matrix is one step of the degree recurrence (module docstring) from
    the one before, so a caller that needs every degree walks this once.
    Real (a, b) stay in real arithmetic, which gives the little-d factors.
    Each yielded matrix is a fresh array.  A step holds, besides the two
    matrices, one row part and one product scratch, both released before
    the next yield.
    """
    if n_max < 0:
        raise ValueError(f"degree n must be >= 0, got {n_max}")
    a, b = np.asarray(a), np.asarray(b)
    M = np.ones(a.shape + (1, 1), dtype=np.result_type(a, b, 1.0))
    a, b = a[..., None, None], b[..., None, None]
    rows = ((a, b), (-np.conj(b), np.conj(a)))  # rows s = u, v of pi_1
    for n in range(n_max + 1):
        yield M
        if n == n_max:
            break
        k = np.arange(n + 2)
        c = (np.sqrt((n + 1 - k) / (n + 1)), np.sqrt(k / (n + 1)))  # c^u, c^v
        nxt = np.zeros(M.shape[:-2] + (n + 2, n + 2), dtype=M.dtype)
        part = np.empty(M.shape[:-1] + (n + 2,), dtype=M.dtype)
        prod = np.empty_like(M)
        for s, (x, y) in enumerate(rows):
            # sum over t: column q of pi_n feeds q (t = u) and q + 1 (t = v)
            np.multiply(M, x * c[0][:-1], out=part[..., :-1])
            part[..., -1] = 0
            np.multiply(M, y * c[1][1:], out=prod)
            part[..., 1:] += prod
            # row p of pi_n feeds p (s = u) and p + 1 (s = v)
            part *= c[s][s : n + 1 + s, None]
            nxt[..., s : n + 1 + s, :] += part
        del part, prod  # held across the yield, they would outlive their step
        M = nxt


def repr_matrix(n: int, x) -> np.ndarray:
    """pi_n(x) as an (n+1) x (n+1) unitary matrix."""
    return deque(repr_matrices(n, np.asarray(x.a, complex), np.asarray(x.b, complex)), maxlen=1)[0]


def wigner_d(n: int, beta: np.ndarray) -> np.ndarray:
    """Real middle factor d_n(beta) of the Euler factorization, (len, n+1, n+1)."""
    be = np.atleast_1d(np.asarray(beta, dtype=float))
    return deque(repr_matrices(n, np.cos(be / 2), np.sin(be / 2)), maxlen=1)[0]


def truncation_set(mode: str, N: int) -> range:
    """Polyhedral {0..N} or spherical {m >= 0 : |m-1| <= N} truncations.

    The spherical normalization spaces ||lambda_m - rho|| at the integers
    |m - 1|, so the spherical set of order N equals the polyhedral set of
    order N+1 for every N >= 1 (and is {1} at N = 0).
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    if mode == "polyhedral":
        return range(N + 1)
    if mode == "spherical":
        return range(1, 2) if N == 0 else range(N + 2)
    raise ValueError(f"unknown truncation mode {mode!r}")

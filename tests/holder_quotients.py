"""Sampled Hoelder quotients of central functions, for the test suites."""

import numpy as np

from su2fourier.fourier import CentralFn
from su2fourier.group import exp_arrays, mul_arrays, random_directions, random_elements


def metric_d_arrays(ax, bx, ay, by) -> np.ndarray:
    """Chordal distance sqrt(2 - 2 Re(a_x conj(a_y) + b_x conj(b_y))) on arrays."""
    inner = np.real(ax * np.conj(ay) + bx * np.conj(by))
    return np.sqrt(np.maximum(0.0, 2.0 - 2.0 * inner))


def holder_quotient_estimate(
    f: CentralFn, alpha: float, sample_count: int = 10_000, seed: int = 0
) -> float:
    """max over sampled pairs of |f(x) - f(y)| / d(x, y)^alpha.

    Pairs are x Haar-random and y = x exp(X) with ||X|| stratified over the
    dyadic scales pi * 2^-j down to ~1e-6 (suprema of sawtooth-like
    quotients live at small scales).  A lower bound for the true seminorm;
    deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    radii = np.pi * 2.0 ** (-np.arange(22, dtype=float))
    per = max(1, sample_count // len(radii))
    best = 0.0
    for r in radii:
        ax, bx = random_elements(rng, per)
        c, beta = random_directions(rng, per)
        ah, bh = exp_arrays(r * c, r * beta)
        ay, by = mul_arrays(ax, bx, ah, bh)
        d = metric_d_arrays(ax, bx, ay, by)
        fx = f.on_group(ax, bx)
        fy = f.on_group(ay, by)
        ok = d > 0
        if ok.any():
            q = np.abs(fx[ok] - fy[ok]) / d[ok] ** alpha
            best = max(best, float(q.max()))
    return best

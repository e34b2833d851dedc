"""Coefficients, Dirichlet kernels, partial sums, Lebesgue constants."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from su2fourier import fourier
from su2fourier.group import (
    GroupElement,
    conj_angle,
    gauss_panels,
    haar_grid,
    mul_arrays,
    random_elements,
    weyl_grid,
)
from su2fourier.representations import (
    char_eval,
    char_table,
    repr_matrices,
    repr_matrix,
    truncation_set,
)
from su2fourier.fourier import (
    CentralFn,
    _pl_cos_moments,
    band_limited_fn,
    char_fn,
    const_fn,
    dirichlet_closed,
    dirichlet_direct,
    from_breakpoints,
    lebesgue_constant,
    left_translate,
    matrix_coeffs,
    partial_sum_central,
    partial_sum_general,
)
from su2fourier.convergence import holder_test_function, sqrt_shift_fn
from su2fourier.cli import _SPEC_KINDS, parse_central_fn
from su2fourier.divergence import sawtooth, sawtooth_breakpoints, sawtooth_normalized

from helpers import (
    classical_dirichlet,
    elements,
    gather_matrix_coeffs,
    haar_weights,
    lebesgue_per_n,
    quadrature_coeffs,
    random_element,
)


# ---------------------------------------------------------------- coefficients

def test_coeff_central_character_delta():
    rule = weyl_grid(10)
    f = char_fn(3)
    for n in range(6):
        want = 1.0 if n == 3 else 0.0
        assert quadrature_coeffs(f, n, rule)[n] == pytest.approx(want, abs=1e-11)


def test_coeff_central_constant():
    rule = weyl_grid(6)
    f = const_fn(1.0)
    assert quadrature_coeffs(f, 0, rule)[0] == pytest.approx(1.0, abs=1e-13)
    assert quadrature_coeffs(f, 4, rule)[4] == pytest.approx(0.0, abs=1e-13)


def test_coeff_central_cosine():
    # cos(theta) = chi_1 / 2
    rule = weyl_grid(8)
    f = CentralFn(fn=np.cos, name="cos")
    assert quadrature_coeffs(f, 1, rule)[1] == pytest.approx(0.5, abs=1e-13)
    for n in (0, 2, 3):
        assert quadrature_coeffs(f, n, rule)[n] == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("make", [lambda: sawtooth(5)], ids=["exact"])
def test_coeffs_cached_vector_is_read_only(make):
    # the closed-form path hands out its cached vector
    h = make()
    v = h.coeffs(10)
    with pytest.raises(ValueError):
        v[0] = 99
    assert h.coeffs(10)[0] == make().coeffs(10)[0]


_KINKS = tuple(sawtooth_breakpoints(5)[0][1:-1])  # where sawtooth:5 bends
_EXACT_CASES = {  # one spec per CLI spec kind, its argument picked by type
    **{f"{kind}:{5 if number is int else 0.5}": None for kind, (number, _) in _SPEC_KINDS.items()},
    "sqrtshift": None,
    "band": lambda: band_limited_fn(np.random.default_rng(0).normal(size=9)),
    "sawtooth-normalized:5": lambda: sawtooth_normalized(5),
}


@pytest.mark.parametrize("label", list(_EXACT_CASES))
def test_exact_coeffs_and_norm_match_quadrature(label):
    # every function the CLI can build has exact coefficients and norm: a
    # family without them raises here.  The oracle rule is graded at the
    # function's cusps and at the bends of the sawtooth profiles.
    make = _EXACT_CASES[label]
    f = parse_central_fn(label) if make is None else make()
    rule = weyl_grid(100, cusps=tuple(sorted(set(f.cusps) | set(_KINKS))))
    c = f.coeffs(64)
    assert np.abs(quadrature_coeffs(f, 64, rule) - c).max() <= 1e-14 * np.abs(c).max()
    # the closed-form piecewise-linear norm is 2.4e-14 off on sawtooth:5
    quad = float(np.dot(rule.weights, np.abs(f(rule.nodes)) ** 2))
    assert f.l2_norm_sq() == pytest.approx(quad, rel=1e-13)


def test_central_fn_without_exact_data_raises():
    f = CentralFn(fn=np.cos, name="cos")
    for method in (lambda: f.coeffs(4), f.l2_norm_sq):
        with pytest.raises(NotImplementedError, match="from_breakpoints"):
            method()


@pytest.mark.parametrize("n_max", [1000, fourier.MAX_COEFFS - 1])
def test_coeffs_from_cos_moments_slices_without_temporaries(n_max):
    # bitwise the indexed form (I[m] - I[m + 2]) / pi, with one allocation of
    # the result's size at most: the slices are views
    I = np.random.default_rng(n_max).standard_normal(n_max + 3)
    m = np.arange(n_max + 1)
    want = (I[m] - I[m + 2]) / np.pi
    tracemalloc.start()
    try:
        c = fourier._coeffs_from_cos_moments(I, n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(c, want)
    assert peak <= 1.25 * c.nbytes


@pytest.mark.parametrize("make", [lambda: sawtooth(5), lambda: char_fn(2)], ids=["closed", "band"])
def test_coeffs_past_the_cap_raise_before_allocating(make, monkeypatch):
    assert fourier.MAX_COEFFS >= 2**20
    f = make()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_COEFFS = 4194304"):
            f.coeffs(10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    monkeypatch.setattr(fourier, "MAX_COEFFS", 8)
    assert len(f.coeffs(7)) == 8
    with pytest.raises(ValueError, match="n_max = 8 asks for more than MAX_COEFFS = 8"):
        f.coeffs(8)


@pytest.mark.parametrize(
    "theta, values",
    [
        ([0.5, 2.0], [1.0, 1.0]),  # np.interp would extend the end values
        ([0.0, 2.0], [1.0, 1.0]),
        ([0.0, 2.0, 1.0, np.pi], [0.0, 1.0, 2.0, 3.0]),  # unsorted
        ([0.0, 1.0, 1.0, np.pi], [0.0, 1.0, 2.0, 3.0]),  # repeated angle
        ([0.0, np.nan, np.pi], [0.0, 1.0, 2.0]),
        ([0.0, 1.0, np.pi], [0.0, np.inf, 2.0]),
        ([0.0, 1.0, np.pi], [0.0, 1.0]),  # lengths differ
        ([np.pi], [1.0]),  # one point
        ([[0.0, np.pi]], [[1.0, 1.0]]),  # not 1-D
        (0.0, 1.0),
    ],
    ids=["short-range", "short-right", "unsorted", "repeated", "nan-angle", "inf-value",
         "lengths", "one-point", "2-d", "scalar"],
)
def test_from_breakpoints_rejects_bad_input(theta, values):
    with pytest.raises(ValueError):
        from_breakpoints(theta, values)


@pytest.mark.parametrize(
    "coeffs",
    [[[1.0, 2.0], [3.0, 4.0]], [], 1.0, [0.5, np.nan], [np.inf], [1.0, complex(0, np.inf)],
     [0.1] * 9],
    ids=["2-d", "empty", "scalar", "nan", "inf", "complex-inf", "past-the-cap"],
)
def test_band_limited_fn_rejects_bad_input(coeffs, monkeypatch):
    monkeypatch.setattr(fourier, "MAX_COEFFS", 8)  # nine coefficients are one too many
    with pytest.raises(ValueError, match="band-limited coefficients must be 1-D, finite"):
        band_limited_fn(coeffs)
    assert len(band_limited_fn([0.1] * 8).coeffs(7)) == 8


def test_char_fn_past_the_cap_raises_before_allocating(monkeypatch):
    monkeypatch.setattr(fourier, "MAX_COEFFS", 8)
    assert char_fn(7).coeffs(7)[7] == 1.0
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="degree n = 10000000000 needs more than MAX_COEFFS = 8"):
            char_fn(10**10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_constructors_copy_their_input():
    c = np.array([0.3, 0.1, -0.2, 0.9])
    f = band_limited_fn(c)
    before = (f(0.4), f.l2_norm_sq(), f.coeffs(5).copy())
    c[1] = 5.0
    assert (f(0.4), f.l2_norm_sq()) == before[:2] and np.array_equal(f.coeffs(5), before[2])
    th, va = sawtooth_breakpoints(5)
    th, va = th.copy(), va.copy()
    g = from_breakpoints(th, va)
    before = (g(0.4), g.l2_norm_sq(), g.coeffs(5).copy())
    th[1] += 0.1
    va[1] = 7.0
    assert (g(0.4), g.l2_norm_sq()) == before[:2] and np.array_equal(g.coeffs(5), before[2])


@pytest.mark.parametrize("make", [lambda: char_fn(2), const_fn,
                                  lambda: band_limited_fn([0.3, 0.1, -0.2])],
                         ids=["char", "const", "band"])
def test_band_coeffs_are_read_only(make):
    f = make()
    with pytest.raises(ValueError):
        f.band_coeffs[-1] = 7.0
    assert f.l2_norm_sq() == make().l2_norm_sq()


@pytest.mark.parametrize("n", [5, 17])
def test_pl_coeffs_quadrature_vs_closed_form(n):
    # quadrature on a breakpoint-aligned rule against the exact segment integrals
    f = sawtooth(n)
    th, _ = sawtooth_breakpoints(n)
    rule = weyl_grid(2 * n + 16, cusps=tuple(th[1:-1]))
    exact = f.coeffs(n + 4)
    quad = quadrature_coeffs(f, n + 4, rule)
    assert np.abs(exact - quad).max() < 1e-10


def _pl_cos_moments_unblocked(th, va, kmax):
    # the moments with every k in one (kmax, segments) array
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


@pytest.mark.parametrize("n", [2, 9, 300, 2048])
def test_pl_cos_moments_blocked_is_bitwise_unblocked(n):
    th, va = sawtooth_breakpoints(n)
    for kmax in sorted({0, 1, 255, 256, 257, n + 2}):
        assert np.array_equal(_pl_cos_moments(th, va, kmax), _pl_cos_moments_unblocked(th, va, kmax))


def test_pl_cos_moments_memory_is_bounded():
    # unblocked, this size peaks above 500 MiB
    th, va = sawtooth_breakpoints(4096)
    tracemalloc.start()
    try:
        _pl_cos_moments(th, va, 4098)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


def test_parseval_band_limited():
    rng = np.random.default_rng(0)
    c = rng.normal(size=51)
    f = band_limited_fn(c)
    rule = weyl_grid(120)
    got = quadrature_coeffs(f, 50, rule)
    assert np.abs(got - c).max() < 1e-10
    assert np.dot(rule.weights, np.abs(f(rule.nodes)) ** 2) == pytest.approx(
        np.sum(c**2), abs=1e-10
    )


def test_parseval_partial_inequality():
    # head energies never exceed the squared norm (plus quadrature slack)
    f = sawtooth(9)
    c = f.coeffs(64)
    norm_sq = f.l2_norm_sq()
    heads = np.cumsum(np.abs(c) ** 2)
    assert np.all(heads <= norm_sq + 1e-12)


def _mp_pl_norm_sq(th, va):
    """(2/pi) int g^2 sin^2 of the piecewise-linear profile at 40 digits."""
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        ends = [list(map(mpmath.mpf, a)) for a in (th[:-1], th[1:], va[:-1], va[1:])]
        for t0, t1, v0, v1 in zip(*ends):
            s = (v1 - v0) / (t1 - t0)
            plain = (v1**3 - v0**3) / (3 * s) if s else v0**2 * (t1 - t0)

            def F(t, v):  # a primitive of g^2 cos 2t, g = v at t
                sin2, cos2 = mpmath.sin(2 * t), mpmath.cos(2 * t)
                return v * v * sin2 / 2 + s * v * cos2 / 2 - s * s * sin2 / 4

            total += plain - (F(t1, v1) - F(t0, v0))
        return total / mpmath.pi


def test_pl_norm_of_a_steep_profile_matches_mpmath():
    # over a thousand segments, some of them 1e-9 wide, with values of
    # alternating sign: slopes reach 1e9, and an expansion of g^2 about
    # theta = 0 would cancel away most digits
    rng = np.random.default_rng(5)
    inner = np.concatenate([rng.uniform(0, np.pi, 1100), np.geomspace(1e-9, 1e-3, 40)])
    th = np.concatenate([[0.0], np.unique(inner), [np.pi]])
    va = 3 * rng.uniform(-1, 1, len(th)) * (-1.0) ** np.arange(len(th))
    want = _mp_pl_norm_sq(th, va)
    assert abs(from_breakpoints(th, va).l2_norm_sq() - want) <= 1e-14 * want


def test_pl_norm_closed_form():
    f = sawtooth(6)
    rule = weyl_grid(40, cusps=tuple(sawtooth_breakpoints(6)[0][1:-1]))
    quad = np.dot(rule.weights, f(rule.nodes) ** 2)
    assert f.l2_norm_sq() == pytest.approx(float(quad), abs=1e-13)


# ---------------------------------------------------------------- matrix coefficients

def test_coeff_matrix_schur_entry():
    # f = [pi_2]_{0,1}: with F_n = int f pi_n^* (conjugate transpose) and the
    # reconstruction P_n f = (n+1) tr(F_n pi_n), the single 1/3 entry sits at
    # index (1, 0) -- the transpose of the sampled entry.
    rule = haar_grid(16)

    def f(a, b):
        return list(repr_matrices(2, a, b))[2][..., 0, 1]

    F2 = matrix_coeffs(f, 2, rule)[2]
    want = np.zeros((3, 3), dtype=complex)
    want[1, 0] = 1 / 3
    assert np.abs(F2 - want).max() < 1e-8
    F1 = matrix_coeffs(f, 1, rule)[1]
    assert np.abs(F1).max() < 1e-8


def test_coeff_matrix_constant():
    rule = haar_grid(8)
    f = const_fn(1.0)
    F = matrix_coeffs(f, 2, rule)
    assert np.abs(F[0] - 1.0).max() < 1e-12
    assert np.abs(F[1]).max() < 1e-12
    assert np.abs(F[2]).max() < 1e-12


def test_coeff_matrix_central_scalar_blocks():
    # central f: F_n = (c_n/(n+1)) I
    f = band_limited_fn(np.array([0.3, -1.1, 0.0, 0.7]))
    rule = haar_grid(12)
    F = matrix_coeffs(f, 3, rule)
    c = f.band_coeffs
    for n in range(4):
        want = c[n] / (n + 1) * np.eye(n + 1)
        assert np.abs(F[n] - want).max() < 1e-8


def _matrix_coeffs_oracle(fg, n_max, rule):
    # the direct weighted sum over the flattened rule, one degree at a time
    a, b = rule.element_arrays()
    vals = fg(a, b) * haar_weights(rule)
    return [np.einsum("x,xpq->qp", vals, np.conj(Pi)) for Pi in repr_matrices(n_max, a, b)]


def test_matrix_coeffs_euler_path_matches_generic():
    rule = haar_grid(10)
    f = sawtooth(3)
    fast = matrix_coeffs(f, 3, rule)
    for k, slow in enumerate(_matrix_coeffs_oracle(f.on_group, 3, rule)):
        assert np.abs(fast[k] - slow).max() < 1e-13


def _complex_general(a, b):
    g = sawtooth(4)
    return g.on_group(a, b) * (1 + 0.5j * a.imag) + b * np.conj(a) ** 2 - 0.25j * b.real


def test_matrix_coeffs_beta_slabs_match_oracle_general_complex():
    # a complex, non-central integrand exercises every frequency pair of the
    # (alpha, gamma) transform, not just the diagonal a central f reaches
    rule = haar_grid(28)
    fast = matrix_coeffs(_complex_general, 12, rule)
    for k, slow in enumerate(_matrix_coeffs_oracle(_complex_general, 12, rule)):
        assert np.abs(fast[k] - slow).max() < 1e-13


def test_matrix_coeffs_rejects_non_euler_rule():
    with pytest.raises(ValueError, match="matrix coefficients need"):
        matrix_coeffs(sawtooth(3), 2, weyl_grid(8))


def test_matrix_coeffs_rejects_negative_n_max():
    with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
        matrix_coeffs(sawtooth(3), -1, haar_grid(8))


def test_matrix_coeffs_batch_rejects_negative_n_max_as_one_call_does():
    with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
        matrix_coeffs([sawtooth(3), sawtooth(4)], [2, -1], haar_grid(8))


_BATCH_USAGE_ERRORS = pytest.mark.parametrize(
    "f, n_max, problem",
    [
        ([sawtooth(3), sawtooth(4)], 2, "needs a sequence of bounds n_max, one per function"),
        ([sawtooth(3), sawtooth(4)], [2], r"has 2 function\(s\) but 1 bound\(s\)"),
        ([sawtooth(3)], [2, 3], r"has 1 function\(s\) but 2 bound\(s\)"),
        ([], [], "needs at least one function"),
        (sawtooth(3), [2], "one function takes one bound"),
    ],
    ids=["batch-one-bound", "fewer-bounds", "more-bounds", "empty", "one-function-a-list"],
)


@_BATCH_USAGE_ERRORS
def test_matrix_coeffs_batch_usage_errors(f, n_max, problem):
    with pytest.raises(ValueError, match=problem):
        matrix_coeffs(f, n_max, haar_grid(8))


@pytest.mark.parametrize("order", [10, 16])
@pytest.mark.parametrize(
    "make",
    [
        lambda: sawtooth(6),
        lambda: holder_test_function(0.5),
        lambda: band_limited_fn(np.array([0.2, -1.0, 0.5j, 0.3 - 0.1j])),
    ],
    ids=["sawtooth", "holder", "complex-band"],
)
def test_matrix_coeffs_translated_central_matches_oracle(make, order):
    # the class-angle planes of a translate against the oracle, which forms
    # the a-entry of z y node by node
    rule = haar_grid(order)
    f = make()
    a, b = random_elements(np.random.default_rng(21), 3)
    for za, zb in zip(a, b):
        g = left_translate(f, GroupElement(complex(za), complex(zb)))
        fast = matrix_coeffs(g, 4, rule)
        for k, slow in enumerate(_matrix_coeffs_oracle(g, 4, rule)):
            assert np.abs(fast[k] - slow).max() < 1e-13


def test_matrix_coeffs_real_slabs_match_complex_slabs():
    # the real matrix product of a real slab against the complex one of the
    # same values carried as complex
    rule = haar_grid(16)

    def f(a, b):
        return np.real(a * np.conj(b) + b**2) - 0.3 * a.imag + np.abs(a) ** 3

    real = matrix_coeffs(f, 8, rule)
    cplx = matrix_coeffs(lambda a, b: f(a, b) + 0j, 8, rule)
    scale = max(np.abs(F).max() for F in cplx)
    for R, C in zip(real, cplx):
        assert np.abs(R - C).max() <= 1e-15 * scale


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 12])
def test_matrix_coeffs_parity_blocks_are_bitwise_the_gathered_store(monkeypatch, n_max):
    # both parities of n_max, and the degrees whose reversed run ends at the
    # first row of its block; the translated sawtooth runs split in two
    monkeypatch.setattr(fourier, "_CPUS", 2)
    rule = haar_grid(28)
    z = random_element(np.random.default_rng(8))
    for f in (_complex_general, left_translate(sawtooth(5), z)):
        fast = matrix_coeffs(f, n_max, rule)
        slow = gather_matrix_coeffs(f, n_max, rule)
        assert len(fast) == len(slow) == n_max + 1
        for F, G in zip(fast, slow):
            assert np.array_equal(F, G)


def test_matrix_coeffs_memory_is_the_parity_blocks():
    # the full (beta, mu, nu) store alone is one unit of this scale, and the
    # gathered blocks of each degree added more: the parent peaked at 2.38
    n_max, rule = 40, haar_grid(88)
    full_store = len(rule.beta) * (2 * n_max + 1) ** 2 * 16
    tracemalloc.start()
    try:
        matrix_coeffs(_complex_general, n_max, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * full_store


def test_left_translate_central_matches_group_product():
    # the central shortcut forms only the a-entry of z y: same floats as the
    # full product followed by on_group
    rng = np.random.default_rng(11)
    z = random_element(rng)
    a, b = random_elements(rng, 500)
    for f in (sawtooth(6), sqrt_shift_fn(), band_limited_fn(np.array([0.2, -1.0, 0.5j]))):
        want = f.on_group(*mul_arrays(z.a, z.b, a, b))
        assert np.array_equal(left_translate(f, z)(a, b), want)


_RE_A_SLACK = 4 * np.finfo(float).eps  # composition moves Re a by <= 1.5 eps (measured)


def _central_envelope(f, re_a):
    # the class angle arccos(Re a) amplifies a change of Re a by 1/sin(theta),
    # and a cusp of the profile amplifies it again: the largest change of f
    # when Re a moves by _RE_A_SLACK
    base = f(np.arccos(np.clip(re_a, -1.0, 1.0)))
    lo, hi = (f(np.arccos(np.clip(re_a + s, -1.0, 1.0))) for s in (-_RE_A_SLACK, _RE_A_SLACK))
    return np.maximum(np.abs(lo - base), np.abs(hi - base))


@settings(deadline=None)
@given(z=elements, g=elements, seed=st.integers(0, 2**32 - 1))
def test_left_translate_composes(z, g, seed):
    # L_g (L_z f) = L_{z g} f: the composed translate evaluates f at (z g) y,
    # which differs from z (g y) only by rounding
    a, b = random_elements(np.random.default_rng(seed), 64)
    central = (sawtooth(6), sqrt_shift_fn(), band_limited_fn(np.array([0.2, -1.0, 0.5j])))
    for f in central + (lambda a, b: a * np.conj(b) + b**2 - 0.3 * a,):
        got = left_translate(left_translate(f, z), g)(a, b)
        ya, yb = mul_arrays(z.a, z.b, *mul_arrays(g.a, g.b, a, b))
        if isinstance(f, CentralFn):
            want, slack = f.on_group(ya, yb), _central_envelope(f, np.real(ya))
        else:
            want, slack = f(ya, yb), 0.0
        assert np.all(np.abs(got - want) <= 1e-14 + slack)


def test_left_translate_triple_composition_carries_the_product():
    rng = np.random.default_rng(12)
    z, g, h = (random_element(rng) for _ in range(3))
    a, b = random_elements(rng, 200)
    for f in (sawtooth(5), lambda a, b: a * b - np.conj(a)):
        triple = left_translate(left_translate(left_translate(f, z), g), h)
        assert np.array_equal(triple(a, b), left_translate(f, z * g * h)(a, b))


def test_block_energies_match_frobenius():
    # (n+1) ||F_n||_F^2 = |c_n|^2 for central functions
    f = band_limited_fn(np.array([0.5, 0.25, -0.75]))
    rule = haar_grid(10)
    F = matrix_coeffs(f, 2, rule)
    for n in range(3):
        energy = (n + 1) * np.sum(np.abs(F[n]) ** 2)
        assert energy == pytest.approx(abs(f.band_coeffs[n]) ** 2, abs=1e-9)


# ---------------------------------------------------------------- kernels

def test_dirichlet_trivial():
    th = np.linspace(0, np.pi, 9)
    assert np.allclose(dirichlet_direct(0, th), 1.0)
    assert np.allclose(dirichlet_closed(0, th), 1.0, atol=1e-12)


def test_dirichlet_at_origin_pyramidal():
    for N in (1, 5, 20):
        want = (N + 1) * (N + 2) * (2 * N + 3) / 6
        assert dirichlet_direct(N, 0.0) == pytest.approx(want, rel=1e-13)
        assert dirichlet_closed(N, 0.0) == pytest.approx(want, rel=1e-13)


def test_dirichlet_closed_equals_direct_spot():
    assert dirichlet_closed(5, 1.1) == pytest.approx(dirichlet_direct(5, 1.1), abs=1e-10)


def test_dirichlet_identity_random():
    rng = np.random.default_rng(1)
    for _ in range(200):
        N = int(rng.integers(0, 201))
        th = rng.uniform(1e-3, np.pi - 1e-3)
        d = dirichlet_direct(N, th)
        c = dirichlet_closed(N, th)
        assert abs(d - c) <= 1e-8 * max(1.0, abs(d))


def test_dirichlet_closed_at_pole_pi():
    # fallback path: the alternating sum sum (n+1)^2 (-1)^n
    for N in (3, 8):
        want = float(np.sum((np.arange(N + 1) + 1.0) ** 2 * (-1.0) ** np.arange(N + 1)))
        assert dirichlet_closed(N, np.pi) == pytest.approx(want, rel=1e-12)


def test_dirichlet_closed_rows_are_bitwise_the_per_degree_calls():
    # the direct sum takes both pole bands: |sin theta| < 1e-4 at 0, 5e-5 and
    # pi, and sin(theta/2) < 1e-4 <= |sin theta| at 1.5e-4
    th = np.concatenate(([0.0, 5e-5, 1.5e-4, np.pi], np.linspace(1e-3, 3.1, 97)))
    degrees = np.array([0, 1, 7, 31, 200])
    rows = dirichlet_closed(degrees, th)
    assert rows.shape == (5, 101)
    for N, row in zip(degrees, rows):
        assert np.array_equal(row, dirichlet_closed(int(N), th))
    assert list(dirichlet_closed(degrees, 0.7)) == [dirichlet_closed(int(N), 0.7) for N in degrees]


def test_dirichlet_direct_rows_are_bitwise_the_per_degree_calls():
    th = np.concatenate(([0.0, 5e-5, 1.5e-4, np.pi], np.linspace(1e-3, 3.1, 97)))
    degrees = np.array([200, 0, 7, 1, 31, 7])
    rows = dirichlet_direct(degrees, th)
    assert rows.shape == (6, 101)
    for N, row in zip(degrees, rows):
        assert np.array_equal(row, dirichlet_direct(int(N), th))
    assert list(dirichlet_direct(degrees, 0.7)) == [dirichlet_direct(int(N), 0.7) for N in degrees]
    for bad in (np.array([3, -1]), np.array([], dtype=int), -2):
        with pytest.raises(ValueError, match="degrees must be >= 0"):
            dirichlet_direct(bad, th)


@pytest.mark.parametrize("kernel", [dirichlet_closed, dirichlet_direct])
def test_dirichlet_kernels_reject_negative_degrees(kernel):
    # 0.5 and 1.0 lie in the closed kernel's quotient region, 0.0 and pi in
    # its direct fallback; both kernels share one degree check
    for th in (0.5, [0.5, 1.0], 0.0, [0.0, np.pi], [0.5, 0.0]):
        for bad in (-1, -3, np.array([2, -1]), np.array([-3]), np.array([], dtype=int)):
            with pytest.raises(ValueError, match="degrees must be >= 0"):
                kernel(bad, th)


@pytest.mark.parametrize("N", [5, 50])
def test_dirichlet_identity_grid_bound(N):
    th = np.linspace(1e-3, np.pi - 1e-3, 500)
    err = np.abs(dirichlet_direct(N, th) - dirichlet_closed(N, th)).max()
    assert err < 1e-8 * (N + 1) ** 3


# |sin theta| < 1e-4 near 0 and pi; sin(theta/2) < 1e-4 <= |sin theta| just
# above 1e-4; the band edges; and the interior
_KERNEL_ANGLES = np.concatenate((
    [0.0, 1e-6, 5e-5, 9.9e-5, 1.01e-4, 1.2e-4, 1.5e-4, 1.99e-4, 2.01e-4, 3e-4, 1e-3],
    np.pi - np.array([1e-3, 2e-4, 1.01e-4, 9.9e-5, 5e-5, 1e-6, 0.0]),
    np.linspace(2e-3, np.pi - 2e-3, 41),
))


def _dirichlet_mpmath(N, theta):
    if theta in (0.0, np.pi):  # the limits sum (n+1)^2 (+-1)^n
        sign = 1 if theta == 0.0 else -1
        return mpmath.fsum((n + 1) ** 2 * sign**n for n in range(N + 1))
    t = mpmath.mpf(theta)
    a, h = N + mpmath.mpf(3) / 2, mpmath.sin(t / 2)
    deriv = (a * mpmath.cos(a * t) * h - mpmath.cos(t / 2) * mpmath.sin(a * t) / 2) / h**2
    return -deriv / (2 * mpmath.sin(t))


@pytest.mark.parametrize("N", [0, 1, 7, 31, 200, 1000])
def test_dirichlet_closed_within_its_bound_of_mpmath(N):
    # the docstring's bound: within 1e-8 D_N(0) of the exact kernel
    with mpmath.workdps(40):
        want = np.array([float(_dirichlet_mpmath(N, t)) for t in _KERNEL_ANGLES])
    at_origin = (N + 1) * (N + 2) * (2 * N + 3) / 6
    assert np.abs(dirichlet_closed(N, _KERNEL_ANGLES) - want).max() <= 1e-8 * at_origin


def _closed_quotient(N, t):
    # the closed kernel's quotient, its operations in the order the kernel
    # had while it divided the classical kernel's derivative by 2 sin theta
    a = N + 1 + 0.5
    at = a * t
    deriv = (a * np.cos(at) * np.sin(t / 2) - 0.5 * np.cos(t / 2) * np.sin(at)) / np.sin(t / 2) ** 2
    return -deriv / (2 * np.sin(t))


def test_dirichlet_closed_is_bitwise_the_quotient_on_the_kernel_check_grid():
    th = np.linspace(1e-3, np.pi - 1e-3, 2000)  # kernel-check's default grid
    for lo in range(0, 201, 32):
        degrees = np.arange(lo, min(lo + 32, 201))
        assert np.array_equal(dirichlet_closed(degrees, th), _closed_quotient(degrees[:, None], th))
    for N in range(201):
        assert np.array_equal(dirichlet_closed(N, th), _closed_quotient(N, th))


def test_classical_dirichlet_values():
    assert classical_dirichlet(4, 0.0) == pytest.approx(9.0, abs=1e-12)
    # half-period value: D_{n+1}(pi/(2n+3)) = 1/sin(pi/(2(2n+3)))
    for n in (2, 9, 40):
        t = np.pi / (2 * n + 3)
        want = 1 / np.sin(np.pi / (2 * (2 * n + 3)))
        assert classical_dirichlet(n + 1, t) == pytest.approx(want, rel=1e-13)


def test_classical_dirichlet_cosine_sum():
    th = 0.73
    n = 6
    want = 1 + 2 * sum(np.cos(j * th) for j in range(1, n + 1))
    assert classical_dirichlet(n, th) == pytest.approx(want, rel=1e-13)


def test_classical_deriv_finite_difference():
    # D_{n-1}(omega(t)) = -D'_n(t) / (2 sin t), D'_n by central differences
    h = 1e-6
    for n, t in ((3, 0.8), (12, 2.1)):
        fd = (classical_dirichlet(n, t + h) - classical_dirichlet(n, t - h)) / (2 * h)
        assert -2 * np.sin(t) * dirichlet_closed(n - 1, t) == pytest.approx(fd, rel=1e-6)


# ---------------------------------------------------------------- partial sums

def test_partial_sum_reproduces_band_limited():
    f = char_fn(2)
    th = np.linspace(0, np.pi, 33)
    got = partial_sum_central(f, 2, "polyhedral", th)
    assert np.abs(got - char_eval(2, th)).max() < 1e-12
    assert np.abs(partial_sum_central(f, 1, "polyhedral", th)).max() == 0.0


@pytest.mark.parametrize("mode", ["polyhedral", "spherical"])
def test_partial_sum_central_slice_equals_gather(mode):
    # truncation sets are contiguous, so slicing sums exactly what gathering
    # the members would
    f = sawtooth(7)
    th = np.linspace(0.0, np.pi, 301)
    for N in (0, 1, 2, 64, 256, 1024, 4096):
        tset = truncation_set(mode, N)
        c = f.coeffs(tset[-1])
        table = char_table(tset[-1], th)
        members = np.fromiter(tset, dtype=int)
        assert np.array_equal(partial_sum_central(f, N, mode, th), c[members] @ table[members])


def test_partial_sum_convolution_oracle():
    # S_N f(omega(theta)) = (2/pi) int f(omega(phi)) K_N(theta, phi) sin^2 dphi
    # with the reproducing kernel section K_N = sum_{n<=N} chi_n(theta) chi_n(phi);
    # the oracle rule is breakpoint-aligned so the kink costs nothing.
    n, N, th = 7, 12, 0.4
    f = sawtooth(n)
    bp = sawtooth_breakpoints(n)[0]
    rule = weyl_grid(40, cusps=tuple(bp[1:-1]))
    kern = np.zeros(len(rule.weights))
    for m in range(N + 1):
        kern += char_eval(m, th) * char_eval(m, rule.nodes)
    oracle = np.dot(rule.weights, f(rule.nodes) * kern)
    got = partial_sum_central(f, N, "polyhedral", th)
    assert got == pytest.approx(float(oracle), abs=1e-6)


def test_partial_sum_idempotent():
    f = sawtooth(9)
    N = 5
    c = f.coeffs(N)
    g = band_limited_fn(c.copy())  # g = S_N f on coefficient data
    th = np.linspace(0, np.pi, 50)
    first = partial_sum_central(f, N, "polyhedral", th)
    second = partial_sum_central(g, N, "polyhedral", th)
    assert np.array_equal(first, second)


def test_spherical_equals_shifted_polyhedral():
    th = np.linspace(0, np.pi, 40)
    for f in (sawtooth(6), band_limited_fn(np.arange(1.0, 9.0))):
        for N in (1, 3, 7):
            sph = partial_sum_central(f, N, "spherical", th)
            pol = partial_sum_central(f, N + 1, "polyhedral", th)
            assert np.array_equal(sph, pol)


def test_partial_sum_general_reproduces_matrix_coefficient():
    rng = np.random.default_rng(2)
    rule = haar_grid(16)

    def f(a, b):
        return list(repr_matrices(3, a, b))[3][..., 1, 2]

    for _ in range(3):
        x = random_element(rng)
        got = partial_sum_general(f, 3, "polyhedral", x, rule)
        want = repr_matrix(3, x)[1, 2]
        assert abs(got - want) < 1e-7


def test_partial_sum_general_matches_central_path():
    f = band_limited_fn(np.array([0.2, -0.4, 1.3, 0.0, 0.5]))
    rule = haar_grid(16)
    rng = np.random.default_rng(3)
    for _ in range(3):
        x = random_element(rng)
        got = partial_sum_general(f, 3, "polyhedral", x, rule)
        want = partial_sum_central(f, 3, "polyhedral", conj_angle(x))
        assert abs(got - complex(want)) < 1e-7


def test_partial_sum_general_translation_equivariance():
    # S_N(L_z f)(x) = S_N f(z x); exact for band-limited f on a resolving rule
    rng = np.random.default_rng(4)
    rule = haar_grid(16)
    C = [rng.normal(size=(k + 1, k + 1)) + 1j * rng.normal(size=(k + 1, k + 1)) for k in range(4)]

    def f(a, b):
        out = np.zeros(np.shape(a), dtype=complex)
        for k, Pi in enumerate(repr_matrices(3, a, b)):
            out += (k + 1) * np.einsum("pq,...qp->...", C[k], Pi)
        return out

    z, x = random_element(rng), random_element(rng)
    lhs = partial_sum_general(left_translate(f, z), 3, "polyhedral", x, rule)
    rhs = partial_sum_general(f, 3, "polyhedral", z * x, rule)
    assert abs(lhs - rhs) < 1e-8


def test_partial_sum_general_spherical_mode():
    f = band_limited_fn(np.array([0.0, 1.0, 0.0, -2.0]))
    rule = haar_grid(16)
    x = GroupElement(np.exp(0.9j), 0j)
    sph = partial_sum_general(f, 2, "spherical", x, rule)
    pol = partial_sum_general(f, 3, "polyhedral", x, rule)
    assert abs(sph - pol) < 1e-12


@pytest.mark.parametrize("mode", ["polyhedral", "spherical"])
def test_partial_sum_general_batch_is_bitwise_the_single_calls(mode):
    # orders 5, 2, 12, 5, 12 make two store runs in both modes, so the batch
    # makes two passes and two representation walks
    rng = np.random.default_rng(6)
    z, x = random_element(rng), random_element(rng)
    band = left_translate(band_limited_fn(np.array([0.3, 0.2 + 0.1j, -0.4, 0.05j])), z)
    fs = [left_translate(sawtooth(5), z), band, _complex_general,
          left_translate(sawtooth(7), z), band]
    orders = [5, 2, 12, 5, 12]
    bounds = [truncation_set(mode, n)[-1] for n in orders]
    assert fourier._store_runs(bounds) == [slice(0, 4), slice(4, 5)]
    rule = haar_grid(20)
    singles = [partial_sum_general(f, n, mode, x, rule) for f, n in zip(fs, orders)]
    assert partial_sum_general(fs, orders, mode, x, rule) == singles
    assert all(type(s) is complex for s in singles)


@_BATCH_USAGE_ERRORS
def test_partial_sum_general_batch_usage_errors(f, n_max, problem):
    with pytest.raises(ValueError, match=problem):
        partial_sum_general(f, n_max, "polyhedral", GroupElement(1.0 + 0j, 0j), haar_grid(8))


@pytest.mark.parametrize("f, N", [(sawtooth(3), -1), ([sawtooth(3), sawtooth(4)], [2, -1])],
                         ids=["single", "batch"])
def test_partial_sum_general_rejects_a_negative_order(f, N):
    with pytest.raises(ValueError, match="must be >= 0, got -1"):
        partial_sum_general(f, N, "polyhedral", GroupElement(1.0 + 0j, 0j), haar_grid(8))


# ---------------------------------------------------------------- Lebesgue constants

def test_lebesgue_exact_base_case():
    want = 1 / 3 + 2 * np.sqrt(3) / np.pi
    assert lebesgue_constant(0) == pytest.approx(want, abs=1e-12)


def test_lebesgue_monotone_and_asymptote():
    vals = [lebesgue_constant(n) for n in (0, 1, 5, 10, 100, 1000)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    want = 4 / np.pi**2 * np.log(1001) + 1.2706
    assert abs(vals[-1] - want) < 0.2


def _lebesgue_fejer(n):
    # Fejer: 1/M + (2/pi) sum_{k=1}^{n+1} tan(k pi/M)/k, M = 2n+3; near pi/2
    # tan(k pi/M) is ill-conditioned in its rounded argument, so there it is
    # cot((M - 2k) pi/(2M)), whose argument is small and rounds relatively
    M = 2 * n + 3
    k = np.arange(1, n + 2)
    tan = np.where(
        4 * k > M, 1 / np.tan((M - 2 * k) * np.pi / (2 * M)), np.tan(k * np.pi / M)
    )
    return 1 / M + 2 / np.pi * math.fsum(tan / k)


def _lebesgue_fejer_mpmath(n):
    # Fejer's sum at 40 digits: tan's relative condition near pi/2 is about M,
    # far inside the working precision
    M = 2 * n + 3
    with mpmath.workdps(40):
        tail = mpmath.fsum(mpmath.tan(k * mpmath.pi / M) / k for k in range(1, n + 2))
        return 1 / mpmath.mpf(M) + 2 / mpmath.pi * tail


@pytest.mark.parametrize("n", [0, 1, 2, 10, 100, 1000, 10**4, 10**5])
def test_lebesgue_matches_fejer_closed_form(n):
    want = _lebesgue_fejer_mpmath(n)
    assert abs(lebesgue_constant(n) - want) <= 1e-15 * want


def _lebesgue_panels(n):
    # (1/pi) int_0^pi |D_{n+1}| by Gauss-Legendre on the panels between the
    # zeros k h, h = 2 pi/M, of sin(M t/2): the full panels [k h, (k+1) h],
    # k = 0..n, and the half-panel [(n+1) h, pi].  At the local coordinate
    # x in [0, 1] the numerator's modulus is sin(pi x) on a full panel and
    # sin(pi x/2) on the half-panel, so no node needs the pole fallback.
    M = 2 * n + 3
    x, w = gauss_panels(np.array([0.0, 1.0]), 8)  # the unit cell
    x, w = x[0], w[0]
    full = np.sum(w * np.sin(np.pi * x) / np.sin((np.arange(n + 1)[:, None] + x) * np.pi / M))
    last = np.sum(w * np.sin(np.pi * x / 2) / np.sin((n + 1 + x / 2) * np.pi / M))
    return float((2 * full + last) / M)  # (1/pi) (h full + (h/2) last)


@pytest.mark.parametrize("n", [0, 1, 2, 10, 100, 1000, 10**4, 10**5])
def test_lebesgue_matches_panel_quadrature(n):
    want = _lebesgue_panels(n)
    assert abs(lebesgue_constant(n) - want) <= 1e-14 * want


def test_lebesgue_never_evaluates_the_pole_fallback(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("pole fallback evaluated")

    for name in ("pole_safe", "char_table", "dirichlet_direct", "dirichlet_closed"):
        monkeypatch.setattr(fourier, name, boom)
    assert lebesgue_constant(10**5) == pytest.approx(_lebesgue_fejer(10**5), rel=1e-14)


def test_lebesgue_batch_is_bitwise_its_per_n_calls():
    # n = 0..40 put the tan/cot switch at every k = M // 4 from 0 to 20, and
    # n = 10^5 (100 001 terms) runs alone after a run of the small ones
    ns = [17, 3, 100_000, 3, 0, *range(41), 1000, 4093, 4094, 4095, 5]
    got = lebesgue_constant(np.array(ns))
    assert got.shape == (len(ns),) and got.dtype == np.float64
    for n, value in zip(ns, got.tolist()):
        assert value == lebesgue_per_n(n) == lebesgue_constant(n), n
    assert type(lebesgue_constant(7)) is float
    assert lebesgue_constant(np.array([], dtype=int)).shape == (0,)


def test_lebesgue_batch_checks_every_n_before_any_work(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("terms formed before the checks")

    monkeypatch.setattr(fourier, "_ragged_runs", boom)
    with pytest.raises(ValueError, match="must be >= 0, got -2$"):
        lebesgue_constant([3, 10, -2, 5])


def test_lebesgue_gap_trend():
    gaps = [
        lebesgue_constant(n) - 4 / np.pi**2 * np.log(n + 1) for n in (10, 100, 1000)
    ]
    assert gaps[0] > gaps[1] > gaps[2]

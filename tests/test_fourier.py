"""Coefficients, Dirichlet kernels, partial sums, Lebesgue constants."""

import numpy as np
import pytest

from su2fourier.group import (
    GroupElement,
    conj_angle,
    haar_grid,
    mul_arrays,
    random_elements,
    weyl_grid,
)
from su2fourier.representations import (
    char_eval,
    pole_safe,
    repr_matrices,
    repr_matrix,
)
from su2fourier.fourier import (
    _quadrature_coeffs,
    band_limited_fn,
    char_fn,
    classical_dirichlet,
    classical_dirichlet_deriv,
    const_fn,
    dirichlet_closed,
    dirichlet_direct,
    lebesgue_constant,
    left_translate,
    matrix_coeffs,
    partial_sum_central,
    partial_sum_general,
)
from su2fourier.convergence import sqrt_shift_fn
from su2fourier.divergence import sawtooth, sawtooth_breakpoints


def random_element(rng):
    a, b = random_elements(rng, 1)
    return GroupElement(complex(a[0]), complex(b[0]))


# ---------------------------------------------------------------- coefficients

def test_coeff_central_character_delta():
    rule = weyl_grid(10)
    f = char_fn(3)
    for n in range(6):
        want = 1.0 if n == 3 else 0.0
        assert _quadrature_coeffs(f, n, rule)[n] == pytest.approx(want, abs=1e-11)


def test_coeff_central_constant():
    rule = weyl_grid(6)
    f = const_fn(1.0)
    assert _quadrature_coeffs(f, 0, rule)[0] == pytest.approx(1.0, abs=1e-13)
    assert _quadrature_coeffs(f, 4, rule)[4] == pytest.approx(0.0, abs=1e-13)


def test_coeff_central_cosine():
    # cos(theta) = chi_1 / 2
    rule = weyl_grid(8)
    from su2fourier.fourier import CentralFn

    f = CentralFn(fn=np.cos, name="cos")
    assert _quadrature_coeffs(f, 1, rule)[1] == pytest.approx(0.5, abs=1e-13)
    for n in (0, 2, 3):
        assert _quadrature_coeffs(f, n, rule)[n] == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("make", [sqrt_shift_fn, lambda: sawtooth(5)], ids=["auto", "exact"])
def test_coeffs_cached_vector_is_read_only(make):
    # auto-rule quadrature and closed-form paths both hand out cached vectors
    h = make()
    v = h.coeffs(10)
    with pytest.raises(ValueError):
        v[0] = 99
    assert h.coeffs(10)[0] == make().coeffs(10)[0]


@pytest.mark.parametrize("n", [5, 17])
def test_pl_coeffs_quadrature_vs_closed_form(n):
    # quadrature on a breakpoint-aligned rule against the exact segment integrals
    f = sawtooth(n)
    th, _ = sawtooth_breakpoints(n)
    rule = weyl_grid(2 * n + 16, cusps=tuple(th[1:-1]))
    exact = f.coeffs(n + 4)
    quad = _quadrature_coeffs(f, n + 4, rule)
    assert np.abs(exact - quad).max() < 1e-10


def test_parseval_band_limited():
    rng = np.random.default_rng(0)
    c = rng.normal(size=51)
    f = band_limited_fn(c)
    rule = weyl_grid(120)
    got = _quadrature_coeffs(f, 50, rule)
    assert np.abs(got - c).max() < 1e-10
    assert rule.integrate(np.abs(f(rule.nodes)) ** 2) == pytest.approx(
        np.sum(c**2), abs=1e-10
    )


def test_parseval_partial_inequality():
    # head energies never exceed the squared norm (plus quadrature slack)
    f = sawtooth(9)
    c = f.coeffs(64)
    norm_sq = f.l2_norm_sq()
    heads = np.cumsum(np.abs(c) ** 2)
    assert np.all(heads <= norm_sq + 1e-12)


def test_pl_norm_closed_form():
    f = sawtooth(6)
    rule = weyl_grid(40, cusps=tuple(sawtooth_breakpoints(6)[0][1:-1]))
    quad = rule.integrate(f(rule.nodes) ** 2)
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
    vals = fg(a, b) * rule.weights
    return [np.einsum("x,xpq->qp", vals, np.conj(Pi)) for Pi in repr_matrices(n_max, a, b)]


def test_matrix_coeffs_euler_path_matches_generic():
    rule = haar_grid(10)
    f = sawtooth(3)
    fast = matrix_coeffs(f, 3, rule)
    for k, slow in enumerate(_matrix_coeffs_oracle(f.on_group, 3, rule)):
        assert np.abs(fast[k] - slow).max() < 1e-13


def test_matrix_coeffs_beta_slabs_match_oracle_general_complex():
    # a complex, non-central integrand exercises every frequency pair of the
    # (alpha, gamma) transform, not just the diagonal a central f reaches
    rule = haar_grid(28)
    g = sawtooth(4)

    def f(a, b):
        return g.on_group(a, b) * (1 + 0.5j * a.imag) + b * np.conj(a) ** 2 - 0.25j * b.real

    fast = matrix_coeffs(f, 12, rule)
    for k, slow in enumerate(_matrix_coeffs_oracle(f, 12, rule)):
        assert np.abs(fast[k] - slow).max() < 1e-13


def test_matrix_coeffs_rejects_non_euler_rule():
    with pytest.raises(ValueError, match="matrix coefficients need"):
        matrix_coeffs(sawtooth(3), 2, weyl_grid(8))


def test_left_translate_central_matches_group_product():
    # the central shortcut forms only the a-entry of z y: same floats as the
    # full product followed by on_group
    rng = np.random.default_rng(11)
    z = random_element(rng)
    a, b = random_elements(rng, 500)
    for f in (sawtooth(6), sqrt_shift_fn(), band_limited_fn(np.array([0.2, -1.0, 0.5j]))):
        want = f.on_group(*mul_arrays(z.a, z.b, a, b))
        assert np.array_equal(left_translate(f, z)(a, b), want)


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


@pytest.mark.parametrize("N", [5, 50])
def test_dirichlet_identity_grid_bound(N):
    th = np.linspace(1e-3, np.pi - 1e-3, 500)
    err = np.abs(dirichlet_direct(N, th) - dirichlet_closed(N, th)).max()
    assert err < 1e-8 * (N + 1) ** 3


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
    h = 1e-6
    for n, t in ((3, 0.8), (12, 2.1)):
        fd = (classical_dirichlet(n, t + h) - classical_dirichlet(n, t - h)) / (2 * h)
        d = classical_dirichlet_deriv(n, t)
        assert d == pytest.approx(fd, rel=1e-6)


def test_classical_deriv_pole_fallback():
    # near t = 0 the derivative must vanish linearly: -2 sum j sin(jt)
    t = 5e-5
    n = 7
    want = -2 * sum(j * np.sin(j * t) for j in range(1, n + 1))
    assert classical_dirichlet_deriv(n, t) == pytest.approx(want, rel=1e-10)


def _half_sine(t):
    return np.sin(t / 2)


def _classical_dirichlet_loop(n, t):
    # reference: the pole fallback as a plain loop over j
    def cosine_sum(tt, m):
        tp = tt[m]
        acc = np.ones_like(tp)
        for j in range(1, n + 1):
            acc += 2 * np.cos(j * tp)
        return acc

    return pole_safe(
        t, _half_sine, lambda tt, s, m: np.sin((2 * n + 1) * tt[m] / 2) / s[m], cosine_sum
    )


def _classical_dirichlet_deriv_loop(n, t):
    a = n + 0.5

    def quotient(tt, s, m):
        ts = tt[m]
        return (
            a * np.cos(a * ts) * np.sin(ts / 2) - 0.5 * np.cos(ts / 2) * np.sin(a * ts)
        ) / np.sin(ts / 2) ** 2

    def sine_sum(tt, m):
        tp = tt[m]
        acc = np.zeros_like(tp)
        for j in range(1, n + 1):
            acc -= 2 * j * np.sin(j * tp)
        return acc

    return pole_safe(t, _half_sine, quotient, sine_sum)


@pytest.mark.parametrize("n", [0, 1, 7, 4095, 4096, 4097, 100001])
def test_classical_dirichlet_blocked_fallback_is_bitwise_the_loop(n):
    # 10 points inside the pole band |sin(t/2)| < 1e-4, around 0 and 2 pi,
    # and 2 outside; the scalar case reduces a single column
    rng = np.random.default_rng(n)
    band = rng.uniform(-1.9e-4, 1.9e-4, 10) + np.repeat([0.0, 2 * np.pi], 5)
    band[[0, 5]] = 0.0, 2 * np.pi
    t = np.concatenate((band, [0.5, 3.0]))
    assert (np.abs(np.sin(band / 2)) < 1e-4).all()
    for fn, loop in (
        (classical_dirichlet, _classical_dirichlet_loop),
        (classical_dirichlet_deriv, _classical_dirichlet_deriv_loop),
    ):
        assert np.array_equal(fn(n, t), loop(n, t))
        assert fn(n, band[1]) == loop(n, band[1])


# ---------------------------------------------------------------- partial sums

def test_partial_sum_reproduces_band_limited():
    f = char_fn(2)
    th = np.linspace(0, np.pi, 33)
    got = partial_sum_central(f, 2, "polyhedral", th)
    assert np.abs(got - char_eval(2, th)).max() < 1e-12
    assert np.abs(partial_sum_central(f, 1, "polyhedral", th)).max() == 0.0


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
    oracle = rule.integrate(f(rule.nodes) * kern)
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


# ---------------------------------------------------------------- Lebesgue constants

def test_lebesgue_exact_base_case():
    want = 1 / 3 + 2 * np.sqrt(3) / np.pi
    assert lebesgue_constant(0) == pytest.approx(want, abs=1e-12)


def test_lebesgue_monotone_and_asymptote():
    vals = [lebesgue_constant(n) for n in (0, 1, 5, 10, 100, 1000)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    want = 4 / np.pi**2 * np.log(1001) + 1.2706
    assert abs(vals[-1] - want) < 0.2


def test_lebesgue_gap_trend():
    gaps = [
        lebesgue_constant(n) - 4 / np.pi**2 * np.log(n + 1) for n in (10, 100, 1000)
    ]
    assert gaps[0] > gaps[1] > gaps[2]

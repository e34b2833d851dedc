"""Modulus of continuity, Dini integral, best approximation, block sums."""

import mpmath
import numpy as np
import pytest

from su2fourier.group import (
    GroupElement,
    IDENTITY,
    conj_angle,
    exp_arrays,
    haar_grid,
    mul_arrays,
    random_elements,
    random_directions,
    weyl_grid,
)
from su2fourier.fourier import (
    CentralFn,
    band_limited_fn,
    char_fn,
    const_fn,
    left_translate,
)
from su2fourier.divergence import sawtooth
from su2fourier.convergence import (
    ModulusProfile,
    best_approx,
    central_translate_norm,
    dini_integral,
    holder_test_function,
    integral_modulus,
    jackson_ratio,
    log_weighted_block_sum,
    modulus_profile,
    sqrt_shift_fn,
    translate_norm_quadrature,
    uniform_error_central,
)

from helpers import delta_translate, haar_weights, quadrature_coeffs, random_element


def random_translation(rng, radius):
    c, beta = random_directions(rng, 1)
    a, b = exp_arrays(radius * c, radius * beta)
    return GroupElement(complex(a[0]), complex(b[0]))


# ---------------------------------------------------------------- translates

def test_delta_translate_identity_is_zero():
    f = sawtooth(5)
    d = delta_translate(f, IDENTITY)
    rng = np.random.default_rng(0)
    a, b = random_elements(rng, 100)
    assert np.abs(d(a, b)).max() == 0.0


def test_delta_norm_character_formula():
    # ||delta_h chi_1||^2 = 2 - 2 chi_1(angle of h)/2 = 2 - 2 cos(angle)
    rng = np.random.default_rng(1)
    rule = haar_grid(12)
    f = char_fn(1)
    for radius in (0.3, 1.1):
        h = random_translation(rng, radius)
        got = translate_norm_quadrature(f, h, rule)
        want = np.sqrt(2 - 2 * np.cos(conj_angle(h)))
        assert got == pytest.approx(want, abs=1e-9)


def test_delta_norm_conjugation_invariant():
    # ||delta_h f|| = ||delta_{z h z^-1} f|| for central f (both by
    # quadrature; the identity is exact, each side carries its own rule
    # error on the kinked integrand)
    rng = np.random.default_rng(2)
    rule = haar_grid(48)
    f = sawtooth(4)
    h = random_translation(rng, 0.7)
    z = random_element(rng)
    lhs = translate_norm_quadrature(f, h, rule)
    rhs = translate_norm_quadrature(f, z * h * z.inverse(), rule)
    assert lhs == pytest.approx(rhs, rel=2e-4)


def test_central_translate_norm_matches_quadrature():
    # exact coefficient form against the honest 3D rule; the rule's absolute
    # error is flat in the radius, so the relative slack covers small radii
    f = sawtooth(5)
    c = f.coeffs(4096)
    rule = haar_grid(64)
    rng = np.random.default_rng(3)
    for radius in (0.5, 0.1):
        h = random_translation(rng, radius)
        got = central_translate_norm(c, conj_angle(h))
        want = translate_norm_quadrature(f, h, rule)
        assert got == pytest.approx(want, rel=1e-3)


def _translate_norm_mpmath(c, r):
    # sum_n 2 c_n^2 (1 - sin(N r)/(N sin r)) at 40 digits, r taken exactly
    with mpmath.workdps(40):
        rr = mpmath.mpf(float(r))
        total = mpmath.fsum(
            2 * mpmath.mpf(float(cn)) ** 2 * (1 - mpmath.sin(n * rr) / (n * mpmath.sin(rr)))
            for n, cn in enumerate(c, start=1)
            if cn != 0
        )
        return mpmath.sqrt(total)


# r from 1e-6 to pi - 1e-6; at the radii within 1e-3 of either end, N s = 0.5
# and N s = 1.5 (where the series hands off to the quotient) fall below n = 2048
_ORACLE_RADII = (1e-6, 1e-4, 1e-3, 0.01, 0.3, 1.0, np.pi / 2, 2.0, np.pi - 1e-3, np.pi - 1e-6)


@pytest.mark.parametrize("r", _ORACLE_RADII)
def test_central_translate_norm_matches_mpmath_per_term(r):
    # one coefficient at a time: the closed form of each 1 - q_n(r), on 64
    # degrees across each of N s = 0.5 and N s = 1.5 (s = r, or pi - r)
    s = min(r, np.pi - r)
    ns = {0, 1, 2, 7, 100, 2048}
    for x in (0.5, 1.5):
        ns |= set(np.linspace(0.4 * x / s, 1.6 * x / s, 64).astype(int).tolist())
    for n in sorted(k for k in ns if 0 <= k <= 2048):
        c = np.zeros(n + 1)
        c[n] = 1.0
        want = _translate_norm_mpmath(c, r)
        assert abs(central_translate_norm(c, r) - want) <= 1e-15 * want, n


def test_central_translate_norm_matches_mpmath():
    # the holder:0.3 coefficients up to n = 2048, so both hand-offs fall
    # inside the sum at the smaller radii
    c = holder_test_function(0.3).coeffs(2048)
    got = central_translate_norm(c, np.array(_ORACLE_RADII))
    want = [_translate_norm_mpmath(c, r) for r in _ORACLE_RADII]
    assert max(abs((g - w) / w) for g, w in zip(got, want)) <= 1e-15


def test_central_translate_norm_at_the_poles():
    # r = 0 is the identity, and at r = float(pi) every q_n is (-1)^n to
    # rounding; neither may warn (warnings are errors here)
    c = np.random.default_rng(5).normal(size=300)
    assert central_translate_norm(c, 0.0) == 0.0
    want = np.sqrt(4 * np.sum(c[1::2] ** 2))
    assert central_translate_norm(c, np.pi) == pytest.approx(want, rel=1e-15)
    for bad in (-1e-9, np.pi + 1e-9, np.nan):
        with pytest.raises(ValueError):
            central_translate_norm(c, bad)


_SAMPLED_N = (0, 1, 2, 6, 30, 32, 34, 64, 1000, 4094, 4096, 2**16 - 2, 2**16)


def _holder_coeff_mpmath(alpha, n):
    # A (I_n - I_{n+2}) / pi, A = 1/8, with the Beta-function moments
    # I_k = 2 int_0^{pi/2} cos^a t cos(k t) dt
    #     = pi Gamma(a+1) / (2^a Gamma(1 + (a+k)/2) Gamma(1 + (a-k)/2)), k even
    a = mpmath.mpf(alpha)

    def moment(k):
        return mpmath.pi * mpmath.gamma(a + 1) / 2**a * mpmath.rgamma(1 + (a + k) / 2) * mpmath.rgamma(
            1 + (a - k) / 2
        )

    return (moment(n) - moment(n + 2)) / (8 * mpmath.pi) if n % 2 == 0 else mpmath.mpf(0)


def _sqrt_shift_coeff_mpmath(n):
    # (I_n - I_{n+2}) / pi with I_0 = (4/3)(pi/2)^(3/2) and, for even k > 0,
    # I_k = -(-1)^(k/2) (2/k) sqrt(pi/(2k)) S(sqrt k), S Fresnel's sine integral
    def moment(k):
        if k == 0:
            return mpmath.mpf(4) / 3 * (mpmath.pi / 2) ** 1.5
        return -((-1) ** (k // 2)) * mpmath.mpf(2) / k * mpmath.sqrt(mpmath.pi / (2 * k)) * mpmath.fresnels(
            mpmath.sqrt(k)
        )

    return (moment(n) - moment(n + 2)) / mpmath.pi if n % 2 == 0 else mpmath.mpf(0)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.9])
def test_holder_coeffs_match_mpmath(alpha):
    c = holder_test_function(alpha).coeffs(2**16)
    with mpmath.workdps(40):
        for n in _SAMPLED_N:
            want = _holder_coeff_mpmath(alpha, n)
            assert abs(c[n] - want) <= 1e-14 * abs(want), n


def test_sqrt_shift_coeffs_match_mpmath():
    c = sqrt_shift_fn().coeffs(2**16)
    with mpmath.workdps(40):
        for n in _SAMPLED_N:
            want = _sqrt_shift_coeff_mpmath(n)
            assert abs(c[n] - want) <= 1e-14 * abs(want), n
        # the Fresnel moments against the defining integral
        # (2/pi) int |t - pi/2|^(1/2) sin((n+1)t) sin t dt
        for n in (0, 2, 4):
            direct = 2 / mpmath.pi * mpmath.quad(
                lambda t: mpmath.sqrt(abs(t - mpmath.pi / 2)) * mpmath.sin((n + 1) * t) * mpmath.sin(t),
                [0, mpmath.pi / 2, mpmath.pi],
            )
            assert abs(_sqrt_shift_coeff_mpmath(n) - direct) <= 1e-30


@pytest.mark.parametrize(
    "make", [lambda: holder_test_function(0.1), lambda: holder_test_function(0.9), sqrt_shift_fn],
    ids=["holder:0.1", "holder:0.9", "sqrtshift"],
)
def test_quadrature_coeffs_agree_with_closed_forms(make):
    # a graded rule sized for n <= 4095 is off by its own rounding floor,
    # about 4e-14 of the largest coefficient at every n
    f = make()
    rule = weyl_grid(order=4096 // 2 + 8, cusps=f.cusps)
    c = f.coeffs(4095)
    assert np.abs(quadrature_coeffs(f, 4095, rule) - c).max() <= 1e-13 * np.abs(c).max()


@pytest.mark.parametrize("make", [lambda: holder_test_function(0.3), sqrt_shift_fn, lambda: sawtooth(9)],
                         ids=["holder:0.3", "sqrtshift", "sawtooth:9"])
def test_closed_form_coeffs_do_not_depend_on_n_max(make):
    # each coefficient is its own closed form, so a shorter vector is a
    # prefix, and best_approx(f, M) may read only c_0..c_M
    for n_max in (0, 1, 2, 31, 32, 33):
        assert np.array_equal(make().coeffs(n_max), make().coeffs(5000)[: n_max + 1])


def test_sqrt_shift_norm_closed_form():
    # pi/4 - 1/pi against the graded rule the package used before
    f = sqrt_shift_fn()
    rule = weyl_grid(520, cusps=(np.pi / 2,))
    quad = float(np.dot(rule.weights, f(rule.nodes) ** 2))
    assert f.l2_norm_sq() == pytest.approx(quad, rel=1e-15)


# ---------------------------------------------------------------- modulus

def test_modulus_constant_function():
    assert integral_modulus(const_fn(2.5), 0.5) == 0.0


def test_modulus_lipschitz_scaling():
    # witnesses have theta-slope (2n+3)/pi, and the L2 modulus cannot beat
    # slope * radius
    for n in (3, 8):
        f = sawtooth(n)
        for t in (1e-2, 1e-3):
            assert integral_modulus(f, t) <= (2 * n + 3) * t


def test_modulus_monotone_with_nested_radii():
    c = sawtooth(5).coeffs(4096)
    t2 = 0.8
    t1 = 0.4
    radii2 = t2 * np.array([1.0, 0.5, 0.25, 0.125])
    radii1 = radii2[radii2 <= t1]
    m1 = np.max(central_translate_norm(c, radii1))
    m2 = np.max(central_translate_norm(c, radii2))
    assert m1 <= m2 + 2e-9


def test_modulus_profile_monotone():
    prof = modulus_profile(sawtooth(5), 1e-3)
    assert np.all(np.diff(prof.t_values) < 0)
    assert np.all(np.diff(prof.omega_values) <= 1e-15)


def test_modulus_bounded_by_twice_norm():
    f = sawtooth(7)
    bound = 2 * np.sqrt(f.l2_norm_sq())
    assert integral_modulus(f, np.pi) <= bound + 1e-12


def test_modulus_invariant_under_translation():
    # Haar bi-invariance: ||delta_h (L_z f)|| = ||delta_{z h z^-1} f||, and
    # conjugation preserves ||X||, so the modulus is unchanged.  The exact
    # central path is checked against the general quadrature path on the
    # translated function over a stratum of sampled translations.
    rng = np.random.default_rng(4)
    f = sawtooth(5)
    z = random_element(rng)
    fz = left_translate(f, z)
    rule = haar_grid(96)
    c = f.coeffs(4096)
    t = 0.5
    exact = float(np.max(central_translate_norm(c, t * np.array([1.0, 0.5, 0.25]))))
    sampled = integral_modulus(fz, t, sample_count=12, seed=5, rule=rule)
    assert sampled == pytest.approx(exact, rel=0.02)


def test_modulus_rejects_bad_radius():
    with pytest.raises(ValueError):
        integral_modulus(sawtooth(4), 0.0)
    fz = left_translate(sawtooth(4), IDENTITY)
    with pytest.raises(ValueError):
        modulus_profile(fz, 0.5, 4.0, per_decade=2, sample_count=1, rule=haar_grid(4))
    # the central branch checks the radii too
    for t_min, t_max in [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (0.5, 4.0), (np.nan, 1.0)]:
        with pytest.raises(ValueError, match="0 < t_min <= t_max <= pi"):
            modulus_profile(sawtooth(4), t_min, t_max)


@pytest.mark.parametrize("rule", [None, weyl_grid(8)], ids=["none", "weyl"])
def test_integral_modulus_general_needs_haar_rule(rule):
    fz = left_translate(sawtooth(5), IDENTITY)
    with pytest.raises(ValueError, match="general functions need a haar rule"):
        integral_modulus(fz, 0.5, sample_count=2, rule=rule)


def _sampled_translations(rng, radius, count):
    # one exp_arrays call per direction; convergence draws a radius's
    # directions in one batch, and the two must agree bitwise
    hs = []
    for c0, b0 in zip(*random_directions(rng, count)):
        ah, bh = exp_arrays(np.array([radius * c0]), np.array([radius * b0]))
        hs.append(GroupElement(complex(ah[0]), complex(bh[0])))
    return hs


def test_integral_modulus_general_is_max_of_translate_norms():
    rng = np.random.default_rng(21)
    fz = left_translate(holder_test_function(0.5), random_element(rng))
    rule = haar_grid(12)
    t, count, seed = 0.7, 4, 9
    directions = np.random.default_rng(seed)
    # the norm of delta_h f one h at a time, with f evaluated afresh for every h
    want = max(
        translate_norm_quadrature(fz, h, rule)
        for r in t * np.array([1.0, 0.5, 0.25])
        for h in _sampled_translations(directions, r, count)
    )
    assert integral_modulus(fz, t, sample_count=count, seed=seed, rule=rule) == want


def _non_central(a, b):
    # a smooth complex function that is not a class function
    return np.cos(3 * np.real(a)) * np.exp(1j * np.imag(b)) + np.real(b) ** 2


@pytest.mark.parametrize("order", [12, 24, 48])
def test_translate_norm_slabs_match_element_array_oracle(order):
    # the beta-slab path against the rule's flat element arrays and weights
    rng = np.random.default_rng(order)
    z = random_element(rng)
    inputs = [
        char_fn(3),
        left_translate(holder_test_function(0.5), z),
        left_translate(sawtooth(3), z),
        _non_central,
        left_translate(_non_central, z),
    ]
    rule = haar_grid(order)
    a, b = rule.element_arrays()
    w = haar_weights(rule)
    for f in inputs:
        for r in (0.1, 0.7, 2.0):
            for h in _sampled_translations(rng, r, 2):
                sq = np.abs(delta_translate(f, h)(a, b)) ** 2
                want = float(np.sqrt(np.real(np.dot(w, sq))))
                got = translate_norm_quadrature(f, h, rule)
                assert got == pytest.approx(want, rel=1e-14, abs=0)


def test_general_modulus_does_not_materialise_the_rule():
    rng = np.random.default_rng(24)
    rule = haar_grid(16)
    for f in (left_translate(sawtooth(4), random_element(rng)), _non_central):
        integral_modulus(f, 0.5, sample_count=2, seed=1, rule=rule)
        modulus_profile(f, 0.2, 0.8, per_decade=2, sample_count=2, seed=1, rule=rule)
    assert set(vars(rule)) == {"alpha", "beta", "w_beta", "gamma"}


def _nested_translate(f, z):
    # a translate that does not compose: L_g of it forms g y, then z (g y)
    fg = f.on_group if isinstance(f, CentralFn) else f
    return lambda a, b: fg(*mul_arrays(z.a, z.b, a, b))


@pytest.mark.parametrize("t", [0.5, 0.1])
def test_integral_modulus_of_composed_translate_matches_nested(t):
    # translating L_z f by h^{-1} composes to L_{z h^{-1}} f, which changes the
    # modulus only by rounding against the translate-of-a-translate it replaces
    rng = np.random.default_rng(23)
    f, z = holder_test_function(0.5), random_element(rng)
    rule = haar_grid(24)
    count, seed = 3, 6
    a, b = rule.element_arrays()
    w = haar_weights(rule)
    fz = _nested_translate(f, z)
    base = fz(a, b)
    directions = np.random.default_rng(seed)
    want = max(
        float(np.sqrt(np.real(np.dot(w, np.abs(base - _nested_translate(fz, h.inverse())(a, b)) ** 2))))
        for r in t * np.array([1.0, 0.5, 0.25])
        for h in _sampled_translations(directions, r, count)
    )
    got = integral_modulus(left_translate(f, z), t, sample_count=count, seed=seed, rule=rule)
    assert got == pytest.approx(want, rel=1e-14, abs=0)


def test_modulus_profile_general_matches_translate_norms():
    # general branch: the radii, smallest first, draw their directions in turn
    # from one generator seeded with the seed, then the running supremum over
    # smaller radii makes the profile monotone
    rng = np.random.default_rng(22)
    fz = left_translate(sawtooth(3), random_element(rng))
    rule = haar_grid(16)
    prof = modulus_profile(fz, 0.05, 0.8, per_decade=3, sample_count=3, seed=4, rule=rule)
    ts = prof.t_values[::-1]
    directions = np.random.default_rng(4)
    single = [
        max(translate_norm_quadrature(fz, h, rule) for h in _sampled_translations(directions, t, 3))
        for t in ts
    ]
    assert np.array_equal(prof.omega_values[::-1], np.maximum.accumulate(single))


# ---------------------------------------------------------------- dini integral

def _profile_from(ts, omegas):
    return ModulusProfile(t_values=ts[::-1].copy(), omega_values=omegas[::-1].copy())


def test_dini_zero_profile():
    ts = np.geomspace(1e-4, 1, 65)
    prof = _profile_from(ts, np.zeros_like(ts))
    assert dini_integral(prof, 1e-4) == 0.0


def test_dini_power_profile_closed_form():
    # Omega = t^0.3: integral = (1 - t_min^0.6)/0.6
    ts = np.geomspace(1e-4, 1, 400)
    prof = _profile_from(ts, ts**0.3)
    for t_min in (1e-2, 1e-3, 1e-4):
        want = (1 - t_min**0.6) / 0.6
        assert dini_integral(prof, t_min) == pytest.approx(want, rel=1e-4)


def test_dini_log_profile_diverges():
    # Omega = 1/sqrt(log(e/t)): the integral grows like log(log(e/t_min))
    ts = np.geomspace(1e-8, 1, 800)
    prof = _profile_from(ts, 1 / np.sqrt(np.log(np.e / ts)))
    vals = [dini_integral(prof, tm) for tm in (1e-2, 1e-4, 1e-6, 1e-8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    want = [np.log(np.log(np.e / tm)) for tm in (1e-2, 1e-4, 1e-6, 1e-8)]
    growth = np.diff(vals) / np.diff(want)
    assert np.allclose(growth, 1.0, rtol=1e-3)


def test_dini_monotone_in_radius():
    prof = modulus_profile(holder_test_function(0.5), 1e-4)
    assert dini_integral(prof, 1e-4) >= dini_integral(prof, 1e-3)


def test_dini_requires_coverage():
    ts = np.geomspace(1e-2, 1, 33)
    prof = _profile_from(ts, ts)
    for t_min in (1e-3, 2.0, float("nan")):
        with pytest.raises(ValueError, match="outside the profile's radii"):
            dini_integral(prof, t_min)


# ---------------------------------------------------------------- best approximation

def test_best_approx_band_limited_vanishes():
    f = band_limited_fn(np.array([1.0, -2.0, 0.5]))
    assert best_approx(f, 2) <= 1e-10
    assert best_approx(f, 7) <= 1e-10


def test_best_approx_single_character():
    f = char_fn(5)
    assert best_approx(f, 4) == pytest.approx(1.0, abs=1e-12)


def test_best_approx_sawtooth_tail():
    # E_3(f_7) against the explicit tail of closed-form coefficients
    f = sawtooth(7)
    c = f.coeffs(4096)
    tail = np.sqrt(np.sum(c[4:] ** 2))
    assert best_approx(f, 3) == pytest.approx(tail, abs=1e-6)


def test_parseval_consistency():
    # E_M^2 + head = ||f||^2
    for f in (sawtooth(6), band_limited_fn(np.array([0.3, 0.1, -0.2, 0.9]))):
        c = f.coeffs(64)
        for M in (2, 10, 64):
            e = best_approx(f, M)
            head = np.sum(np.abs(c[: M + 1]) ** 2)
            assert e**2 + head == pytest.approx(f.l2_norm_sq(), abs=1e-9)


# ---------------------------------------------------------------- Jackson quotients

def test_jackson_witness_ratios_bounded():
    f = sawtooth(9)
    pts = [jackson_ratio(f, k) for k in range(1, 7)]
    assert all(not p.degenerate for p in pts)
    recorded = max(p.ratio for p in pts)
    assert all(p.ratio <= recorded for p in pts)
    assert recorded < 100.0  # explosion guard; empirical values sit near 1


def test_jackson_band_limited_zero_ratio():
    f = char_fn(3)
    pt = jackson_ratio(f, 2)  # 2^2 >= 3: E = 0 while Omega > 0
    assert not pt.degenerate
    assert pt.ratio == pytest.approx(0.0, abs=1e-9)


def test_jackson_scale_invariance():
    f = sawtooth(9)
    c = f.coeffs(4096)
    doubled = band_limited_fn(2 * c, name="2f")
    p1 = jackson_ratio(f, 3)
    p2 = jackson_ratio(doubled, 3)
    assert p2.ratio == pytest.approx(p1.ratio, rel=1e-6)


def test_jackson_degenerate_reported():
    pt = jackson_ratio(const_fn(1.0), 3)
    assert pt.degenerate
    assert np.isnan(pt.ratio)


# ---------------------------------------------------------------- block sums

def test_rm_sum_plateau_beyond_band():
    c = np.array([0.0, 1.0, 0.5, -0.25])
    edge = log_weighted_block_sum(c, 3)
    for J in (4, 100, 10_000):
        assert log_weighted_block_sum(c, J) == edge


def test_rm_sum_monotone():
    c = sawtooth(5).coeffs(4096)
    vals = [log_weighted_block_sum(c, J) for J in (4, 16, 64, 256, 1024, 4096)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_rm_sum_convergent_reference_sequence():
    # c_j = 1/j: sum log(j)/j^2 converges; compare against a straight series
    # oracle with an integral tail bound.
    J = 2**14
    j = np.arange(2, J + 1, dtype=float)
    c = np.zeros(J + 1)
    c[2:] = 1 / j
    got = log_weighted_block_sum(c, J)
    oracle = float(np.sum(np.log(j) / j**2))
    assert got == pytest.approx(oracle, rel=1e-12)
    tail_bound = (np.log(J) + 1) / J  # int_J^inf log(x)/x^2 dx
    assert tail_bound < 1e-3  # the series has essentially converged


def test_rm_sum_divergent_sequence_grows():
    # c_j = 1/(sqrt(j) log j) is square-summable yet log-weighted divergent:
    # sum log(j) c_j^2 = sum 1/(j log j) ~ log log J.  (The tempting
    # c_j = 1/(j sqrt(log j)) is NOT a divergence witness: its weighted sum
    # is sum 1/j^2 < infinity, as the series oracle below confirms.)
    J = 2**16
    j = np.arange(2, J + 1, dtype=float)
    c = np.zeros(J + 1)
    c[2:] = 1 / (np.sqrt(j) * np.log(j))
    assert np.sum(c**2) < np.inf and np.sum(c[2:] ** 2) < 2.2
    vals = [log_weighted_block_sum(c, 2**p) for p in (6, 10, 14, 16)]
    incs = np.diff(vals)
    assert np.all(incs > 0.05)  # keeps growing, loglog-slowly

    c_bad = np.zeros(J + 1)
    c_bad[2:] = 1 / (j * np.sqrt(np.log(j)))
    got = log_weighted_block_sum(c_bad, J)
    oracle = float(np.sum(1 / j**2))
    assert got == pytest.approx(oracle, rel=1e-12)  # convergent, not a witness


def test_rm_sum_witness_increments_tiny():
    c = sawtooth(5).coeffs(4096)
    inc = log_weighted_block_sum(c, 2**12) - log_weighted_block_sum(c, 2**10)
    assert 0 <= inc < 1e-6


# ---------------------------------------------------------------- uniform errors

def test_uniform_error_band_limited_zero():
    f = band_limited_fn(np.array([0.5, 1.5, -0.5, 0.25]))
    assert uniform_error_central(f, 5, 0.3) <= 1e-10


def test_uniform_error_sqrt_shift_decreases():
    f = sqrt_shift_fn()
    errs = [uniform_error_central(f, N, 0.3) for N in (64, 128, 256)]
    assert errs[0] > errs[1] > errs[2]


def test_uniform_error_at_poles_recorded_only():
    # delta = 0 is allowed; endpoint behaviour is observed, never asserted
    f = sqrt_shift_fn()
    errs = [uniform_error_central(f, N, 0.0) for N in (64, 128)]
    assert all(np.isfinite(e) for e in errs)


def test_uniform_error_rejects_bad_delta():
    with pytest.raises(ValueError):
        uniform_error_central(sqrt_shift_fn(), 16, np.pi)


# ---------------------------------------------------------------- Hoelder family

def test_holder_family_norm_closed_form():
    from su2fourier.group import weyl_grid

    for alpha in (0.3, 0.5, 0.8):
        f = holder_test_function(alpha)
        rule = weyl_grid(64, cusps=(np.pi / 2,))
        quad = float(np.dot(rule.weights, f(rule.nodes) ** 2))
        assert f.l2_norm_sq() == pytest.approx(quad, rel=1e-10)


def test_holder_family_dini_bounded():
    for alpha in (0.3, 0.5, 0.8):
        prof = modulus_profile(holder_test_function(alpha), 1e-4)
        total = dini_integral(prof, 1e-4)
        assert np.isfinite(total)
        incs = [
            dini_integral(prof, tm) for tm in (1e-2, 1e-3, 1e-4)
        ]
        # increments shrink as t_min falls: the integral is converging
        assert incs[1] - incs[0] > incs[2] - incs[1]


def test_holder_family_rejects_bad_alpha():
    with pytest.raises(ValueError):
        holder_test_function(1.5)

"""Group arithmetic, metric, exponential map, and quadrature rules."""

import numpy as np
import pytest
from hypothesis import given
from scipy.linalg import expm

from su2fourier.group import (
    GroupElement,
    IDENTITY,
    conj_angle,
    exp_arrays,
    gauss_panels,
    haar_grid,
    make_element,
    metric_d,
    mul_arrays,
    random_directions,
    weyl_grid,
)
from su2fourier import group
from su2fourier.representations import char_eval

from helpers import elements, haar_weights, random_element


def exp_element(c, beta):
    a, b = exp_arrays(np.array([c]), np.array([beta]))
    return GroupElement(complex(a[0]), complex(b[0]))


# ---------------------------------------------------------------- elements

def test_make_element_identity():
    e = make_element(1, 0)
    assert e.a == 1 and e.b == 0
    assert conj_angle(e) == 0.0


def test_make_element_quarter_turn():
    # eigenvalues of [[0,1],[-1,0]] are +-i, so the conjugacy angle is pi/2
    x = make_element(0, 1)
    assert conj_angle(x) == pytest.approx(np.pi / 2, abs=1e-15)


def test_make_element_rejects_off_sphere():
    with pytest.raises(ValueError):
        make_element(1, 1)
    with pytest.raises(ValueError):
        make_element(float("nan"), 0)


def test_make_element_renormalizes_drift():
    x = make_element(1 + 4e-7, 1e-7j)
    assert abs(abs(x.a) ** 2 + abs(x.b) ** 2 - 1) < 1e-15


def test_group_axioms_random():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        x, y, z = (random_element(rng) for _ in range(3))
        lhs = (x * y) * z
        rhs = x * (y * z)
        assert abs(lhs.a - rhs.a) < 1e-12 and abs(lhs.b - rhs.b) < 1e-12
        w = x * x.inverse()
        assert abs(w.a - 1) < 1e-12 and abs(w.b) < 1e-12
        w = x * IDENTITY
        assert w.a == x.a and w.b == x.b


@given(x=elements, y=elements, z=elements)
def test_mul_arrays_associative(x, y, z):
    la, lb = mul_arrays(*mul_arrays(x.a, x.b, y.a, y.b), z.a, z.b)
    ra, rb = mul_arrays(x.a, x.b, *mul_arrays(y.a, y.b, z.a, z.b))
    assert abs(la - ra) < 1e-14 and abs(lb - rb) < 1e-14


@given(x=elements)
def test_mul_arrays_inverse_law(x):
    # x^{-1} = (conj a, -b) on both sides gives the identity (1, 0)
    for w in (mul_arrays(x.a, x.b, np.conj(x.a), -x.b), mul_arrays(np.conj(x.a), -x.b, x.a, x.b)):
        assert abs(w[0] - 1) < 1e-14 and abs(w[1]) < 1e-14


def test_inverse_is_conjugate_pair():
    rng = np.random.default_rng(1)
    x = random_element(rng)
    xi = x.inverse()
    assert xi.a == np.conj(x.a) and xi.b == -x.b
    assert np.allclose(xi.matrix, x.matrix.conj().T)


# ---------------------------------------------------------------- angle / metric

def test_conj_angle_poles():
    assert conj_angle(IDENTITY) == 0.0
    minus_e = GroupElement(-1.0 + 0j, 0j)
    assert conj_angle(minus_e) == pytest.approx(np.pi, abs=1e-15)


def test_conj_angle_conjugation_invariant():
    rng = np.random.default_rng(2)
    for _ in range(50):
        x, z = random_element(rng), random_element(rng)
        y = z * x * z.inverse()
        assert conj_angle(y) == pytest.approx(conj_angle(x), abs=1e-12)


def test_metric_basics():
    rng = np.random.default_rng(3)
    x = random_element(rng)
    assert metric_d(x, x) == 0.0
    minus_e = GroupElement(-1.0 + 0j, 0j)
    assert metric_d(IDENTITY, minus_e) == pytest.approx(2.0, abs=1e-15)


def test_metric_torus_chord():
    # d(e, omega(theta)) = 2 |sin(theta/2)|
    for th in np.linspace(0.1, np.pi, 7):
        w = GroupElement(np.exp(1j * th), 0j)
        assert metric_d(IDENTITY, w) == pytest.approx(2 * abs(np.sin(th / 2)), abs=1e-13)


def test_metric_bi_invariance():
    rng = np.random.default_rng(4)
    for _ in range(100):
        x, y, z = (random_element(rng) for _ in range(3))
        d = metric_d(x, y)
        assert metric_d(z * x, z * y) == pytest.approx(d, abs=1e-12)
        assert metric_d(x * z, y * z) == pytest.approx(d, abs=1e-12)


def test_metric_matches_trace_form():
    rng = np.random.default_rng(5)
    x, y = random_element(rng), random_element(rng)
    diff = x.matrix - y.matrix
    d2 = 0.5 * np.trace(diff @ diff.conj().T).real
    assert metric_d(x, y) == pytest.approx(np.sqrt(d2), abs=1e-13)


# ---------------------------------------------------------------- Lie algebra

def test_exp_zero_and_diagonal():
    e = exp_element(0.0, 0j)
    assert e.a == 1 and e.b == 0
    th = 0.8
    w = exp_element(th, 0j)
    assert w.a == pytest.approx(np.exp(1j * th), abs=1e-15)
    assert w.b == 0


def test_exp_matches_matrix_exponential():
    rng = np.random.default_rng(6)
    for _ in range(20):
        c = rng.normal()
        beta = rng.normal() + 1j * rng.normal()
        X = np.array([[1j * c, beta], [-np.conj(beta), -1j * c]])
        got = exp_element(c, beta).matrix
        want = expm(X)
        assert np.abs(got - want).max() < 1e-12


def test_exp_chord_distance():
    rng = np.random.default_rng(7)
    c, beta = random_directions(rng, 1)
    h = exp_element(0.3 * float(c[0]), 0.3 * complex(beta[0]))
    assert metric_d(IDENTITY, h) == pytest.approx(2 * np.sin(0.15), abs=1e-13)


def test_conj_angle_of_exp_recovers_norm():
    rng = np.random.default_rng(8)
    for t in (0.05, 0.5, 1.5, 3.0):
        c, beta = random_directions(rng, 1)
        h = exp_element(t * float(c[0]), t * complex(beta[0]))
        assert conj_angle(h) == pytest.approx(t, abs=1e-10)


# ---------------------------------------------------------------- weyl rule

def test_weyl_weights_sum_to_one():
    for order in (2, 10, 50):
        assert abs(weyl_grid(order).weights.sum() - 1) < 1e-12


def test_weyl_integrates_constants_exactly():
    r = weyl_grid(6)
    assert np.dot(r.weights, np.ones(len(r.weights))) == pytest.approx(1.0, abs=1e-14)


def test_weyl_character_orthonormality_spot():
    r = weyl_grid(20)
    chi1 = char_eval(1, r.nodes)
    chi5 = char_eval(5, r.nodes)
    chi7 = char_eval(7, r.nodes)
    assert np.dot(r.weights, chi1 * chi1) == pytest.approx(1.0, abs=1e-12)
    assert np.dot(r.weights, chi5 * chi7) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("order", [4, 10, 25, 60])
def test_weyl_trig_exactness_band(order):
    # cos(k theta) sin^2(theta) exact for k <= 2*order - 4
    r = weyl_grid(order)
    ks = np.arange(0, 2 * order - 3)
    vals = (np.pi / 2) * (np.cos(np.outer(ks, r.nodes)) @ r.weights)
    exact = np.zeros_like(vals)
    exact[0] = np.pi / 2
    if len(exact) > 2:
        exact[2] = -np.pi / 4
    assert np.abs(vals - exact).max() < 1e-13


def test_weyl_polynomial_exactness():
    # int theta^d sin^2 theta: I_d = pi^{d+1}/(2(d+1)) - J_d/2 with
    # J_d = int theta^d cos(2 theta) via the parts recursion
    r = weyl_grid(12)
    J = {0: 0.0, 1: 0.0}
    for d in range(2, 13):
        J[d] = d / 4 * np.pi ** (d - 1) - d * (d - 1) / 4 * J[d - 2]
    for d in range(0, 13):
        want = (2 / np.pi) * (np.pi ** (d + 1) / (2 * (d + 1)) - J[d] / 2)
        got = np.dot(r.weights, r.nodes**d)
        assert got == pytest.approx(want, rel=1e-13)


def test_weyl_rejects_tiny_order():
    with pytest.raises(ValueError):
        weyl_grid(1)


# ---------------------------------------------------------------- haar rule

def test_haar_mass():
    assert abs(haar_weights(haar_grid(8)).sum() - 1) < 1e-13


def test_haar_kills_characters():
    r = haar_grid(8)
    a, b = r.element_arrays()
    th = np.arccos(np.clip(a.real, -1, 1))
    assert abs(np.dot(haar_weights(r), char_eval(1, th))) < 1e-10


def test_haar_matrix_entry_second_moment():
    # |a(x)|^2 is |pi_1[0,0]|^2; Schur gives 1/(1+1)
    r = haar_grid(8)
    a, _ = r.element_arrays()
    assert np.dot(haar_weights(r), np.abs(a) ** 2) == pytest.approx(0.5, abs=1e-10)


def test_haar_flat_view_matches_axes():
    r = haar_grid(4)
    a, b = r.element_arrays()
    assert len(r) == len(haar_weights(r)) == len(a)
    assert np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1).max() < 1e-14


def test_haar_flat_arrays_follow_euler_parametrization():
    # the flat arrays list the (alpha, beta, gamma) tensor grid in C order,
    # bitwise as the Euler formulas give them node by node
    r = haar_grid(6)
    A, B, G = (x.ravel() for x in np.meshgrid(r.alpha, r.beta, r.gamma, indexing="ij"))
    a, b = r.element_arrays()
    assert np.array_equal(a, np.cos(B / 2) * np.exp(1j * (A + G) / 2))
    assert np.array_equal(b, np.sin(B / 2) * np.exp(1j * (A - G) / 2))


def test_haar_rule_is_its_axes_and_builds_fresh_arrays():
    # element_arrays() and planes() keep nothing on the rule: each call builds
    # new read-only arrays, and the rule holds its four axes only
    r = haar_grid(6)
    first, second = r.element_arrays(), r.element_arrays()
    for x, y in zip(first, second):
        assert x is not y and not np.shares_memory(x, y)
        assert np.array_equal(x, y)
        assert not x.flags.writeable and not y.flags.writeable
    for x, y in zip(r.planes(), r.planes()):
        assert x is not y and np.array_equal(x, y)
    assert set(vars(r)) == {"alpha", "beta", "w_beta", "gamma"}


_RULE_ARRAYS = {
    "weyl.nodes": lambda: weyl_grid(8).nodes,
    "weyl.weights": lambda: weyl_grid(8).weights,
    "haar.alpha": lambda: haar_grid(8).alpha,
    "haar.beta": lambda: haar_grid(8).beta,
    "haar.w_beta": lambda: haar_grid(8).w_beta,
    "haar.gamma": lambda: haar_grid(8).gamma,
    "haar.planes.cos": lambda: haar_grid(8).planes()[0],
    "haar.planes.sin": lambda: haar_grid(8).planes()[1],
    "haar.planes.phase_sum": lambda: haar_grid(8).planes()[2],
    "haar.planes.phase_dif": lambda: haar_grid(8).planes()[3],
    "haar.elements.a": lambda: haar_grid(8).element_arrays()[0],
    "haar.elements.b": lambda: haar_grid(8).element_arrays()[1],
}


@pytest.mark.parametrize("name", list(_RULE_ARRAYS))
def test_rule_arrays_are_read_only(name):
    # every caller shares the stored arrays (a write would change later
    # integrals); the built ones are read-only alike
    arr = _RULE_ARRAYS[name]()
    with pytest.raises(ValueError):
        arr[0] = 0
    with pytest.raises(ValueError):
        arr *= 0


def test_gauss_panels_leave_no_cached_state_behind():
    edges = np.array([0.0, 0.5, 2.0, np.pi])
    t, w = gauss_panels(edges, 8)
    t0, w0 = t.copy(), w.copy()
    t[:] = 0
    w[:] = 0
    t1, w1 = gauss_panels(edges, 8)
    assert np.array_equal(t1, t0) and np.array_equal(w1, w0)
    xg, wg = group._gauss_legendre(8)
    for arr in (xg, wg):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_mul_arrays_matches_scalar_product():
    rng = np.random.default_rng(9)
    x, y = random_element(rng), random_element(rng)
    a, b = mul_arrays(np.array([x.a]), np.array([x.b]), np.array([y.a]), np.array([y.b]))
    w = x * y
    assert abs(a[0] - w.a) < 1e-15 and abs(b[0] - w.b) < 1e-15

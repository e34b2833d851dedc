"""Characters, representation matrices, and truncation index sets."""

from math import comb, factorial, sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from su2fourier.group import GroupElement, haar_grid, random_elements
from su2fourier.representations import (
    char_eval,
    char_table,
    euler_diag_freqs,
    repr_matrices,
    repr_matrix,
    truncation_set,
    wigner_d,
)


def random_element(rng):
    a, b = random_elements(rng, 1)
    return GroupElement(complex(a[0]), complex(b[0]))


# ---------------------------------------------------------------- characters

def test_char_trivial_rep():
    th = np.linspace(0, np.pi, 11)
    assert np.allclose(char_eval(0, th), 1.0)


def test_char_pole_limits():
    for n in (1, 4, 9):
        assert char_eval(n, 0.0) == pytest.approx(n + 1, abs=1e-12)
        assert char_eval(n, np.pi) == pytest.approx((-1) ** n * (n + 1), abs=1e-12)
        # just inside the recurrence window
        assert char_eval(n, 5e-5) == pytest.approx(n + 1, rel=1e-6)


def test_char_chebyshev_recurrence():
    th = 0.9
    lhs = char_eval(7, th)
    rhs = 2 * np.cos(th) * char_eval(6, th) - char_eval(5, th)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_char_table_matches_pointwise():
    th = np.linspace(0, np.pi, 17)
    table = char_table(12, th)
    for n in (0, 3, 12):
        assert np.abs(table[n] - char_eval(n, th)).max() < 1e-11


def _char_table_loop(n_max, theta):
    # reference: the recurrence with a fresh row expression per degree
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    x = np.cos(th)
    out = np.empty((n_max + 1,) + th.shape)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = 2 * x
    for n in range(2, n_max + 1):
        out[n] = 2 * x * out[n - 1] - out[n - 2]
    return out


@pytest.mark.parametrize("n_max", [0, 1, 2, 300])
def test_char_table_in_place_recurrence_is_bitwise_the_loop(n_max):
    rng = np.random.default_rng(n_max)
    th = np.concatenate(([0.0, np.pi, 3e-5, np.pi - 3e-5], rng.uniform(0, np.pi, 60)))
    assert np.array_equal(char_table(n_max, th), _char_table_loop(n_max, th))
    grid = th.reshape(8, 8)
    assert np.array_equal(char_table(n_max, grid), _char_table_loop(n_max, grid))
    assert np.array_equal(char_table(n_max, 0.7), _char_table_loop(n_max, 0.7))


# ---------------------------------------------------------------- matrices

def test_repr_trivial_and_defining():
    rng = np.random.default_rng(0)
    x = random_element(rng)
    assert np.allclose(repr_matrix(0, x), [[1.0]])
    assert np.abs(repr_matrix(1, x) - x.matrix).max() < 1e-14


def test_repr_trace_is_character():
    rng = np.random.default_rng(1)
    from su2fourier.group import conj_angle

    for _ in range(20):
        x = random_element(rng)
        tr = np.trace(repr_matrix(4, x))
        assert abs(tr.imag) < 1e-12
        assert tr.real == pytest.approx(char_eval(4, conj_angle(x)), abs=1e-10)


@pytest.mark.parametrize("n", [2, 8, 17, 32])
def test_repr_unitary(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        x = random_element(rng)
        M = repr_matrix(n, x)
        assert np.abs(M @ M.conj().T - np.eye(n + 1)).max() < 1e-11


@pytest.mark.parametrize("n", [1, 5, 16])
def test_repr_homomorphism(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        x, y = random_element(rng), random_element(rng)
        lhs = repr_matrix(n, x * y)
        rhs = repr_matrix(n, x) @ repr_matrix(n, y)
        assert np.abs(lhs - rhs).max() < 1e-10


def _unitarity_and_homomorphism_errors(n, x, y):
    M = repr_matrix(n, x)
    unitarity = np.abs(M @ M.conj().T - np.eye(n + 1)).max()
    homomorphism = np.abs(repr_matrix(n, x * y) - M @ repr_matrix(n, y)).max()
    return unitarity, homomorphism


@pytest.mark.parametrize("n", [64, 128, 256, 512])
def test_repr_high_degree(n):
    # the degree recurrence keeps both identities at rounding level, no cap
    rng = np.random.default_rng(200 + n)
    x, y = random_element(rng), random_element(rng)
    assert max(_unitarity_and_homomorphism_errors(n, x, y)) <= 1e-12


@settings(max_examples=8, deadline=None)
@given(n=st.integers(0, 512), seed=st.integers(0, 2**32 - 1))
def test_repr_identities_property(n, seed):
    rng = np.random.default_rng(seed)
    x, y = random_element(rng), random_element(rng)
    assert max(_unitarity_and_homomorphism_errors(n, x, y)) <= 1e-12


def test_repr_matches_binomial_sum():
    # reference: the entry (p, q) is the coefficient of e_p in pi_n(x) e_q,
    #   sqrt((n-p)! p! / ((n-q)! q!)) *
    #   sum_i C(n-q, i) C(q, p-i) a^{n-q-i} (-conj b)^i b^{q-p+i} conj(a)^{p-i}
    rng = np.random.default_rng(7)
    a, b = random_elements(rng, 4)
    for n, Pi in enumerate(repr_matrices(8, a, b)):
        for p in range(n + 1):
            for q in range(n + 1):
                norm = sqrt(factorial(n - p) * factorial(p) / (factorial(n - q) * factorial(q)))
                want = norm * sum(
                    comb(n - q, i) * comb(q, p - i) * a ** (n - q - i) * (-np.conj(b)) ** i
                    * b ** (q - p + i) * np.conj(a) ** (p - i)
                    for i in range(max(0, p - q), min(n - q, p) + 1)
                )
                assert np.abs(Pi[:, p, q] - want).max() < 1e-13


def test_repr_negative_degree():
    with pytest.raises(ValueError):
        repr_matrix(-1, GroupElement(1.0 + 0j, 0j))
    with pytest.raises(ValueError, match="degree n must be >= 0"):
        char_table(-1, np.array([0.5]))


def test_schur_orthogonality():
    # (n+1) int pi_n[i,j] conj(pi_m[k,l]) dmu = delta_{nm} delta_{ik} delta_{jl}
    rule = haar_grid(16)
    a, b = rule.element_arrays()
    w = rule.weights
    cols, labels = [], []
    for n, Pi in enumerate(repr_matrices(6, a, b)):
        for i in range(n + 1):
            for j in range(n + 1):
                cols.append(Pi[:, i, j] * np.sqrt(n + 1))
                labels.append((n, i, j))
    E = np.stack(cols, axis=1)
    G = (E * w[:, None]).conj().T @ E
    assert np.abs(G - np.eye(len(labels))).max() < 1e-8


def test_euler_factorization():
    # pi_n(x(al, be, ga)) = diag(e^{i al (n-2p)/2}) d_n(be) diag(e^{i ga (n-2q)/2})
    rng = np.random.default_rng(3)
    n = 5
    for _ in range(5):
        al, ga = rng.uniform(0, 2 * np.pi), rng.uniform(0, 4 * np.pi)
        be = rng.uniform(0, np.pi)
        a = np.cos(be / 2) * np.exp(1j * (al + ga) / 2)
        b = np.sin(be / 2) * np.exp(1j * (al - ga) / 2)
        direct = repr_matrix(n, GroupElement(a, b))
        d = wigner_d(n, np.array([be]))[0]
        ph = euler_diag_freqs(n) / 2
        fact = np.exp(1j * al * ph)[:, None] * d * np.exp(1j * ga * ph)[None, :]
        assert np.abs(direct - fact).max() < 1e-12


def test_wigner_d_row_sums_are_bounded():
    d = wigner_d(6, np.linspace(0, np.pi, 9))
    # rows of a unitary matrix: squared norms are 1
    assert np.abs((d**2).sum(axis=2) - 1).max() < 1e-12


# ---------------------------------------------------------------- truncations

def test_truncation_polyhedral():
    t = truncation_set("polyhedral", 3)
    assert t.members == (0, 1, 2, 3)
    assert t.blocks == ((0,), (1,), (2,), (3,))


def test_truncation_spherical_base():
    assert truncation_set("spherical", 0).members == (1,)
    assert truncation_set("spherical", 3).members == (0, 1, 2, 3, 4)


def test_truncation_spherical_blocks():
    t = truncation_set("spherical", 4)
    assert t.blocks == ((1,), (0, 2), (3,), (4,), (5,))


def test_truncation_nesting():
    for mode in ("polyhedral", "spherical"):
        for N in range(0, 201):
            t = truncation_set(mode, N)
            assert list(t.members) == sorted(set(t.members))
            flat = [j for blk in t.blocks for j in blk]
            assert sorted(flat) == list(t.members)  # the blocks partition the members
            big = set(truncation_set(mode, N + 1).members)
            assert set(t.members) <= big


def test_truncation_shift_relation():
    # spherical members at N equal polyhedral members at N+1, for N >= 1
    for N in range(1, 201):
        assert (
            truncation_set("spherical", N).members
            == truncation_set("polyhedral", N + 1).members
        )

"""Sawtooth witnesses, Hoelder bounds, and the lower-bound inequality chain."""

import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from su2fourier import divergence, fourier
from su2fourier.group import GroupElement, haar_grid, random_elements
from su2fourier.fourier import (
    _pl_norm_sq,
    _store_runs,
    lebesgue_constant,
    left_translate,
    partial_sum_general,
)
from su2fourier.divergence import (
    divergence_table,
    holder_bound,
    partial_sum_at_identity,
    sawtooth,
    sawtooth_breakpoints,
    sawtooth_normalized,
    verify_chain,
)

from helpers import (
    chain_per_n,
    classical_dirichlet,
    divergence_rows,
    gauss_chain_split,
    same_bits,
)
from holder_quotients import holder_quotient_estimate


# ---------------------------------------------------------------- sawtooth

def test_sawtooth_values():
    g = sawtooth(5)
    assert g(0.0) == pytest.approx(1.0, abs=1e-15)
    assert g(np.pi) == pytest.approx(0.0, abs=1e-15)
    # midpoint of the first interval (2n+3 = 13) interpolates +1 and -1
    assert g(np.pi / 13) == pytest.approx(0.0, abs=1e-14)


def test_sawtooth_breakpoint_pattern():
    th, va = sawtooth_breakpoints(5)
    M = 13
    for k in range(7):
        assert th[k] == pytest.approx(2 * k * np.pi / M, abs=1e-15)
        assert va[k] == (-1.0) ** k
    assert th[-1] == np.pi and va[-1] == 0.0


@pytest.mark.parametrize(
    "entry", [sawtooth, sawtooth_normalized, verify_chain]
)
def test_sawtooth_rejects_small_n(entry):
    for n in (0, 1, -3):
        with pytest.raises(ValueError, match="sawtooth witnesses need n >= 2"):
            entry(n)


def test_sawtooth_bounded_by_one():
    g = sawtooth(11)
    th = np.linspace(0, np.pi, 20000)
    assert np.abs(g(th)).max() <= 1.0 + 1e-15


def test_sawtooth_eval_is_breakpoint_interpolation():
    g = sawtooth(7)
    th, va = sawtooth_breakpoints(7)
    probe = np.linspace(0, np.pi, 777)
    assert np.abs(g(probe) - np.interp(probe, th, va)).max() < 1e-14


def _mp_profile(n, theta):
    # g_n at the float angle theta in 40 digits, by linear interpolation on
    # its cell: with u = M theta / (2 pi) and j = floor(u), g_n falls from
    # (-1)^j at 2 pi j/M with slope -2 (-1)^j in u, and reaches 0 at u = n + 3/2
    with mp.workdps(40):
        u = (2 * n + 3) * mp.mpf(theta) / (2 * mp.pi)
        j = int(mp.floor(u))
        return (-1) ** j * (1 - 2 * (u - j))


@pytest.mark.parametrize("n", [2, 5, 16, 64, 1024])
def test_sawtooth_closed_form_matches_mpmath(n):
    # the triangle wave is within 2 M eps of g_n at the rounded angle, the
    # conditioning of its slope M/pi; at random angles and every breakpoint
    M = 2 * n + 3
    th, _ = sawtooth_breakpoints(n)
    probe = np.concatenate((np.random.default_rng(n).uniform(0.0, np.pi, 500), th))
    got = sawtooth(n)(probe)
    err = [abs(float(got[i] - _mp_profile(n, t))) for i, t in enumerate(probe)]
    assert max(err) <= 2 * M * np.finfo(float).eps


@pytest.mark.parametrize("n", [2, 5, 16, 64, 1024])
def test_sawtooth_closed_form_ends_and_range_are_exact(n):
    g = sawtooth(n)
    assert g(0.0) == 1.0 and g(np.pi) == 0.0
    th = np.linspace(0.0, np.pi, 200_001)
    assert np.abs(g(th)).max() <= 1.0


def test_sawtooth_reads_a_read_only_argument_without_writing():
    g = sawtooth(5)
    th = np.linspace(0.0, np.pi, 101)
    want = g(th.copy())
    th.flags.writeable = False
    got = g.fn(th)
    assert np.array_equal(got, want) and got is not th
    assert np.array_equal(th, np.linspace(0.0, np.pi, 101))
    value = g(0.3)  # a scalar call reads a 0-d array
    assert np.ndim(value) == 0 and value == g(np.array([0.3]))[0]


@pytest.mark.parametrize("n", [2, 5, 16, 64, 1024])
def test_sawtooth_normalized_is_the_scaled_profile(n):
    th = np.concatenate((np.linspace(0.0, np.pi, 1001), sawtooth_breakpoints(n)[0]))
    scale = np.pi / (2 * n + 3)
    assert np.array_equal(sawtooth_normalized(n)(th), scale * sawtooth(n)(th))


# ---------------------------------------------------------------- Hoelder machinery

def test_holder_bound_below_pi():
    ns = np.arange(2, 1025)
    for alpha in np.linspace(0.1, 0.9, 9):
        assert np.all(holder_bound(ns, alpha) <= np.pi + 1e-15)


def test_holder_bound_values():
    # alpha -> 1 collapses the width factor
    assert holder_bound(10, 1.0 - 1e-12) == pytest.approx(np.pi / 2, rel=1e-9)
    want = np.sqrt(np.pi / 2) * np.sqrt(2 * np.pi / 23)
    assert holder_bound(10, 0.5) == pytest.approx(want, rel=1e-14)


def test_holder_quotient_constant_function():
    from su2fourier.fourier import const_fn

    assert holder_quotient_estimate(const_fn(3.0), 0.5, 2000, seed=1) == 0.0


@pytest.mark.parametrize("n", [2, 5, 17, 64])
def test_holder_quotient_of_normalized_witnesses_below_bound(n):
    f = sawtooth_normalized(n)
    for alpha in (0.1, 0.5, 0.9):
        est = holder_quotient_estimate(f, alpha, sample_count=10_000, seed=n)
        assert est <= float(holder_bound(n, alpha)) + 1e-9
        assert est <= np.pi + 1e-9


def test_holder_quotient_unit_amplitude_exceeds_pi():
    # why the normalization matters: adjacent breakpoint classes of the
    # unit-amplitude witness sit at distance 2 sin(pi/(2n+3)) with values
    # +-1, so the quotient 2/(2 sin(pi/M))^alpha outgrows pi
    from su2fourier.group import GroupElement, metric_d

    n, alpha = 17, 0.5
    M = 2 * n + 3
    f = sawtooth(n)
    x = GroupElement(np.exp(2j * np.pi * 1 / M), 0j)
    y = GroupElement(np.exp(2j * np.pi * 2 / M), 0j)
    d = metric_d(x, y)
    quotient = abs(float(f(2 * np.pi / M)) - float(f(4 * np.pi / M))) / d**alpha
    assert quotient == pytest.approx(2 / (2 * np.sin(np.pi / M)) ** alpha, rel=1e-12)
    assert quotient > np.pi
    # and the sampler finds such pairs too
    est = holder_quotient_estimate(f, alpha, sample_count=20_000, seed=0)
    assert est > np.pi


def test_normalized_witness_scaling():
    f = sawtooth_normalized(9)
    g = sawtooth(9)
    th = np.linspace(0, np.pi, 101)
    scale = np.pi / 21
    assert np.abs(f(th) - scale * g(th)).max() < 1e-15


def test_holder_quotient_angle_function_oracle():
    # f(omega(theta)) = theta: on a one-parameter torus pair the quotient is
    # (theta1-theta2)/(2 sin((theta1-theta2)/2))^alpha, maximized over the gap.
    from su2fourier.fourier import CentralFn

    f = CentralFn(fn=lambda th: th, name="angle")
    alpha = 0.9
    gaps = np.linspace(1e-6, np.pi, 200001)
    oracle = np.max(gaps / (2 * np.sin(gaps / 2)) ** alpha)
    est = holder_quotient_estimate(f, alpha, sample_count=40_000, seed=3)
    assert est <= oracle + 1e-9
    assert est >= 0.9 * oracle


# ---------------------------------------------------------------- two-term split

@pytest.mark.parametrize("n", [2, 5, 17, 64, 100])
def test_split_consistent_with_coefficient_path(n):
    split = verify_chain(n)
    want = partial_sum_at_identity(n)
    assert abs(split.value - want) <= 1e-6 * abs(want)


def test_split_bounded_term_below_lebesgue():
    for n in (2, 10, 50):
        split = verify_chain(n)
        assert abs(split.bounded_term) <= lebesgue_constant(n) + 1e-10


def test_split_oscillatory_term_lower_bound():
    # summing the per-interval bounds and the cosine-sum identity gives
    # oscillatory >= (D_{n+1}(pi/(2n+3)) - 1)/3.  (The factor is 1/3: the
    # cosine sum is half of D-1, not all of it.)
    for n in (2, 10, 100):
        split = verify_chain(n)
        D = classical_dirichlet(n + 1, np.pi / (2 * n + 3))
        assert split.oscillatory_term >= (D - 1) / 3 - 1e-10


# ---------------------------------------------------------------- closed forms

def _mp_segment_moment(n, k):
    """int_0^pi g_n cos(k theta) at 40 digits, segment by segment from its definition."""
    with mp.workdps(40):
        M = 2 * n + 3
        th = [2 * mp.pi * j / M for j in range(n + 2)] + [mp.pi]
        va = [mp.mpf((-1) ** j) for j in range(n + 2)] + [mp.mpf(0)]
        total = mp.mpf(0)
        for t0, t1, v0, v1 in zip(th, th[1:], va, va[1:]):
            s = (v1 - v0) / (t1 - t0)
            if k == 0:
                total += (v0 + v1) / 2 * (t1 - t0)
            else:
                total += (v1 * mp.sin(k * t1) - v0 * mp.sin(k * t0)) / k
                total += s * (mp.cos(k * t1) - mp.cos(k * t0)) / k**2
        return total


def _mp_moments(n):
    """I_0..I_{n+2} of the closed form at 40 digits; sin(k x) by its recurrence.

    The recurrence keeps about 27 digits at n = 2^16, far more than the
    float checks need, at a fraction of the cost of one mpmath sine per k.
    """
    with mp.workdps(40):
        M = 2 * n + 3
        x = mp.pi / (2 * M)
        two_cos, scale = 2 * mp.cos(x), 2 * M / mp.pi
        prev, sin_kx = mp.mpf(0), mp.sin(x)
        I = [(-1) ** (n + 1) * mp.pi / (2 * M)]
        for k in range(1, n + 3):
            sq = sin_kx * sin_kx
            term = scale * sq / (k * k * (1 - 2 * sq))  # cos(pi k/M) = 1 - 2 sin^2(k x)
            I.append(term if (n + 1 + k) % 2 == 0 else -term)
            prev, sin_kx = sin_kx, two_cos * sin_kx - prev
        return I


@pytest.mark.parametrize("n", [2, 5, 17])
def test_witness_moments_are_the_segment_integrals(n):
    # the closed form, including k beyond M and up to the 4098 moments that
    # sawtooth(5).coeffs(4096) reads, against the profile's own integrals
    M = 2 * n + 3
    ks = sorted(set(range(n + 3)) | {M - 1, M, M + 1, 2 * M - 1, 2 * M, 2 * M + 1, 4 * M + 2, 4098})
    I = divergence._witness_moments(n, 4098)
    for k in ks:
        want = _mp_segment_moment(n, k)
        if k % (2 * M) == 0 and k > 0:
            assert I[k] == 0.0 and abs(want) < 1e-35
        else:
            assert abs(I[k] - want) <= 1e-15 * abs(want), k


@pytest.mark.parametrize("n", list(range(2, 65)) + [2**k for k in range(7, 17)])
def test_witness_closed_forms_match_mpmath(n):
    M = 2 * n + 3
    ref = _mp_moments(n)
    I = divergence._witness_moments(n, n + 2)
    for k in sorted({0, 1, 2, n // 3, n // 2, n - 1, n, n + 1, n + 2}):
        assert abs(I[k] - ref[k]) <= 1e-15 * abs(ref[k]), k
    # c_m is a difference of two moments of one sign, which can cancel; its
    # error is bounded by theirs
    c = sawtooth(n).coeffs(n)
    for m in sorted({0, 1, n // 2, n - 1, n}):
        want = (ref[m] - ref[m + 2]) / mp.pi
        assert abs(c[m] - want) <= 1e-15 * (abs(ref[m]) + abs(ref[m + 2])) / np.pi, m
    head = ref[0] + 2 * mp.fsum(ref[1 : n + 1])
    value = (head - n * ref[n + 1] - (n + 1) * ref[n + 2]) / mp.pi
    osc = M / (2 * mp.pi) * (ref[n + 1] + ref[n + 2])
    bounded = (head + 1.5 * ref[n + 1] + 0.5 * ref[n + 2]) / mp.pi
    rep = verify_chain(n)
    assert abs(partial_sum_at_identity(n) - value) <= 1e-15 * abs(value)
    assert abs(rep.oscillatory_term - osc) <= 1e-15 * osc
    assert abs(rep.bounded_term - bounded) <= 1e-15 * abs(bounded)
    assert abs(rep.value - partial_sum_at_identity(n)) <= 1e-15 * abs(rep.value)


@pytest.mark.parametrize("n", [2, 5, 64, 1024])
def test_witness_norms_are_exact(n):
    # ||f_n||^2 = 1/3, and the segment integrals of from_breakpoints agree
    th, va = sawtooth_breakpoints(n)
    assert sawtooth(n).l2_norm_sq() == 1 / 3
    scale = np.pi / (2 * n + 3)
    assert sawtooth_normalized(n).l2_norm_sq() == scale**2 / 3
    assert _pl_norm_sq(th, va) == pytest.approx(1 / 3, rel=1e-15)
    assert np.array_equal(sawtooth_normalized(n).coeffs(n), scale * sawtooth(n).coeffs(n))


def test_split_matches_the_gauss_cell_oracle():
    # the oracle's own error: cells within 5e-14, so the oscillatory term,
    # (M/pi) times their sum, within 1.4e-13 relative (n = 2)
    for n in range(2, 257):
        cells, osc, bounded = gauss_chain_split(n)
        rep = verify_chain(n)
        assert np.abs(rep.intervals[:, 0] - cells[: n + 1]).max() <= 1e-13, n
        assert abs(rep.tail_integral - cells[n + 1]) <= 1e-13, n
        assert abs(rep.oscillatory_term - osc) <= 2e-13 * osc, n
        assert abs(rep.bounded_term - bounded) <= 1e-13, n


def test_chain_margins_hold_without_tolerance():
    # every link is a closed form, so every margin must be a true inequality
    for n in list(range(2, 1025)) + [2**k for k in range(11, 17)]:
        rep = verify_chain(n)
        assert rep.min_margin >= 0.0, (n, rep.margins)


# ---------------------------------------------------------------- chain reports

def test_chain_small_n_margins():
    rep = verify_chain(2)
    assert rep.intervals.shape == (3, 3)
    assert rep.min_margin >= 0.0
    assert rep.tail_integral >= -1e-10
    assert rep.ok()


def test_chain_identity_at_17():
    rep = verify_chain(17)
    # both sides computed independently: cosine sum vs closed-form kernel value
    assert rep.identity_error < 1e-10
    assert rep.cosine_sum == pytest.approx((rep.dirichlet_value - 1) / 2, abs=1e-10)


def test_chain_dirichlet_floor_large_n():
    n = 10_000
    M = 2 * n + 3
    D = classical_dirichlet(n + 1, np.pi / M)
    assert D >= 2 * M / np.pi


@pytest.mark.parametrize("n", [2, 3, 5, 9, 17, 32])
def test_chain_all_margins(n):
    rep = verify_chain(n)
    assert rep.ok(), rep.margins
    assert rep.identity_error < 1e-10
    assert rep.lip_norm_bound <= 1 + np.pi + 1e-12


def test_chain_false_margin_reports_not_raises(monkeypatch):
    # a Lebesgue constant of 0 falsifies bounded_vs_lebesgue; the report
    # carries the negative margin instead of raising
    monkeypatch.setattr(divergence, "lebesgue_constant", lambda n: np.zeros(np.shape(n)))
    rep = verify_chain(8)
    assert rep.margins["bounded_vs_lebesgue"] == -abs(rep.bounded_term) < 0
    assert rep.min_margin == rep.margins["bounded_vs_lebesgue"]
    assert not rep.ok()


def test_chain_holder_exponent_must_lie_in_unit_interval():
    # holder_bound interpolates between the Lipschitz and the sup bound, so
    # it holds for 0 < alpha <= 1 only
    assert verify_chain(2, alpha=1.0).lip_norm_bound == np.pi / 7 + np.pi / 2
    for alpha in (0.0, -1.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match="alpha must lie in"):
            verify_chain(2, alpha=alpha)


# ---------------------------------------------------------------- the batch form

def _same_report(got, want):
    fields = [f for f in want.__dataclass_fields__ if not same_bits(getattr(got, f), getattr(want, f))]
    assert fields == [], (want.n, fields)


@settings(max_examples=40, deadline=None)
@given(
    ns=st.lists(st.integers(2, 300), min_size=1, max_size=60),
    alpha=st.floats(0.0, 1.0, exclude_min=True),
)
def test_chain_batch_is_bitwise_the_per_n_oracle(ns, alpha):
    # unsorted, with repeats; 60 values of n up to 300 hold up to 18 180
    # entries, so a list often spans several runs of 4096
    reports = verify_chain(ns, alpha)
    assert type(reports) is list and len(reports) == len(ns)
    for n, rep in zip(ns, reports):
        _same_report(rep, chain_per_n(n, alpha))


def test_chain_batch_runs_every_n_of_2_to_1024_and_the_large_ones_bitwise():
    # a large n runs alone, and the small ones around it still share runs
    ns = list(range(2, 1025)) + [64, 2, 4096, 65536, 70000, 3]
    reports = verify_chain(ns)
    assert [r.n for r in reports] == ns
    for n, rep in zip(ns, reports):
        _same_report(rep, chain_per_n(n))
    _same_report(verify_chain(65536), chain_per_n(65536))


def test_chain_batch_of_one_n_and_of_none():
    assert isinstance(verify_chain(5), divergence.ChainReport)
    assert [r.n for r in verify_chain([5])] == [5]
    assert verify_chain(range(2, 2)) == []


def _working_memory(call):
    # the peak less what the result still holds: every report keeps its
    # intervals, about 108 MB for n = 2..2999, whichever way they were formed
    tracemalloc.start()
    try:
        out = call()
        current, peak = tracemalloc.get_traced_memory()
        del out
        return peak - current
    finally:
        tracemalloc.stop()


def test_chain_batch_memory_stays_near_one_run():
    full_run = [fourier._RUN_ENTRIES // 4 - 3] * 4  # n + 3 entries each
    largest = max(
        _working_memory(lambda: verify_chain(2999)), _working_memory(lambda: verify_chain(full_run))
    )
    assert _working_memory(lambda: verify_chain(range(2, 3000))) <= 2 * largest


@pytest.mark.parametrize("ns", [[5, 8, 1, 9], [4, -3], [0]])
def test_chain_batch_checks_every_n_before_any_work(ns, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("arrays built before the checks")

    monkeypatch.setattr(divergence, "_ragged_runs", boom)
    monkeypatch.setattr(divergence, "lebesgue_constant", boom)
    bad = next(n for n in ns if n < 2)
    with pytest.raises(ValueError, match=f"sawtooth witnesses need n >= 2, got {bad}$"):
        verify_chain(ns)
    with pytest.raises(ValueError, match="alpha must lie in"):
        verify_chain([5, 8], alpha=1.5)


# ---------------------------------------------------------------- growth and tables

def test_monotone_blowup_along_diagonal():
    vals = [abs(partial_sum_at_identity(n)) for n in (25, 50, 100, 200, 400)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_growth_rate():
    for n in (50, 100, 200):
        assert abs(partial_sum_at_identity(n)) >= 0.5 * n


def test_divergence_table_identity_point():
    rule = haar_grid(48)
    rows = divergence_table([GroupElement(1.0 + 0j, 0j)], [4], rule)
    assert len(rows) == 1
    assert rows[0].rel_gap < 1e-4
    assert rows[0].central_abs == pytest.approx(abs(partial_sum_at_identity(4)), abs=1e-14)
    assert rows[0].growth == pytest.approx(rows[0].central_abs / 4, abs=1e-14)


def test_divergence_table_random_point():
    rng = np.random.default_rng(8)
    a, b = random_elements(rng, 1)
    z = GroupElement(complex(a[0]), complex(b[0]))
    rule = haar_grid(96)
    rows = divergence_table([z], [8], rule)
    assert rows[0].rel_gap < 1e-4


def test_divergence_table_is_bitwise_the_per_n_oracle():
    # n out of order, repeated and in two batches of stores: every row keeps
    # its place and its bits
    a, b = random_elements(np.random.default_rng(9), 2)
    points = [GroupElement(complex(x), complex(y)) for x, y in zip(a, b)]
    points.append(GroupElement(1.0 + 0j, 0j))
    rule = haar_grid(24)
    n_list = [5, 2, 12, 5, 12]
    assert _store_runs(n_list) == [slice(0, 4), slice(4, 5)]
    assert divergence_table(points, n_list, rule) == divergence_rows(points, n_list, rule)


def test_store_runs_cap_each_batch_at_twice_the_largest_store():
    assert _store_runs([4, 8, 16]) == [slice(0, 3)]  # the default diverge table is one run
    assert _store_runs([]) == []
    bounds = list(range(2, 65))
    runs = _store_runs(bounds)
    size = [(n + 1) ** 2 + n**2 for n in bounds]
    assert runs[0].start == 0 and runs[-1].stop == len(bounds)
    assert all(a.stop == b.start for a, b in zip(runs, runs[1:]))
    assert 1 < len(runs) <= len(bounds) // 4  # far fewer passes than one per n
    assert all(sum(size[run]) <= 2 * max(size) for run in runs)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_divergence_table_memory_stays_near_its_largest_single_n():
    # 39 values of n at once would hold every Y store of the list, about 8
    # times the peak of n = 40 alone
    z = [GroupElement(np.cos(0.3) + 0j, np.sin(0.3) + 0j)]
    rule = haar_grid(8)
    largest = _traced_peak(lambda: divergence_table(z, [40], rule))
    assert _traced_peak(lambda: divergence_table(z, list(range(2, 41)), rule)) <= 2 * largest
    # partial_sum_general owns that batch: its F_k lists alone total about
    # 3.4 MB here, so each run's are released before the next run's pass
    fs = [left_translate(sawtooth(n), z[0]) for n in range(2, 41)]

    def sums(f, N):
        return lambda: partial_sum_general(f, N, "polyhedral", z[0], rule)

    assert _traced_peak(sums(fs, list(range(2, 41)))) <= 2 * _traced_peak(sums(fs[-1], 40))


def test_divergence_table_rejects_a_bad_n_before_the_grid():
    with pytest.raises(ValueError, match="need n >= 2"):
        divergence_table([GroupElement(1.0 + 0j, 0j)], [4, 1], None)


def test_divergence_table_without_n_has_no_rows():
    assert divergence_table([GroupElement(1.0 + 0j, 0j)], [], None) == []

"""The beta-slab split of central integrands across CPUs.

``fourier._each_run`` runs the slabs of the two-plane path (a CentralFn or a
left translate of one) in contiguous beta runs on short-lived threads, one per
CPU of ``fourier._CPUS``: every usable CPU when BLAS runs on one thread, else
one.  Band-limited functions and general callables stay on the calling
thread.  Results must be bitwise those of the serial loop for every CPU count.
"""

import os
import subprocess
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import su2fourier
import su2fourier.cli  # noqa: F401  (the benchmark tracer hooks cli functions too)
from su2fourier import fourier
from su2fourier.convergence import (
    _translate_norms,
    holder_test_function,
    integral_modulus,
    modulus_profile,
    sqrt_shift_fn,
)
from su2fourier.divergence import divergence_table, sawtooth, sawtooth_normalized
from su2fourier.fourier import (
    CentralFn,
    band_limited_fn,
    char_fn,
    const_fn,
    left_translate,
    matrix_coeffs,
)
from su2fourier.group import (
    GroupElement,
    QuadratureRule,
    conj_angle_arrays,
    haar_grid,
    random_elements,
)

from helpers import load_spans as _load_spans

RULE = haar_grid(2)  # 11 beta slabs: 16 CPUs is more CPUs than slabs
Z = GroupElement(*(complex(x[0]) for x in random_elements(np.random.default_rng(3), 1)))


def _inputs():
    band = band_limited_fn(np.array([0.3, 0.2 + 0.1j, -0.4, 0.05j]))
    return {
        "sawtooth": sawtooth(5),
        "holder-translate": left_translate(holder_test_function(0.5), Z),
        "band-translate": left_translate(band, Z),
    }


def _serial_and_split(monkeypatch, cpus, compute):
    monkeypatch.setattr(fourier, "_CPUS", 1)
    serial = compute()
    monkeypatch.setattr(fourier, "_CPUS", cpus)
    return serial, compute()


def test_central_slab_is_the_class_angle_of_the_two_planes():
    """The in-place slab keeps the rounding of conj_angle_arrays(cb P + sb Q);
    a profile of x = cos theta reads that sum, clipped, with no angle formed."""
    rule = haar_grid(24)
    al, ga = rule.alpha[:, None], rule.gamma[None, :]
    P = np.real(Z.a * np.exp(1j * ((al + ga) / 2)))
    Q = -np.real(Z.b * np.exp(-1j * ((al - ga) / 2)))
    cb, sb = np.cos(rule.beta / 2), np.sin(rule.beta / 2)
    for g in (sawtooth(5), holder_test_function(0.5)):
        slab, split = fourier._euler_slabs([left_translate(g, Z)], rule.planes())
        assert split
        for ib in range(len(rule.beta)):
            x = cb[ib] * P + sb[ib] * Q
            if g.on_cos:
                want = g.fn(np.clip(x, -1.0, 1.0))
            else:
                want = g.fn(conj_angle_arrays(x, None))
            [got] = slab(ib)
            assert np.array_equal(got, want), (g.name, ib)


@pytest.mark.parametrize("cpus", [1, 2, 3, 16])
def test_matrix_coeffs_split_is_bitwise_the_serial_loop(monkeypatch, cpus):
    for name, f in _inputs().items():
        serial, split = _serial_and_split(monkeypatch, cpus, lambda: matrix_coeffs(f, 4, RULE))
        assert len(split) == len(serial) == 5
        for k, (got, want) in enumerate(zip(split, serial)):
            assert np.array_equal(got, want), (name, k)


def _complex_general(a, b):
    return sawtooth(4).on_group(a, b) * (1 + 0.5j * a.imag) + b * np.conj(a) ** 2


Z2 = GroupElement(*(complex(x[0]) for x in random_elements(np.random.default_rng(4), 1)))


def _batch(kind):
    """central: two translates by Z (an angle profile, then a cosine profile),
    one by Z2 and an untranslated profile.  mixed: also a band-limited
    translate and a complex general callable (the batch then runs serially).
    cosine: a cosine profile reads Z and the identity before an angle profile
    does, and a cosine profile alone reads Z2."""
    if kind == "cosine":
        fs = [
            left_translate(holder_test_function(0.5), Z),
            left_translate(sawtooth(5), Z),
            holder_test_function(0.3),
            sawtooth(4),
            left_translate(holder_test_function(0.7), Z2),
        ]
        return fs, [4, 3, 2, 0, 3]
    fs = [
        left_translate(sawtooth(5), Z),
        left_translate(holder_test_function(0.5), Z),
        left_translate(sawtooth(3), Z2),
        sawtooth(4),
    ]
    if kind == "mixed":
        band = band_limited_fn(np.array([0.3, 0.2 + 0.1j, -0.4, 0.05j]))
        fs += [left_translate(band, Z2), _complex_general]
    return fs, [4, 3, 4, 0, 2, 5][: len(fs)]


@pytest.mark.parametrize("kind", ["central", "mixed", "cosine"])
@pytest.mark.parametrize("cpus", [1, 2, 3, 16])
def test_matrix_coeffs_batch_is_bitwise_the_single_calls(monkeypatch, cpus, kind):
    fs, bounds = _batch(kind)
    assert fourier._euler_slabs(fs, RULE.planes())[1] is (kind != "mixed")
    monkeypatch.setattr(fourier, "_CPUS", 1)
    singles = [matrix_coeffs(f, n, RULE) for f, n in zip(fs, bounds)]
    monkeypatch.setattr(fourier, "_CPUS", cpus)
    batch = matrix_coeffs(fs, bounds, RULE)
    assert len(batch) == len(fs)
    for i, (got, want, n) in enumerate(zip(batch, singles, bounds)):
        assert len(got) == len(want) == n + 1
        for k, (G, W) in enumerate(zip(got, want)):
            assert np.array_equal(G, W), (i, k)


def test_batch_shares_one_class_angle_per_translation_and_slab():
    seen = []

    def profile(th):
        seen.append(th)
        return np.cos(th)

    fs = [left_translate(CentralFn(fn=profile), z) for z in (Z, Z2, Z)] + [sawtooth(4)]
    slab, _ = fourier._euler_slabs(fs, RULE.planes())
    values = list(slab(3))
    assert len(values) == 4 and len(seen) == 3
    assert np.shares_memory(seen[0], seen[2]) and not np.shares_memory(seen[0], seen[1])
    # read-only for every reader, the last one too
    assert [th.flags.writeable for th in seen] == [False, False, False]


def _mutating(th):
    th *= 2
    return np.cos(th)


def test_profile_writing_to_a_shared_angle_raises():
    writer, reader = left_translate(CentralFn(fn=_mutating), Z), left_translate(sawtooth(5), Z)
    with pytest.raises(ValueError, match="read-only"):  # the first reader
        matrix_coeffs([writer, reader], [2, 2], RULE)
    with pytest.raises(ValueError, match="read-only"):  # a single call
        matrix_coeffs(writer, 2, RULE)


def test_profile_writing_to_its_angle_last_corrupts_no_other_function():
    # the last reader gets the same read-only angle as the others, so its
    # write is refused and the angle an earlier function read stays as it was
    seen = []

    def recording(th):
        seen.append((th, th.copy()))
        return np.cos(th)

    reader = left_translate(CentralFn(fn=recording), Z)
    writer = left_translate(CentralFn(fn=_mutating), Z)
    with pytest.raises(ValueError, match="read-only"):
        matrix_coeffs([reader, writer], [2, 2], RULE)
    assert seen
    for th, before in seen:
        assert np.array_equal(th, before)
    fs = [left_translate(sawtooth(5), Z), reader]
    for got, f in zip(matrix_coeffs(fs, [2, 2], RULE), fs):
        for G, W in zip(got, matrix_coeffs(f, 2, RULE)):
            assert np.array_equal(G, W)


_FAMILIES = {
    "sawtooth": sawtooth(5),
    "sawtooth_normalized": sawtooth_normalized(5),
    "holder": holder_test_function(0.5),
    "sqrtshift": sqrt_shift_fn(),
    "char": char_fn(3),
    "const": const_fn(0.5),
    "band_limited_fn": band_limited_fn(np.array([0.3, 0.2 + 0.1j, -0.4, 0.05j])),
}


def _traced_peak(fn, th):
    tracemalloc.start()
    try:
        fn(th)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("family", _FAMILIES)
def test_family_profile_reads_a_read_only_angle_without_copying(family):
    # every slab hands its profiles a read-only class angle, or its cosine for
    # a cosine profile, so a built-in profile must neither write to its
    # variable nor copy it; from_breakpoints, whose np.interp copies a
    # read-only argument, is the one documented exception
    f = _FAMILIES[family]
    fn = f.fn
    lo, hi = (-1.0, 1.0) if f.on_cos else (0.0, np.pi)
    th = np.random.default_rng(5).uniform(lo, hi, (136, 272))
    before = th.copy()
    read_only = th.view()
    read_only.flags.writeable = False
    fn(th)  # fill any cache first
    assert _traced_peak(fn, read_only) == _traced_peak(fn, th)
    assert np.array_equal(th, before)


def test_batch_releases_each_value_array_before_the_next_function():
    returned = []

    def general(a, b):
        assert all(r() is None for r in returned), "an earlier slab value is still held"
        vals = np.real(a) * np.real(b)
        returned.append(weakref.ref(vals))
        return vals

    matrix_coeffs([general, general, general], [2, 3, 2], RULE)
    assert len(returned) == 3 * len(RULE.beta)


@pytest.mark.parametrize("cpus", [1, 2, 3, 16])
def test_modulus_split_is_bitwise_the_serial_loop(monkeypatch, cpus):
    # an angle profile and a cosine profile, translated by one z
    for f in (left_translate(sawtooth(5), Z), left_translate(holder_test_function(0.5), Z)):

        def compute():
            omega = integral_modulus(f, 0.3, sample_count=4, rule=RULE)
            prof = modulus_profile(f, 0.1, 0.5, per_decade=4, sample_count=3, rule=RULE)
            return omega, prof.omega_values

        (omega_serial, prof_serial), (omega_split, prof_split) = _serial_and_split(
            monkeypatch, cpus, compute
        )
        assert omega_split == omega_serial
        assert np.array_equal(prof_split, prof_serial)


def _serial_translate_norms(f, hs, rule):
    """The single-threaded slab loop: sq += w_beta * sum |f - f(h^{-1} .)|^2."""
    planes = rule.planes()
    slab, _ = fourier._euler_slabs([f], planes)
    norms = []
    for h in hs:
        moved, _ = fourier._euler_slabs([left_translate(f, h.inverse())], planes)
        sq = 0.0
        for ib, w in enumerate(rule.w_beta):
            [fb], [fm] = slab(ib), moved(ib)
            sq += w * np.sum(np.abs(fb - fm) ** 2)
        norms.append(float(np.sqrt(sq / (len(rule.alpha) * len(rule.gamma)))))
    return norms


@pytest.mark.parametrize("cpus", [1, 2, 3, 16])
def test_translate_norms_split_is_bitwise_the_serial_loop(monkeypatch, cpus):
    rule = haar_grid(24)
    f = left_translate(holder_test_function(0.5), Z)
    ah, bh = random_elements(np.random.default_rng(5), 4)
    hs = [GroupElement(complex(a), complex(b)) for a, b in zip(ah, bh)]
    monkeypatch.setattr(fourier, "_CPUS", cpus)
    assert _translate_norms(f, hs, rule) == _serial_translate_norms(f, hs, rule)


@pytest.mark.parametrize("split", [True, False])
@pytest.mark.parametrize("cpus", [1, 2, 3, 16])
@pytest.mark.parametrize("count", [0, 1, 2, 11])
def test_each_run_covers_the_range_in_contiguous_runs(monkeypatch, cpus, count, split):
    monkeypatch.setattr(fourier, "_CPUS", cpus)
    runs = []
    fourier._each_run(runs.append, count, split)
    assert all(isinstance(run, range) and run.step == 1 for run in runs)
    assert sorted(ib for run in runs for ib in run) == list(range(count))
    assert len(runs) == (max(1, min(cpus, count)) if split else 1)


def test_one_thread_start_per_modulus_call(monkeypatch):
    monkeypatch.setattr(fourier, "_CPUS", 2)
    starts = []

    class CountingThread(threading.Thread):
        def start(self):
            starts.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountingThread)
    integral_modulus(left_translate(sawtooth(5), Z), 0.3, sample_count=4, rule=RULE)
    assert len(starts) == 1


def test_one_thread_start_and_one_planes_call_per_divergence_point(monkeypatch):
    monkeypatch.setattr(fourier, "_CPUS", 2)
    starts, planes = [], []

    class CountingThread(threading.Thread):
        def start(self):
            starts.append(self)
            super().start()

    build = QuadratureRule.planes

    def counting_planes(rule):
        planes.append(rule)
        return build(rule)

    monkeypatch.setattr(threading, "Thread", CountingThread)
    monkeypatch.setattr(QuadratureRule, "planes", counting_planes)
    rows = divergence_table([Z, Z2], [4, 8, 16], RULE)
    assert len(rows) == 6
    assert len(starts) == 2
    assert planes == [RULE, RULE]


def test_split_under_frequent_thread_switches(monkeypatch):
    """More runs than cores, switching threads every microsecond."""
    f = left_translate(sawtooth(5), Z)
    monkeypatch.setattr(fourier, "_CPUS", 1)
    want = matrix_coeffs(f, 4, RULE)
    monkeypatch.setattr(fourier, "_CPUS", 16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        hits = [0] * 200

        def bump(run):
            for ib in run:
                hits[ib] += 1

        for _ in range(5):
            fourier._each_run(bump, len(hits), True)
            got = matrix_coeffs(f, 4, RULE)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
    finally:
        sys.setswitchinterval(interval)
    assert hits == [5] * len(hits)


def test_central_profile_runs_on_several_threads(monkeypatch):
    monkeypatch.setattr(fourier, "_CPUS", 2)
    threads = []

    def profile(th):
        threads.append(threading.get_ident())
        return np.cos(th)

    before = threading.active_count()
    matrix_coeffs(left_translate(CentralFn(fn=profile), Z), 2, RULE)
    assert len(threads) == len(RULE.beta)
    assert len(set(threads)) >= 2
    assert threading.get_ident() in threads
    assert threading.active_count() == before


def test_general_callable_runs_on_the_calling_thread_only(monkeypatch):
    monkeypatch.setattr(fourier, "_CPUS", 2)
    threads = []

    def poly(a, b):
        threads.append(threading.get_ident())
        return a * np.conj(b) + a**2

    before = threading.active_count()
    matrix_coeffs(poly, 2, RULE)
    integral_modulus(poly, 0.3, sample_count=2, rule=RULE)
    assert set(threads) == {threading.get_ident()}
    assert threading.active_count() == before


class HelperThreadError(RuntimeError):
    pass


def test_profile_raising_on_a_helper_thread_propagates(monkeypatch):
    monkeypatch.setattr(fourier, "_CPUS", 2)
    caller = threading.get_ident()

    def fn(th):
        if threading.get_ident() != caller:
            raise HelperThreadError("raised off the calling thread")
        return np.cos(th)

    before = threading.active_count()
    with pytest.raises(HelperThreadError, match="off the calling thread"):
        matrix_coeffs(left_translate(CentralFn(fn=fn), Z), 2, RULE)
    assert threading.active_count() == before


def test_each_run_raises_the_lowest_failing_run(monkeypatch):
    monkeypatch.setattr(fourier, "_CPUS", 3)  # runs [0..3], [4..7], [8..10]
    # runs 1 and 2 fail; then runs 0 and 2, where the calling thread's own
    # exception leaves while the pool still joins run 2
    for failing, first in [((5, 9), 5), ((2, 9), 2)]:

        def work(run):
            for ib in run:
                if ib in failing:
                    raise ValueError(f"slab {ib}")

        before = threading.active_count()
        with pytest.raises(ValueError, match=f"slab {first}$"):
            fourier._each_run(work, 11, True)
        assert threading.active_count() == before


USABLE = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.parametrize(
    "environ, cpus",
    [
        ({}, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, USABLE),
        ({"OPENBLAS_NUM_THREADS": " 1 "}, USABLE),
        ({"OPENBLAS_NUM_THREADS": "2"}, 1),
        ({"GOTO_NUM_THREADS": "1"}, USABLE),
        ({"OMP_NUM_THREADS": "1"}, USABLE),
        ({"OMP_NUM_THREADS": "1,4"}, USABLE),
        ({"OMP_NUM_THREADS": "4,1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, USABLE),
        ({"OPENBLAS_NUM_THREADS": "one", "OMP_NUM_THREADS": "2"}, 1),
        ({"MKL_NUM_THREADS": "1"}, 1),
    ],
)
def test_split_uses_every_cpu_only_when_blas_has_one_thread(environ, cpus):
    assert fourier._split_cpus(environ) == cpus


@pytest.mark.parametrize("blas", [None, "1", "2"])
def test_split_cpus_are_read_from_the_environment_at_import(blas):
    env = {k: v for k, v in os.environ.items() if k not in fourier._BLAS_THREAD_VARS}
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    src = os.path.dirname(os.path.dirname(os.path.abspath(su2fourier.__file__)))
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from su2fourier import fourier\n"
        "print(fourier._CPUS)\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, src], capture_output=True, text=True, check=True,
        env=env,
    ).stdout.split()
    assert out == [str(USABLE if blas == "1" else 1)]


def test_band_limited_profile_runs_on_the_calling_thread_only(monkeypatch):
    monkeypatch.setattr(fourier, "_CPUS", 2)
    band = band_limited_fn(np.array([0.3, 0.2 + 0.1j, -0.4, 0.05j]))
    threads = []
    fn = band.fn

    def profile(th):
        threads.append(threading.get_ident())
        return fn(th)

    band.fn = profile
    f = left_translate(band, Z)
    assert not fourier._euler_slabs([f], RULE.planes())[1]
    matrix_coeffs(f, 2, RULE)
    integral_modulus(f, 0.3, sample_count=2, rule=RULE)
    assert len(threads) > len(RULE.beta)
    assert set(threads) == {threading.get_ident()}


def test_traced_band_limited_translate_nests_its_spans(monkeypatch):
    """The benchmark's tracer keeps one span stack; char_table spans must nest."""
    monkeypatch.setattr(fourier, "_CPUS", 2)
    rule = haar_grid(64)  # slabs long enough for two threads to overlap
    f = left_translate(band_limited_fn(np.array([0.3, 0.2 + 0.1j, -0.4, 0.05j])), Z)
    tracer = _load_spans().Tracer(su2fourier)
    interval = sys.getswitchinterval()
    tracer.install()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            tracer.root("pass", lambda: su2fourier.fourier.matrix_coeffs(f, 4, rule))
    finally:
        sys.setswitchinterval(interval)
        tracer.remove()
    assert tracer.stack == []
    names = [span[0] for span in tracer.spans]
    assert names.count("representations.char_table") == 3 * len(rule.beta)
    for name, start, end, parent, _ in tracer.spans:
        if name == "representations.char_table":
            assert names[parent] == "fourier.matrix_coeffs"
        if parent >= 0:
            assert tracer.spans[parent][1] <= start <= end <= tracer.spans[parent][2]


def test_import_starts_no_thread_and_no_executor():
    src = os.path.dirname(os.path.dirname(os.path.abspath(su2fourier.__file__)))
    code = (
        "import sys, threading\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import su2fourier\n"
        "print(threading.active_count(), 'concurrent.futures' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, src], capture_output=True, text=True, check=True
    ).stdout.split()
    assert out == ["1", "False"]


def test_only_a_split_call_loads_the_executor():
    src = os.path.dirname(os.path.dirname(os.path.abspath(su2fourier.__file__)))
    code = (
        "import sys, threading\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import numpy as np\n"
        "from su2fourier import fourier, group\n"
        "from su2fourier.divergence import sawtooth\n"
        "rule = group.haar_grid(2)\n"
        "fourier._CPUS = 2\n"
        "fourier.matrix_coeffs(lambda a, b: np.real(a * b), 2, rule)\n"  # never splits
        "print('concurrent.futures' in sys.modules)\n"
        "before = threading.active_count()\n"
        "fourier.matrix_coeffs(sawtooth(5), 2, rule)\n"  # splits across two runs
        "print('concurrent.futures' in sys.modules, threading.active_count() == before)\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, src], capture_output=True, text=True, check=True
    ).stdout.split()
    assert out == ["False", "True", "True"]

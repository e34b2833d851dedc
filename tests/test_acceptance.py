"""Acceptance suite: every criterion at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import json
import time

import numpy as np

from su2fourier.group import haar_grid, random_elements, weyl_grid, GroupElement
from su2fourier.representations import char_table, repr_matrices
from su2fourier.fourier import (
    dirichlet_closed,
    lebesgue_constant,
    partial_sum_central,
)
from su2fourier.divergence import (
    divergence_table,
    holder_bound,
    partial_sum_at_identity,
    sawtooth,
    sawtooth_normalized,
    verify_chain,
)
from su2fourier.convergence import (
    dini_integral,
    holder_test_function,
    jackson_ratio,
    log_weighted_block_sum,
    modulus_profile,
)
from su2fourier.cli import run

from helpers import haar_weights
from holder_quotients import holder_quotient_estimate


def _report(tag: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"[{tag}] {status}: {detail} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert ok, f"{tag}: {detail}"
    assert elapsed < budget, f"{tag}: runtime {elapsed:.1f}s over budget {budget}s"


def test_criterion_1_kernel_identity():
    t0 = time.time()
    th = np.linspace(1e-3, np.pi - 1e-3, 2000)
    table = char_table(200, th)
    direct = np.cumsum((np.arange(201)[:, None] + 1.0) * table, axis=0)
    worst_ratio = 0.0
    for N in range(201):
        err = float(np.abs(direct[N] - dirichlet_closed(N, th)).max())
        worst_ratio = max(worst_ratio, err / (1e-8 * (N + 1) ** 3))
    _report(
        "C1 kernel-identity",
        worst_ratio <= 1.0,
        f"max |direct-closed| / bound = {worst_ratio:.3e} over N<=200",
        time.time() - t0,
        10,
    )


def test_criterion_2_orthogonality():
    t0 = time.time()
    rule = weyl_grid(110)
    table = char_table(50, rule.nodes)
    gram = (table * rule.weights) @ table.T
    char_err = float(np.abs(gram - np.eye(51)).max())

    hrule = haar_grid(16)
    a, b = hrule.element_arrays()
    cols = []
    for n, Pi in enumerate(repr_matrices(6, a, b)):
        cols.extend(np.sqrt(n + 1) * Pi[:, i, j] for i in range(n + 1) for j in range(n + 1))
    E = np.stack(cols, axis=1)
    schur_err = float(np.abs((E * haar_weights(hrule)[:, None]).conj().T @ E - np.eye(E.shape[1])).max())
    _report(
        "C2 orthogonality",
        char_err <= 1e-11 and schur_err <= 1e-8,
        f"character gram err {char_err:.2e} (tol 1e-11), Schur err {schur_err:.2e} (tol 1e-8)",
        time.time() - t0,
        60,
    )


def test_criterion_3_lebesgue():
    t0 = time.time()
    exact0 = 1 / 3 + 2 * np.sqrt(3) / np.pi
    base_err = abs(lebesgue_constant(0) - exact0)
    gaps = [lebesgue_constant(n) - 4 / np.pi**2 * np.log(n + 1) for n in (100, 1000, 10_000)]
    in_window = all(1.0 <= g <= 1.5 for g in gaps)
    shrinking = gaps[0] > gaps[1] > gaps[2]
    _report(
        "C3 lebesgue",
        base_err <= 1e-12 and in_window and shrinking,
        f"n=0 err {base_err:.1e}, gaps {['%.6f' % g for g in gaps]}",
        time.time() - t0,
        30,
    )


def test_criterion_4_chain():
    t0 = time.time()
    ns = list(range(2, 65)) + [128, 256, 512, 1024]
    worst_margin = np.inf
    worst_identity = 0.0
    floors_ok = True
    for n in ns:
        rep = verify_chain(n)
        worst_margin = min(worst_margin, rep.min_margin)
        worst_identity = max(worst_identity, rep.identity_error)
        floors_ok = floors_ok and (rep.dirichlet_value >= rep.dirichlet_floor)
    _report(
        "C4 chain",
        worst_margin >= -1e-8 and worst_identity <= 1e-10 and floors_ok,
        f"min margin {worst_margin:.3e} (tol -1e-8), identity err {worst_identity:.2e}, "
        f"kernel floor holds: {floors_ok}",
        time.time() - t0,
        60,
    )


def test_criterion_5_divergence_growth():
    t0 = time.time()
    growth_ok = True
    worst_rel = 0.0
    details = []
    for n in (100, 200, 400, 800):
        exact = partial_sum_at_identity(n)
        split = verify_chain(n)
        rel = abs(split.value - exact) / abs(exact)
        worst_rel = max(worst_rel, rel)
        growth_ok = growth_ok and (abs(exact) >= 0.5 * n)
        details.append(f"n={n}: |S|={abs(exact):.1f}")
    _report(
        "C5 divergence-growth",
        growth_ok and worst_rel <= 1e-6,
        f"{'; '.join(details)}; split-vs-coefficient rel err {worst_rel:.2e}",
        time.time() - t0,
        120,
    )


def test_criterion_6_holder_uniformity():
    # Uniformity holds for the slope-normalized witness family, which is what
    # the interpolation bound (pi/2)^a (2pi/(2n+3))^(1-a) actually controls;
    # the unit-amplitude family provably exceeds pi (adjacent breakpoint
    # classes at distance 2 sin(pi/(2n+3)) carry a value gap of 2), which is
    # asserted alongside.  See the divergence module docstring.
    t0 = time.time()
    ns = np.arange(2, 1025)
    alphas = np.round(np.arange(0.1, 0.95, 0.1), 2)
    bound_ok = all(np.all(holder_bound(ns, a) <= np.pi) for a in alphas)
    worst_quotient = 0.0
    sharp_ok = True
    for n in (2, 5, 17, 64, 256, 1024):
        f = sawtooth_normalized(n)
        for a in alphas:
            q = holder_quotient_estimate(f, float(a), sample_count=100_000 // len(alphas), seed=n)
            worst_quotient = max(worst_quotient, q)
            sharp_ok = sharp_ok and q <= float(holder_bound(n, float(a))) + 1e-9
    # the unnormalized family really does break the pi bound (n=17, alpha=.5)
    M = 2 * 17 + 3
    unnormalized = 2 / (2 * np.sin(np.pi / M)) ** 0.5
    _report(
        "C6 holder-uniformity",
        bound_ok and sharp_ok and worst_quotient <= np.pi + 1e-9 and unnormalized > np.pi,
        f"analytic bound <= pi: {bound_ok}; worst normalized quotient {worst_quotient:.4f} "
        f"(<= bound per (n, alpha): {sharp_ok}); unit-amplitude counterexample "
        f"{unnormalized:.2f} > pi confirmed",
        time.time() - t0,
        60,
    )


def test_criterion_7_translation_identity():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    a, b = random_elements(rng, 5)
    points = [GroupElement(complex(x), complex(y)) for x, y in zip(a, b)]
    rows = divergence_table(points, [4, 8, 16], haar_grid(128))
    worst = max(r.rel_gap for r in rows)
    _report(
        "C7 translation-identity",
        worst < 1e-4,
        f"worst rel gap {worst:.3e} over 5 points x n in (4, 8, 16) (tol 1e-4)",
        time.time() - t0,
        600,
    )


def test_criterion_8_hypothesis_chain():
    t0 = time.time()
    ok = True
    details = []
    for alpha in (0.3, 0.5, 0.8):
        f = holder_test_function(alpha)
        prof = modulus_profile(f, 1e-4)
        dini_inc = dini_integral(prof, 1e-4) - dini_integral(prof, 1e-3)
        coeffs = f.coeffs(4096)
        rm_inc = log_weighted_block_sum(coeffs, 2**12) - log_weighted_block_sum(coeffs, 2**10)
        ratios = [jackson_ratio(f, k).ratio for k in range(1, 7)]
        recorded = max(ratios)
        ok = ok and dini_inc < 1e-3 and 0 <= rm_inc < 1e-6 and np.isfinite(recorded)
        details.append(
            f"a={alpha}: dini_inc {dini_inc:.1e}, rm_inc {rm_inc:.1e}, jackson<= {recorded:.3f}"
        )
    _report("C8 hypothesis-chain", ok, "; ".join(details), time.time() - t0, 600)


def test_criterion_9_spherical_polyhedral():
    t0 = time.time()
    th = np.linspace(0, np.pi, 257)
    fns = [sawtooth(9), sawtooth(40)]
    from su2fourier.fourier import band_limited_fn

    rng = np.random.default_rng(9)
    fns.append(band_limited_fn(rng.normal(size=66)))
    exact = True
    for f in fns:
        for N in range(1, 65):
            sph = partial_sum_central(f, N, "spherical", th)
            pol = partial_sum_central(f, N + 1, "polyhedral", th)
            exact = exact and np.array_equal(sph, pol)
    _report(
        "C9 spherical-shift",
        exact,
        "spherical sum at N identical (bitwise) to polyhedral at N+1, N <= 64",
        time.time() - t0,
        1,
    )


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    same = True
    for fmt in ("csv", "json"):
        argv = [
            "diverge", "--points", "random:2", "--n", "4,8", "--order", "48",
            "--seed", "5", "--format", fmt,
        ]
        texts = []
        for name in ("one", "two"):
            out = tmp_path / f"{name}.{fmt}"
            assert run(argv + ["--output", str(out)]) == 0
            texts.append(out.read_text())
        if fmt == "csv":
            payloads = ["\n".join(l for l in t.splitlines() if not l.startswith("#")) for t in texts]
        else:
            payloads = [json.dumps(json.loads(t)["rows"]) for t in texts]
        same = same and payloads[0] == payloads[1]
    _report(
        "C10 determinism",
        same,
        "payload regions byte-identical across reruns (csv and json)",
        time.time() - t0,
        600,
    )

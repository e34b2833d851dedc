"""The four benchmark workloads.

Each workload is a closed loop with one client: a pass runs a fixed task
list back to back, and the next pass starts when the last task returns.
``setup`` draws every input from the seed and builds the rules the passes
reuse; ``references`` computes the expected values with ``reference`` (never
with su2fourier) outside every timed region; ``tasks(k)`` lists the calls of
pass k as (label, zero-argument callable); ``check`` turns a task's result
into (relative error, within tolerance).

Tolerances are the ones the test suite applies to the same quantity, named
beside each constant.
"""

from __future__ import annotations

import json
import os

import numpy as np

import reference as ref


def haar_points(rng: np.random.Generator, count: int):
    """Haar-uniform (a, b) pairs: normalised Gaussian quaternions."""
    v = rng.normal(size=(4, count))
    v /= np.linalg.norm(v, axis=0)
    return list(zip(v[0] + 1j * v[1], v[2] + 1j * v[3]))


def max_rel(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.abs(want)))


# --------------------------------------------------------------------------
# central-1d: the nine central CLI subcommands, in process
# --------------------------------------------------------------------------

class Central1D:
    """Every 1D experiment of the paper through ``su2fourier.cli.run``.

    No Haar rule or representation matrix is touched, so a 3D optimisation
    predicts no change here.  The cold ``CentralFn.coeffs(4096)`` quadratures
    and ``lebesgue_constant(1e5)`` carry most of a pass.
    """

    name = "central-1d"
    LEBESGUE_N = [1, 10, 100, 1000, 10_000, 100_000]
    CHAIN_N = range(2, 257)
    TOL_KERNEL = 1e-8  # x (N+1)^3, test_criterion_1_kernel_identity
    TOL_LEBESGUE = 1e-10  # the suite pins n=0 to 1e-12; n=1e5 reaches 4e-12
    TOL_CHAIN_MARGIN = 1e-8  # test_criterion_4_chain
    TOL_CHAIN_IDENTITY = 1e-10  # test_criterion_4_chain
    TOL_CHAIN_VALUE = 1e-6  # split vs coefficient path, test_criterion_5
    TOL_PARTIAL_SUM = 1e-6  # test_partial_sum_convolution_oracle
    TOL_MODULUS = 1e-3  # test_central_translate_norm_matches_quadrature
    TOL_DINI = 1e-4  # test_dini_power_profile_closed_form
    TOL_JACKSON = 1e-6  # test_jackson_scale_invariance
    TOL_RM_SUM = 1e-12  # test_rm_sum_convergent_reference_sequence
    TOL_UNIFORM = 1e-10  # absolute, test_uniform_error_band_limited_zero
    COEFF_LIMIT = 4096  # convergence.DEFAULT_COEFF_LIMIT, used by the CLI

    def __init__(self, sf, seed, workdir, tracer=None):
        self.sf, self.seed, self.workdir = sf, seed, workdir

    def setup(self):
        lebesgue = ",".join(str(n) for n in self.LEBESGUE_N)
        chain = f"{self.CHAIN_N.start}..{self.CHAIN_N.stop - 1}"
        calls = [
            ("kernel-check", ["kernel-check"]),
            ("lebesgue", ["lebesgue", "--n", lebesgue]),
            ("chain", ["chain", "--n", chain]),
            ("partial-sum:sawtooth:7:polyhedral", ["partial-sum", "--fn", "sawtooth:7", "--n", "12"]),
            ("partial-sum:sawtooth:7:spherical",
             ["partial-sum", "--fn", "sawtooth:7", "--n", "12", "--mode", "spherical"]),
            ("partial-sum:holder:0.5:polyhedral", ["partial-sum", "--fn", "holder:0.5", "--n", "512"]),
            ("modulus", ["modulus", "--fn", "sqrtshift"]),
            ("dini", ["dini", "--fn", "holder:0.5"]),
            ("jackson", ["jackson", "--fn", "sawtooth:9"]),
            ("rm-sum", ["rm-sum", "--fn", "holder:0.3"]),
            ("uniform-central", ["uniform-central"]),
        ]
        self.calls = []
        for i, (label, argv) in enumerate(calls):
            path = os.path.join(self.workdir, f"{i:02d}-{argv[0]}.json")
            argv = argv + ["--format", "json", "--seed", str(self.seed), "--output", path]
            self.calls.append((label, argv, path))

    def tasks(self, k):
        return [(label, lambda argv=argv: self.sf.cli.run(argv)) for label, argv, _ in self.calls]

    def references(self):
        r = {}
        r["lebesgue"] = {n: ref.lebesgue_fejer(n + 1) for n in self.LEBESGUE_N}
        r["chain"] = {
            n: (ref.dirichlet_at_first_node(n), ref.witness_value_at_identity(n)) for n in self.CHAIN_N
        }
        for spec, N, mode in (("sawtooth:7", 12, "polyhedral"), ("sawtooth:7", 12, "spherical"),
                              ("holder:0.5", 512, "polyhedral")):
            profile, coeffs = ref.central_fn(spec)
            members = ref.truncation_members(mode, N)
            theta = np.linspace(0.0, np.pi, 41)  # the CLI's default --grid
            r[f"partial-sum:{spec}:{mode}"] = (
                theta,
                ref.partial_sum(coeffs(int(members.max())), members, theta),
                float(np.max(np.abs(profile(theta)))),
            )
        sqrt_c = ref.sqrt_shift_coeffs(self.COEFF_LIMIT)
        r["modulus"] = sqrt_c
        r["dini"] = ref.holder_coeffs(0.5, self.COEFF_LIMIT)
        profile = ref.sawtooth_profile(9)
        r["jackson"] = (ref.piecewise_linear_coeffs(*profile, self.COEFF_LIMIT),
                        ref.piecewise_linear_norm_sq(*profile))
        r["rm-sum"] = ref.holder_coeffs(0.3, self.COEFF_LIMIT)
        theta = np.linspace(0.3, np.pi - 0.3, 2000)  # the CLI's --delta and --grid defaults
        r["uniform-central"] = {
            N: float(np.max(np.abs(ref.partial_sum(sqrt_c, np.arange(N + 1), theta)
                                   - np.sqrt(np.abs(theta - np.pi / 2)))))
            for N in (64, 128, 256)
        }
        self.refs = r

    def check(self, label, rc):
        """(relative error, ok) of one CLI call; exit code != 0 raises."""
        if rc != 0:
            raise RuntimeError(f"{label}: exit code {rc}")
        path = next(p for lab, _, p in self.calls if lab == label)
        with open(path, encoding="utf-8") as fh:
            rows = json.load(fh)["rows"]
        kind = label.split(":", 1)[0]
        return getattr(self, "_check_" + kind.replace("-", "_"))(label, rows)

    def _check_kernel_check(self, label, rows):
        # the CLI reports max |direct - closed| per N; the suite bounds it by
        # 1e-8 (N+1)^3 and the scale of D_N is D_N(0) = sum (n+1)^2
        if len(rows) != 201:
            raise RuntimeError("kernel-check: expected N = 0..200")
        worst = max(r["max_abs_err"] / (self.TOL_KERNEL * (r["N"] + 1) ** 3) for r in rows)
        rel = max(r["max_abs_err"] / sum((n + 1) ** 2 for n in range(r["N"] + 1)) for r in rows)
        return rel, worst <= 1.0

    def _check_lebesgue(self, label, rows):
        want = self.refs["lebesgue"]
        got = {r["n"]: r["l1_norm"] for r in rows}
        if sorted(got) != sorted(want):
            raise RuntimeError("lebesgue: wrong n")
        err = max_rel([got[n] for n in want], list(want.values()))
        return err, err <= self.TOL_LEBESGUE

    def _check_chain(self, label, rows):
        want = self.refs["chain"]
        if [r["n"] for r in rows] != list(want):
            raise RuntimeError("chain: wrong n")
        margin = min(r["min_margin"] for r in rows)
        identity = max(r["identity_error"] for r in rows)
        d_err = max_rel([r["dirichlet_value"] for r in rows], [w[0] for w in want.values()])
        v_err = max_rel([r["value"] for r in rows], [w[1] for w in want.values()])
        err = max(d_err, v_err)
        ok = margin >= -self.TOL_CHAIN_MARGIN and identity <= self.TOL_CHAIN_IDENTITY
        return err, ok and err <= self.TOL_CHAIN_VALUE

    def _check_partial_sum(self, label, rows):
        theta, want, scale = self.refs[label]
        got = np.array([r["partial_sum"] for r in rows])
        if not np.allclose([r["theta"] for r in rows], theta, rtol=0, atol=1e-15):
            raise RuntimeError(f"{label}: wrong grid")
        err = float(np.max(np.abs(got - want)) / scale)
        return err, err <= self.TOL_PARTIAL_SUM

    def _omega(self, coeffs, t):
        # running supremum over the nested radii, as modulus_profile defines it
        return np.maximum.accumulate(ref.translate_norm(coeffs, t))

    def _check_modulus(self, label, rows):
        t = np.array([r["t"] for r in rows])[::-1]
        want = self._omega(self.refs["modulus"], t)
        err = max_rel(np.array([r["omega"] for r in rows])[::-1], want)
        return err, err <= self.TOL_MODULUS

    def _check_dini(self, label, rows):
        # profile grid of the CLI defaults: 16 points per decade from 1e-4 to 1
        t = np.geomspace(1e-4, 1.0, 65)
        y = self._omega(self.refs["dini"], t) ** 2
        s = np.log(t)
        want = []
        for r in rows:
            keep = s >= np.log(r["t_min"]) - 1e-9
            want.append(np.trapezoid(y[keep], s[keep]))
        err = max_rel([r["integral"] for r in rows], want)
        return err, err <= self.TOL_DINI

    def _check_jackson(self, label, rows):
        c, norm_sq = self.refs["jackson"]
        errs = []
        for r in rows:
            M, t = 2 ** r["k"], 2.0 ** -r["k"]
            best = np.sqrt(norm_sq - np.sum(c[: M + 1] ** 2))
            omega = ref.translate_norm(c, t * np.array([1.0, 0.5, 0.25])).max()
            errs.append(max_rel([r["best_approx"], r["modulus"], r["ratio"]], [best, omega, best / omega]))
        return max(errs), max(errs) <= self.TOL_JACKSON

    def _check_rm_sum(self, label, rows):
        c = self.refs["rm-sum"]
        want = [np.sum(np.log(np.arange(2, r["J"] + 1)) * c[2 : r["J"] + 1] ** 2) for r in rows]
        err = max_rel([r["value"] for r in rows], want)
        return err, err <= self.TOL_RM_SUM

    def _check_uniform_central(self, label, rows):
        want = self.refs["uniform-central"]
        abs_err = max(abs(r["max_err"] - want[r["N"]]) for r in rows)
        rel = max(abs(r["max_err"] - want[r["N"]]) / want[r["N"]] for r in rows)
        return rel, abs_err <= self.TOL_UNIFORM


# --------------------------------------------------------------------------
# the 3D workloads: pass k draws its inputs from set k mod INPUT_SETS
# --------------------------------------------------------------------------

INPUT_SETS = 32  # drawn in set-up, more than any run makes passes; all cost the same


class Witness3D:
    """The default ``diverge`` experiment: ``divergence_table`` of translated
    sawtooth witnesses at 3 seeded Haar points, n in {4, 8, 16}, on
    ``haar_grid(128)`` (5.36 M nodes), streamed in alpha slabs."""

    name = "witness-3d"
    POINTS = 3
    N_LIST = (4, 8, 16)
    ORDER = 128
    TOL = 1e-4  # rel_gap, test_criterion_7_translation_identity

    def __init__(self, sf, seed, workdir, tracer=None):
        self.sf, self.seed = sf, seed

    def setup(self):
        rng = np.random.default_rng(self.seed)
        G = self.sf.group.GroupElement
        self.point_sets = [[G(complex(a), complex(b)) for a, b in haar_points(rng, self.POINTS)]
                           for _ in range(INPUT_SETS)]
        self.rule = self.sf.group.haar_grid(self.ORDER)

    def references(self):
        self.refs = {n: abs(ref.witness_value_at_identity(n)) for n in self.N_LIST}

    def tasks(self, k):
        points = self.point_sets[k % INPUT_SETS]
        return [(f"set{k % INPUT_SETS}:point{i}",
                 lambda z=z: self.sf.divergence.divergence_table([z], self.N_LIST, self.rule))
                for i, z in enumerate(points)]

    def check(self, label, rows):
        if [r.n for r in rows] != list(self.N_LIST):
            raise RuntimeError(f"{label}: wrong n")
        err = max_rel([r.general_abs for r in rows], [self.refs[r.n] for r in rows])
        gap = max(r.rel_gap for r in rows)  # the program's own gap column
        return err, err < self.TOL and gap < self.TOL


class HighDegree:
    """``partial_sum_general`` of a polynomial of total degree N in
    (a, b, conj a, conj b) at a seeded Haar point, on ``haar_grid(2N+8)``.

    The polyhedral sum of order N reproduces such a polynomial exactly; the
    error is normalised by its exact L^2 norm.  The monomials are fixed, so
    evaluating the input costs the same for every seed; the seed draws their
    complex weights and the point.  Degrees stop at 40 because the
    binomial-sum kernel is capped at 64 and loses digits well before.
    """

    name = "high-degree"
    DEGREES = (32, 40)
    TOL = 1e-7  # test_partial_sum_general_reproduces_matrix_coefficient

    def __init__(self, sf, seed, workdir, tracer=None):
        self.sf, self.seed, self.tracer = sf, seed, tracer

    @staticmethod
    def exponents(N):
        """Four non-central monomials a^p b^q conj(a)^r conj(b)^s, p+q+r+s = N."""
        h, t, f = N // 2, N // 3, N // 4
        return [(h, N - h, 0, 0), (0, f, h, N - f - h), (t, 0, N - 2 * t, t), (f, f, f, N - 3 * f)]

    def _input(self, poly):
        if self.tracer is None:
            return poly
        return lambda a, b: self.tracer.span("bench.input_eval", poly, a, b)

    def setup(self):
        rng = np.random.default_rng(self.seed)
        G = self.sf.group.GroupElement
        self.sets = []
        for _ in range(INPUT_SETS):
            (a, b), = haar_points(rng, 1)
            polys = {N: ref.Polynomial(self.exponents(N), rng.normal(size=4) + 1j * rng.normal(size=4))
                     for N in self.DEGREES}
            self.sets.append((G(complex(a), complex(b)), polys, {N: self._input(p) for N, p in polys.items()}))
        self.rules = {N: self.sf.group.haar_grid(2 * N + 8) for N in self.DEGREES}

    def references(self):
        self.refs = {}
        for i, (x, polys, _) in enumerate(self.sets):
            for N, p in polys.items():
                self.refs[f"set{i}:N={N}"] = (complex(p(x.a, x.b)), p.norm)

    def tasks(self, k):
        x, _, inputs = self.sets[k % INPUT_SETS]
        return [(f"set{k % INPUT_SETS}:N={N}", lambda N=N: self.sf.fourier.partial_sum_general(
                    inputs[N], N, "polyhedral", x, self.rules[N]))
                for N in self.DEGREES]

    def check(self, label, got):
        value, norm = self.refs[label]
        err = abs(got - value) / norm
        return err, err <= self.TOL


class Modulus3D:
    """``integral_modulus`` of ``sawtooth(5)`` and ``holder_test_function(0.5)``
    left-translated by a seeded z, at t = 0.5 on the materialised
    ``haar_grid(64)``: one full pass over the nodes per sampled direction, no
    transform and no representation kernel.

    Translation does not change the modulus (Haar bi-invariance), so the
    exact central form of the untranslated function is the reference.
    """

    name = "modulus-3d"
    ORDER = 64
    T = 0.5
    DIRECTIONS = 3  # per radius stratum {t, t/2, t/4}
    COEFF_LIMIT = 4096
    TOL = 0.02  # test_modulus_invariant_under_translation

    def __init__(self, sf, seed, workdir, tracer=None):
        self.sf, self.seed = sf, seed

    def setup(self):
        sf = self.sf
        self.rule = None  # free the previous set-up's nodes first
        rng = np.random.default_rng(self.seed)
        functions = {"sawtooth:5": sf.divergence.sawtooth(5),
                     "holder:0.5": sf.convergence.holder_test_function(0.5)}
        self.sets = []
        for _ in range(INPUT_SETS):
            (a, b), = haar_points(rng, 1)
            z = sf.group.GroupElement(complex(a), complex(b))
            direction_seed = int(rng.integers(2**31))
            self.sets.append((direction_seed, {spec: sf.fourier.left_translate(f, z)
                                               for spec, f in functions.items()}))
        self.rule = sf.group.haar_grid(self.ORDER)
        self.rule.element_arrays()

    def references(self):
        radii = self.T * np.array([1.0, 0.5, 0.25])
        self.refs = {
            spec: float(np.max(ref.translate_norm(ref.central_fn(spec)[1](self.COEFF_LIMIT), radii)))
            for spec in self.sets[0][1]
        }

    def tasks(self, k):
        direction_seed, inputs = self.sets[k % INPUT_SETS]
        return [(f"set{k % INPUT_SETS}:{spec}", lambda f=f: self.sf.convergence.integral_modulus(
                    f, self.T, sample_count=self.DIRECTIONS, seed=direction_seed, rule=self.rule))
                for spec, f in inputs.items()]

    def check(self, label, got):
        want = self.refs[label.split(":", 1)[1]]
        err = abs(got - want) / want
        return err, err <= self.TOL


WORKLOADS = {w.name: w for w in (Central1D, Witness3D, HighDegree, Modulus3D)}

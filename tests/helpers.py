"""Group samples, the Haar rule's flat weights, the Euler phase frequencies,
the translate difference, quadrature coefficients, the gathered matrix
coefficient transform, the per-n divergence rows, the classical Dirichlet
kernel, the Gauss-cell split of the witness chain, the per-n Lebesgue constant
and chain report, and the benchmark modules, shared by the test suites."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from su2fourier.divergence import (
    ChainReport,
    DivergenceRow,
    _witness_moments,
    holder_bound,
    partial_sum_at_identity,
    sawtooth,
    sawtooth_breakpoints,
)
from su2fourier.fourier import (
    CentralFn,
    _euler_slabs,
    left_translate,
    partial_sum_general,
)
from su2fourier.group import GroupElement, gauss_panels, random_elements
from su2fourier.representations import char_table, pole_safe, repr_matrices


def random_element(rng):
    a, b = random_elements(rng, 1)
    return GroupElement(complex(a[0]), complex(b[0]))


def haar_weights(rule):
    """The Euler rule's weights flattened in (alpha, beta, gamma) C order.

    The oracle beside ``rule.element_arrays()``: np.dot(haar_weights(rule),
    values) integrates values given on those flat arrays.
    """
    na, nb, ng = len(rule.alpha), len(rule.beta), len(rule.gamma)
    return np.broadcast_to(rule.w_beta[None, :, None] / (na * ng), (na, nb, ng)).ravel()


def euler_diag_freqs(n: int) -> np.ndarray:
    """Frequencies (n - 2p) of the diagonal Euler phase factors, p = 0..n."""
    return n - 2 * np.arange(n + 1)


def gather_matrix_coeffs(f, n_max, rule):
    """F_0..F_{n_max} from the full (beta, mu, nu) store by gathered blocks.

    The oracle beside ``matrix_coeffs``: the same slabs and slab products,
    run serially, every frequency pair of each slab stored, and each
    degree's (beta, q, p) block copied out with fancy indexing before the
    same beta sum.
    """
    freqs = np.arange(-n_max, n_max + 1)
    Ea = np.exp(-0.5j * np.outer(freqs, rule.alpha)) / len(rule.alpha)
    Eg = np.exp(-0.5j * np.outer(rule.gamma, freqs)) / len(rule.gamma)
    planes = rule.planes()
    slab, _ = _euler_slabs([f], planes)
    Y = np.empty((len(rule.beta), 2 * n_max + 1, 2 * n_max + 1), dtype=complex)
    for ib in range(len(rule.beta)):
        [vals] = slab(ib)
        if np.iscomplexobj(vals):
            Y[ib] = Ea @ (vals @ Eg)
        else:
            Y[ib] = Ea @ (vals @ Eg.view(float)).view(complex)
    out = []
    for k, d in enumerate(repr_matrices(n_max, planes[0], planes[1])):
        idx = euler_diag_freqs(k) + n_max
        out.append(np.einsum("b,bqp,bqp->pq", rule.w_beta, d, Y[:, idx][:, :, idx]))
    return out


def divergence_rows(points, n_list, rule):
    """The oracle beside ``divergence_table``: one ``partial_sum_general`` call
    per point and n, each with its own witness and exact value."""
    rows = []
    for z in points:
        zi = z.inverse()
        for n in n_list:
            exact = partial_sum_at_identity(n)
            f = left_translate(sawtooth(n), zi)
            general = partial_sum_general(f, n, "polyhedral", z, rule)
            rows.append(DivergenceRow(
                z=z,
                n=n,
                general_abs=abs(general),
                central_abs=abs(exact),
                rel_gap=float(abs(general - exact) / abs(exact)),
                growth=abs(exact) / n,
            ))
    return rows


def delta_translate(f, h: GroupElement):
    """x -> f(x) - f(h^{-1} x) as a batch callable on (a, b) arrays.

    The oracle beside ``convergence.translate_norm_quadrature``, evaluated on
    the rule's flat element arrays.
    """
    fg = f.on_group if isinstance(f, CentralFn) else f
    translated = left_translate(f, h.inverse())
    return lambda a, b: fg(a, b) - translated(a, b)


def quadrature_coeffs(f, n_max, rule):
    """c_0..c_{n_max} of the profile f by the Weyl rule ``rule``.

    The oracle beside the exact ``CentralFn.coeffs``: c_n = sum_j w_j
    f(theta_j) chi_n(theta_j), one ``char_table`` row per index, with the
    nodes in chunks of 1024 to bound the table.
    """
    g = f(rule.nodes) * rule.weights
    return sum(char_table(n_max, rule.nodes[lo : lo + 1024]) @ g[lo : lo + 1024]
               for lo in range(0, len(g), 1024))


def classical_dirichlet(n, t):
    """D_n(t) = sin((2n+1)t/2)/sin(t/2), the classical Dirichlet kernel.

    The oracle of the divergence tests: inside |sin(t/2)| < 1e-4 it is the
    cosine sum 1 + 2 sum_{j<=n} cos(jt), added by a plain loop over j.
    """

    def cosine_sum(tt, m):
        tp = tt[m]
        acc = np.ones_like(tp)
        for j in range(1, n + 1):
            acc += 2 * np.cos(j * tp)
        return acc

    return pole_safe(
        t,
        lambda tt: np.sin(tt / 2),
        lambda tt, s, m: np.sin((2 * n + 1) * tt[m] / 2) / s[m],
        cosine_sum,
    )


def gauss_chain_split(n, nodes_per_cell=8):
    """(cells, oscillatory, bounded) of the witness split by Gauss cells.

    The oracle beside the closed forms of ``verify_chain``: ``nodes_per_cell``
    Gauss nodes on each breakpoint cell of g_n.  cells[k] integrates
    g_n cos((n+3/2) theta) cos(theta/2) over cell k (k = n+1 is the tail);
    the oscillatory term is (M/pi) times their sum, and the bounded term
    (1/pi) int g_n cos^2(theta/2) D_{n+1} d(theta).  With 8 nodes a cell is
    within 5e-14 of its exact integral for n = 2..256 (the worst at n = 2).
    """
    M = 2 * n + 3
    th, va = sawtooth_breakpoints(n)
    tt, ww = gauss_panels(th, nodes_per_cell)
    g = np.interp(tt, th, va)
    h = np.cos((n + 1.5) * tt)
    half = np.cos(tt / 2)
    cells = np.sum(ww * (g * h * half), axis=1)
    kernel = classical_dirichlet(n + 1, tt.ravel()).reshape(tt.shape)
    bounded = float(np.sum(ww * g * half**2 * kernel) / np.pi)
    oscillatory = float(np.sum(ww * g * h * half) * M / np.pi)
    return cells, oscillatory, bounded


def lebesgue_per_n(n):
    """Fejer's sum for one n on its own arrays.

    The oracle beside the batch form of ``lebesgue_constant``: the same
    terms, the tangent past pi/4 taken as a cotangent, summed pairwise.
    """
    M = 2 * n + 3
    k = np.arange(1, n + 2)
    near = M // 4  # k > near <=> 4k > M, as M is odd
    tan = np.empty(n + 1)
    tan[:near] = np.tan(k[:near] * np.pi / M)
    tan[near:] = 1 / np.tan((M - 2 * k[near:]) * np.pi / (2 * M))
    return float(1 / M + 2 / np.pi * np.sum(tan / k))


def chain_per_n(n, alpha=0.5):
    """The ``ChainReport`` of one n, formed on its own arrays.

    The oracle beside the batch form of ``verify_chain``: the same closed
    forms, one n at a time, with ``lebesgue_per_n``.
    """
    M = 2 * n + 3
    I = _witness_moments(n, n + 2)
    e = np.arange(0, 2 * n + 5, 2)
    e[-1] = M
    m = np.array([[n + 1], [n + 2]])
    angle = np.pi * ((m * e) % (2 * M)) / M
    v = (-1.0) ** np.arange(n + 3)
    v[-1] = 0.0
    g_sin = v * np.sin(angle) / m
    cos_t = np.cos(angle)
    slope = -(M / np.pi) * v[:-1]
    per_freq = g_sin[:, 1:] - g_sin[:, :-1] + slope * (cos_t[:, 1:] - cos_t[:, :-1]) / m**2
    cell_vals = (per_freq[0] + per_freq[1]) / 2
    lhs = cell_vals[: n + 1]
    cos_k = np.cos(np.arange(1, n + 2) * np.pi / M)
    rhs = (2 * np.pi / (3 * M)) * cos_k
    intervals = np.stack([lhs, rhs, lhs - rhs], axis=1)
    tail = float(cell_vals[n + 1])
    cosine_sum = float(np.sum(cos_k))
    D = float(1 / np.sin(np.pi / (2 * M)))
    head = I[0] + 2 * np.sum(I[1 : n + 1])
    bounded = float((head + 1.5 * I[n + 1] + 0.5 * I[n + 2]) / np.pi)
    osc = float(M / (2 * np.pi) * (I[n + 1] + I[n + 2]))
    final = (D - 1) / 3
    floor = 2 * M / np.pi
    leb = lebesgue_per_n(n)
    return ChainReport(
        n=n,
        intervals=intervals,
        tail_integral=tail,
        cosine_sum=cosine_sum,
        dirichlet_value=D,
        identity_error=abs(cosine_sum - (D - 1) / 2),
        summed_bound=float(np.sum(rhs)),
        final_lower_bound=final,
        dirichlet_floor=floor,
        bounded_term=bounded,
        oscillatory_term=osc,
        value=bounded - osc,
        lebesgue=leb,
        lip_norm_bound=np.pi / M + float(holder_bound(n, alpha)),
        margins={
            "intervals": float(intervals[:, 2].min()),
            "tail": tail,
            "oscillatory_vs_final": osc - final,
            "bounded_vs_lebesgue": leb - abs(bounded),
            "dirichlet_floor": D - floor,
        },
    )


def same_bits(a, b) -> bool:
    """Whether two values, arrays or dicts of floats hold the same types and bits."""
    if isinstance(a, dict):
        return type(b) is dict and list(a) == list(b) and all(same_bits(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return type(b) is np.ndarray and a.shape == b.shape and a.tobytes() == b.tobytes()
    return type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _normalized(q):
    r = np.sqrt(sum(c * c for c in q))
    return GroupElement(complex(q[0], q[1]) / r, complex(q[2], q[3]) / r)


# unit quaternions from the cube [-1, 1]^4, poles and axis points included
elements = (
    st.tuples(*[st.floats(-1, 1)] * 4)
    .filter(lambda q: sum(c * c for c in q) > 1e-2)
    .map(_normalized)
)


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    """bench/spans.py as a module, loaded from its file."""
    return _load_bench("spans")


def load_workloads():
    """bench/workloads.py as a module, loaded from its file.

    It imports its sibling ``reference`` by plain name, as ``bench/run.py``
    lets it with ``bench/`` on the path; that name is bound here only while
    workloads.py loads.
    """
    saved = sys.modules.get("reference")
    sys.modules["reference"] = _load_bench("reference")
    try:
        return _load_bench("workloads")
    finally:
        if saved is None:
            del sys.modules["reference"]
        else:
            sys.modules["reference"] = saved

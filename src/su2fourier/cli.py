"""Reproducible experiment runner emitting CSV/JSON tables.

Every table carries a metadata header (artifact version, the full parsed
config, the seed, and a wall-clock stamp).  The payload region -- the header
row plus data rows for CSV, the "rows" array for JSON -- is a pure function
of config and seed: fixed row order, fixed column order, single-threaded
evaluation, floats printed with 17 significant digits (exact double
round-trip).  Only the wall-clock stamp in the metadata varies between runs.

Exit codes: 0 success, 1 when a margin-style check fails (the offending rows
are listed on stderr), 2 on usage errors.  The environment variable
SU2FOURIER_OUTDIR supplies a default directory for relative output paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .group import GroupElement, haar_grid, random_elements
from .representations import char_table
from .fourier import (
    CentralFn,
    char_fn,
    const_fn,
    dirichlet_closed,
    lebesgue_constant,
    partial_sum_central,
)
from .divergence import divergence_table, sawtooth, verify_chain
from .convergence import (
    dini_integral,
    holder_test_function,
    jackson_ratio,
    log_weighted_block_sum,
    modulus_profile,
    sqrt_shift_fn,
    uniform_error_central,
)

__all__ = ["RunConfig", "run", "main"]

CHAIN_MARGIN_TOL = 1e-8
CHAIN_IDENTITY_TOL = 1e-10
DIVERGE_GAP_TOL = 1e-4


@dataclass
class RunConfig:
    """Echo of one run: serialized verbatim into every output header."""

    command: str
    seed: int
    fmt: str
    output: str | None
    params: dict = field(default_factory=dict)

    def meta(self) -> dict:
        return {
            "artifact": "su2fourier",
            "version": __version__,
            "command": self.command,
            "seed": self.seed,
            "format": self.fmt,
            "output": self.output,
            "config": self.params,
            "generated_at": datetime.now(timezone.utc).isoformat(),
        }


# --------------------------------------------------------------------------
# parsing helpers
# --------------------------------------------------------------------------

def parse_int_list(text: str) -> list[int]:
    """"1,10,100" or "2..64" (inclusive range)."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(p) for p in text.split(",") if p]


def parse_float_list(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p]


def parse_central_fn(spec: str) -> CentralFn:
    """sawtooth:N | char:N | holder:ALPHA | sqrtshift | const[:V]"""
    kind, _, arg = spec.partition(":")
    if kind == "sawtooth":
        return sawtooth(int(arg))
    if kind == "char":
        return char_fn(int(arg))
    if kind == "holder":
        return holder_test_function(float(arg))
    if kind == "sqrtshift":
        return sqrt_shift_fn()
    if kind == "const":
        return const_fn(float(arg) if arg else 1.0)
    raise argparse.ArgumentTypeError(f"unknown function spec {spec!r}")


def parse_points(spec: str, seed: int) -> list[GroupElement]:
    """"random:K" (Haar samples from the seed) or "e" (the identity)."""
    if spec == "e":
        return [GroupElement(1.0 + 0j, 0.0 + 0j)]
    kind, _, arg = spec.partition(":")
    if kind == "random":
        rng = np.random.default_rng(seed)
        a, b = random_elements(rng, int(arg))
        return [GroupElement(complex(x), complex(y)) for x, y in zip(a, b)]
    raise argparse.ArgumentTypeError(f"unknown points spec {spec!r}")


# --------------------------------------------------------------------------
# output
# --------------------------------------------------------------------------

def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_table(meta: dict, rows: list[dict], fmt: str, stream) -> None:
    if fmt == "csv":
        stream.write("# su2fourier-table\n")
        stream.write("# meta: " + json.dumps(meta, sort_keys=True) + "\n")
        if rows:
            cols = list(rows[0].keys())
            stream.write(",".join(cols) + "\n")
            for r in rows:
                stream.write(",".join(_fmt_cell(r[c]) for c in cols) + "\n")
    else:
        stream.write(json.dumps({"meta": meta, "rows": rows}, indent=1))
        stream.write("\n")


def _resolve_output(path: str | None) -> str | None:
    if path is None:
        return None
    if not os.path.isabs(path):
        outdir = os.environ.get("SU2FOURIER_OUTDIR")
        if outdir:
            return os.path.join(outdir, path)
    return path


# --------------------------------------------------------------------------
# command handlers: each returns (rows, exit_code, failures)
# --------------------------------------------------------------------------

def _cmd_kernel_check(args):
    th = np.linspace(args.exclude, np.pi - args.exclude, args.grid)
    table = char_table(args.n_max, th)
    weighted = (np.arange(args.n_max + 1)[:, None] + 1.0) * table
    direct = np.cumsum(weighted, axis=0)
    rows, failures = [], []
    for N in range(args.n_max + 1):
        closed = dirichlet_closed(N, th)
        err = float(np.max(np.abs(direct[N] - closed)))
        bound = 1e-8 * (N + 1) ** 3
        ok = err <= bound
        rows.append({"N": N, "max_abs_err": err, "bound": bound, "ok": ok})
        if not ok:
            failures.append(f"N={N}: err {err:.3e} > bound {bound:.3e}")
    return rows, failures


def _cmd_lebesgue(args):
    rows = []
    for n in args.n:
        val = lebesgue_constant(n, args.nodes_per_interval)
        asym = float(4 / np.pi**2 * np.log(n + 1))
        rows.append({"n": n, "l1_norm": val, "asymptote": asym, "gap": val - asym})
    return rows, []


def _cmd_chain(args):
    rows, failures = [], []
    for n in args.n:
        rep = verify_chain(n, nodes_per_cell=args.nodes_per_cell, alpha=args.alpha)
        ok = rep.ok(CHAIN_MARGIN_TOL) and rep.identity_error <= CHAIN_IDENTITY_TOL
        rows.append(
            {
                "n": n,
                "min_margin": rep.min_margin,
                "identity_error": rep.identity_error,
                "dirichlet_value": rep.dirichlet_value,
                "dirichlet_floor": rep.dirichlet_floor,
                "tail_integral": rep.tail_integral,
                "bounded_term": rep.bounded_term,
                "oscillatory_term": rep.oscillatory_term,
                "value": rep.value,
                "lip_norm_bound": rep.lip_norm_bound,
                "ok": ok,
            }
        )
        if not ok:
            failures.append(
                f"n={n}: min_margin {rep.min_margin:.3e}, identity {rep.identity_error:.3e}"
            )
    return rows, failures


def _cmd_diverge(args):
    points = parse_points(args.points, args.seed)
    rule = haar_grid(args.order)
    rows, failures = [], []
    for row in divergence_table(points, args.n, rule):
        rows.append(
            {
                "z_a_re": row.z.a.real,
                "z_a_im": row.z.a.imag,
                "z_b_re": row.z.b.real,
                "z_b_im": row.z.b.imag,
                "n": row.n,
                "general_abs": row.general_abs,
                "central_abs": row.central_abs,
                "rel_gap": row.rel_gap,
                "growth": row.growth,
            }
        )
        if row.rel_gap >= DIVERGE_GAP_TOL:
            failures.append(f"n={row.n}: rel_gap {row.rel_gap:.3e} >= {DIVERGE_GAP_TOL}")
    return rows, failures


def _cmd_partial_sum(args):
    if len(args.n) != 1:
        raise ValueError(f"partial-sum takes a single --n value, got {args.n}")
    f = parse_central_fn(args.fn)
    th = np.linspace(0.0, np.pi, args.grid)
    vals = partial_sum_central(f, args.n[0], args.mode, th)
    fv = f(th)
    rows = [
        {
            "theta": float(t),
            "f": float(np.real(v0)),
            "partial_sum": float(np.real(v1)),
            "abs_err": float(abs(v1 - v0)),
        }
        for t, v0, v1 in zip(th, fv, vals)
    ]
    return rows, []


def _cmd_modulus(args):
    f = parse_central_fn(args.fn)
    prof = modulus_profile(f, args.t_min, args.t_max, args.per_decade)
    rows = [
        {"t": float(t), "omega": float(o)}
        for t, o in zip(prof.t_values, prof.omega_values)
    ]
    return rows, []


def _cmd_dini(args):
    f = parse_central_fn(args.fn)
    t_mins = sorted(args.t_min_list, reverse=True)
    prof = modulus_profile(f, min(t_mins), args.t_max, args.per_decade)
    rows = [
        {"t_min": float(tm), "integral": float(dini_integral(prof, tm))}
        for tm in t_mins
    ]
    return rows, []


def _cmd_jackson(args):
    f = parse_central_fn(args.fn)
    rows = []
    for k in args.k:
        pt = jackson_ratio(f, k)
        rows.append(
            {
                "k": k,
                "best_approx": pt.best_approx,
                "modulus": pt.modulus,
                "ratio": pt.ratio,
                "degenerate": pt.degenerate,
            }
        )
    return rows, []


def _cmd_rm_sum(args):
    f = parse_central_fn(args.fn)
    coeffs = f.coeffs(max(args.j))
    rows = [{"J": J, "value": log_weighted_block_sum(coeffs, J)} for J in args.j]
    return rows, []


def _cmd_uniform_central(args):
    f = parse_central_fn(args.fn)
    rows = [
        {"N": N, "max_err": uniform_error_central(f, N, args.delta, args.grid)}
        for N in args.n
    ]
    return rows, []


_HANDLERS = {
    "kernel-check": _cmd_kernel_check,
    "lebesgue": _cmd_lebesgue,
    "chain": _cmd_chain,
    "diverge": _cmd_diverge,
    "partial-sum": _cmd_partial_sum,
    "modulus": _cmd_modulus,
    "dini": _cmd_dini,
    "jackson": _cmd_jackson,
    "rm-sum": _cmd_rm_sum,
    "uniform-central": _cmd_uniform_central,
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="su2fourier", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        sp.add_argument("--output", default=None, help="file path (default: stdout)")
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("kernel-check", help="direct vs closed Dirichlet kernel")
    sp.add_argument("--n-max", type=int, default=200)
    sp.add_argument("--grid", type=int, default=2000)
    sp.add_argument("--exclude", type=float, default=1e-3)
    common(sp)

    sp = sub.add_parser("lebesgue", help="L1 kernel norms vs the log asymptote")
    sp.add_argument("--n", type=parse_int_list, default=[1, 10, 100, 1000])
    sp.add_argument("--nodes-per-interval", type=int, default=8)
    common(sp)

    sp = sub.add_parser("chain", help="lower-bound chain margins for the witnesses")
    sp.add_argument("--n", type=parse_int_list, default=list(range(2, 65)))
    sp.add_argument("--nodes-per-cell", type=int, default=8)
    sp.add_argument("--alpha", type=float, default=0.5)
    common(sp)

    sp = sub.add_parser("diverge", help="translated witnesses: general vs central path")
    sp.add_argument("--points", default="random:3")
    sp.add_argument("--n", type=parse_int_list, default=[4, 8, 16])
    sp.add_argument("--order", type=int, default=128)
    common(sp)

    sp = sub.add_parser("partial-sum", help="partial sum of a central function on a grid")
    sp.add_argument("--fn", default="sawtooth:7")
    sp.add_argument("--n", type=parse_int_list, default=[12])
    sp.add_argument("--mode", choices=("polyhedral", "spherical"), default="polyhedral")
    sp.add_argument("--grid", type=int, default=41)
    common(sp)

    sp = sub.add_parser("modulus", help="integral modulus of continuity profile")
    sp.add_argument("--fn", default="sawtooth:5")
    sp.add_argument("--t-min", type=float, default=1e-3)
    sp.add_argument("--t-max", type=float, default=1.0)
    sp.add_argument("--per-decade", type=int, default=16)
    common(sp)

    sp = sub.add_parser("dini", help="Dini integral of the squared modulus")
    sp.add_argument("--fn", default="holder:0.5")
    sp.add_argument("--t-min-list", type=parse_float_list, default=[1e-2, 1e-3, 1e-4])
    sp.add_argument("--t-max", type=float, default=1.0)
    sp.add_argument("--per-decade", type=int, default=16)
    common(sp)

    sp = sub.add_parser("jackson", help="best approximation over modulus quotients")
    sp.add_argument("--fn", default="sawtooth:9")
    sp.add_argument("--k", type=parse_int_list, default=[1, 2, 3, 4, 5, 6])
    common(sp)

    sp = sub.add_parser("rm-sum", help="log-weighted block energy sums")
    sp.add_argument("--fn", default="sawtooth:5")
    sp.add_argument("--j", type=parse_int_list, default=[16, 64, 256, 1024, 4096])
    common(sp)

    sp = sub.add_parser("uniform-central", help="sup error away from the poles")
    sp.add_argument("--fn", default="sqrtshift")
    sp.add_argument("--n", type=parse_int_list, default=[64, 128, 256])
    sp.add_argument("--delta", type=float, default=0.3)
    sp.add_argument("--grid", type=int, default=2000)
    common(sp)

    return p


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code) if exc.code else 0
    params = {
        k: v for k, v in vars(args).items() if k not in ("command", "fmt", "output", "seed")
    }
    config = RunConfig(
        command=args.command,
        seed=args.seed,
        fmt=args.fmt,
        output=_resolve_output(args.output),
        params=params,
    )
    try:
        rows, failures = _HANDLERS[args.command](args)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"su2fourier: {exc}", file=sys.stderr)
        return 2
    meta = config.meta()
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            write_table(meta, rows, config.fmt, fh)
    else:
        write_table(meta, rows, config.fmt, sys.stdout)
    if failures:
        for line in failures:
            print(f"su2fourier: FAIL {line}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

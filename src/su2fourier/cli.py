"""Reproducible experiment runner emitting CSV/JSON tables.

Every table carries a metadata header (artifact version, the full parsed
config, the seed, and a wall-clock stamp).  The payload region -- the header
row plus data rows for CSV, the "rows" array for JSON -- has a fixed row
order and column order, and floats are printed with 17 significant digits
(exact double round-trip).  It is a function of config and seed alone, so
only the wall-clock stamp in the metadata varies between runs.  Neither the
beta-slab threads of the 3D paths nor the BLAS library's thread count
changes it: every central function has exact coefficients and norm.

Exit codes: 0 success, 1 when a margin-style check fails (the offending rows
are listed on stderr), 2 on usage errors, a size too large to allocate and
an output file that cannot be written included.  The environment variable
SU2FOURIER_OUTDIR supplies a default directory for relative output paths.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .group import IDENTITY, GroupElement, haar_grid, random_elements
from .fourier import (
    CentralFn,
    char_fn,
    const_fn,
    dirichlet_closed,
    dirichlet_direct,
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

__all__ = ["run", "main"]

CHAIN_IDENTITY_TOL = 1e-10
DIVERGE_GAP_TOL = 1e-4


# --------------------------------------------------------------------------
# parsing helpers
# --------------------------------------------------------------------------

def _nonempty(values: list, text: str) -> list:
    if not values:
        raise argparse.ArgumentTypeError(f"empty list {text!r}")
    return values


def parse_int_list(text: str) -> list[int]:
    """"1,10,100" or "2..64" (inclusive range); an empty result is a usage error."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..")
        return _nonempty(list(range(int(lo), int(hi) + 1)), text)
    return _nonempty([int(p) for p in text.split(",") if p], text)


def parse_count(text: str) -> int:
    """A count of points or nodes; one below 1 is a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"count must be >= 1, got {value}")
    return value


def parse_float_list(text: str) -> list[float]:
    """"0.01,0.001"; an empty result is a usage error."""
    return _nonempty([float(p) for p in text.split(",") if p], text)


_SPEC_KINDS = {  # kind: (argument type, constructor)
    "sawtooth": (int, sawtooth),
    "char": (int, char_fn),
    "holder": (float, holder_test_function),
    "const": (float, const_fn),
}


def parse_central_fn(spec: str) -> CentralFn:
    """sawtooth:N | char:N | holder:ALPHA | sqrtshift | const[:V]

    sawtooth, char and holder need their argument, and sqrtshift takes none.
    A value the constructor rejects (``holder:1.5``, ``const:1e400``) is a
    usage error that quotes the spec.
    """
    kind, sep, arg = spec.partition(":")
    if kind == "sqrtshift":
        if sep:
            raise argparse.ArgumentTypeError(f"function spec {spec!r} takes no argument")
        return sqrt_shift_fn()
    if kind not in _SPEC_KINDS:
        raise argparse.ArgumentTypeError(f"unknown function spec {spec!r}")
    number, make = _SPEC_KINDS[kind]
    if not arg:
        if kind != "const":
            raise argparse.ArgumentTypeError(f"function spec {spec!r} needs an argument")
        return const_fn(1.0)
    try:
        value = number(arg)
    except ValueError:
        what = "an integer" if number is int else "a number"
        raise argparse.ArgumentTypeError(
            f"function spec {spec!r} needs {what}, got {arg!r}"
        ) from None
    try:
        return make(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"function spec {spec!r} is invalid: {exc}") from None


def parse_points(spec: str, seed: int) -> list[GroupElement]:
    """"random:K" (K >= 1 Haar samples from the seed) or "e" (the identity)."""
    if spec == "e":
        return [IDENTITY]
    kind, _, arg = spec.partition(":")
    if kind == "random":
        if not arg.isdigit() or int(arg) < 1:
            raise argparse.ArgumentTypeError(f"points spec {spec!r} needs a count K >= 1")
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
# command handlers: each returns (rows, failures); run() dispatches by argparse
# --------------------------------------------------------------------------

_KERNEL_BLOCK = 32  # degrees per dirichlet_closed call: bounds its temporaries


def _cmd_kernel_check(args):
    if args.n_max < 0:
        raise ValueError(f"--n-max must be >= 0, got {args.n_max}")
    if not 0 <= args.exclude < np.pi / 2:  # NaN fails this test too
        raise ValueError(f"--exclude must lie in [0, pi/2), got {args.exclude!r}")
    th = np.linspace(args.exclude, np.pi - args.exclude, args.grid)
    direct = dirichlet_direct(np.arange(args.n_max + 1), th)
    errs = np.empty(args.n_max + 1)
    for lo in range(0, args.n_max + 1, _KERNEL_BLOCK):
        hi = min(lo + _KERNEL_BLOCK, args.n_max + 1)
        closed = dirichlet_closed(np.arange(lo, hi), th)
        errs[lo:hi] = np.max(np.abs(direct[lo:hi] - closed), axis=1)
    rows, failures = [], []
    for N in range(args.n_max + 1):
        err = float(errs[N])
        bound = 1e-8 * (N + 1) ** 3
        ok = err <= bound
        rows.append({"N": N, "max_abs_err": err, "bound": bound, "ok": ok})
        if not ok:
            failures.append(f"N={N}: err {err:.3e} > bound {bound:.3e}")
    return rows, failures


def _cmd_lebesgue(args):
    rows = []
    for n, val in zip(args.n, lebesgue_constant(args.n).tolist()):
        asym = float(4 / np.pi**2 * np.log(n + 1))
        rows.append({"n": n, "l1_norm": val, "asymptote": asym, "gap": val - asym})
    return rows, []


_CHAIN_COLUMNS = (
    "n", "min_margin", "identity_error", "dirichlet_value", "dirichlet_floor",
    "tail_integral", "bounded_term", "oscillatory_term", "value", "lip_norm_bound",
)


def _cmd_chain(args):
    rows, failures = [], []
    for n, rep in zip(args.n, verify_chain(args.n, alpha=args.alpha)):
        ok = rep.ok() and rep.identity_error <= CHAIN_IDENTITY_TOL
        rows.append({c: getattr(rep, c) for c in _CHAIN_COLUMNS} | {"ok": ok})
        if not ok:
            failures.append(
                f"n={n}: min_margin {rep.min_margin:.3e}, identity {rep.identity_error:.3e}"
            )
    return rows, failures


def _cmd_diverge(args):
    for n in args.n:  # the witnesses check n before the grid, which costs far more
        try:
            sawtooth(n)
        except ValueError as exc:
            raise ValueError(f"--n: {exc}, got {args.n}") from None
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
    return [dataclasses.asdict(jackson_ratio(f, k)) for k in args.k], []


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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by later calls in the process.

    Parsing reads it and never changes it, and no handler mutates a parsed
    default, so every call parses as a fresh parser would.
    """
    p = argparse.ArgumentParser(prog="su2fourier", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, handler):
        sp.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        sp.add_argument("--output", default=None, help="file path (default: stdout)")
        sp.add_argument("--seed", type=int, default=0)
        sp.set_defaults(handler=handler)

    sp = sub.add_parser("kernel-check", help="direct vs closed Dirichlet kernel")
    sp.add_argument("--n-max", type=int, default=200)
    sp.add_argument("--grid", type=parse_count, default=2000)
    sp.add_argument("--exclude", type=float, default=1e-3)
    common(sp, _cmd_kernel_check)

    sp = sub.add_parser("lebesgue", help="L1 kernel norms vs the log asymptote")
    sp.add_argument("--n", type=parse_int_list, default=[1, 10, 100, 1000])
    common(sp, _cmd_lebesgue)

    sp = sub.add_parser("chain", help="lower-bound chain margins for the witnesses")
    sp.add_argument("--n", type=parse_int_list, default=list(range(2, 65)))
    sp.add_argument("--alpha", type=float, default=0.5)
    common(sp, _cmd_chain)

    sp = sub.add_parser("diverge", help="translated witnesses: general vs central path")
    sp.add_argument("--points", default="random:3")
    sp.add_argument("--n", type=parse_int_list, default=[4, 8, 16])
    sp.add_argument("--order", type=int, default=128)
    common(sp, _cmd_diverge)

    sp = sub.add_parser("partial-sum", help="partial sum of a central function on a grid")
    sp.add_argument("--fn", default="sawtooth:7")
    sp.add_argument("--n", type=parse_int_list, default=[12])
    sp.add_argument("--mode", choices=("polyhedral", "spherical"), default="polyhedral")
    sp.add_argument("--grid", type=parse_count, default=41)
    common(sp, _cmd_partial_sum)

    sp = sub.add_parser("modulus", help="integral modulus of continuity profile")
    sp.add_argument("--fn", default="sawtooth:5")
    sp.add_argument("--t-min", type=float, default=1e-3)
    sp.add_argument("--t-max", type=float, default=1.0)
    sp.add_argument("--per-decade", type=int, default=16)
    common(sp, _cmd_modulus)

    sp = sub.add_parser("dini", help="Dini integral of the squared modulus")
    sp.add_argument("--fn", default="holder:0.5")
    sp.add_argument("--t-min-list", type=parse_float_list, default=[1e-2, 1e-3, 1e-4])
    sp.add_argument("--t-max", type=float, default=1.0)
    sp.add_argument("--per-decade", type=int, default=16)
    common(sp, _cmd_dini)

    sp = sub.add_parser("jackson", help="best approximation over modulus quotients")
    sp.add_argument("--fn", default="sawtooth:9")
    sp.add_argument("--k", type=parse_int_list, default=[1, 2, 3, 4, 5, 6])
    common(sp, _cmd_jackson)

    sp = sub.add_parser("rm-sum", help="log-weighted block energy sums")
    sp.add_argument("--fn", default="sawtooth:5")
    sp.add_argument("--j", type=parse_int_list, default=[16, 64, 256, 1024, 4096])
    common(sp, _cmd_rm_sum)

    sp = sub.add_parser("uniform-central", help="sup error away from the poles")
    sp.add_argument("--fn", default="sqrtshift")
    sp.add_argument("--n", type=parse_int_list, default=[64, 128, 256])
    sp.add_argument("--delta", type=float, default=0.3)
    sp.add_argument("--grid", type=parse_count, default=2000)
    common(sp, _cmd_uniform_central)

    return p


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code) if exc.code else 0
    output = _resolve_output(args.output)
    if output and not os.path.isdir(os.path.dirname(output) or "."):
        # before the handler, which may run long; no file is created yet
        print(f"su2fourier: cannot write --output: no directory for {output!r}", file=sys.stderr)
        return 2
    try:
        rows, failures = args.handler(args)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"su2fourier: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size too large to allocate is a usage error too
        print(f"su2fourier: out of memory: {exc}", file=sys.stderr)
        return 2
    echoed = ("command", "fmt", "output", "seed", "handler")
    meta = {
        "artifact": "su2fourier",
        "version": __version__,
        "command": args.command,
        "seed": args.seed,
        "format": args.fmt,
        "output": output,
        "config": {k: v for k, v in vars(args).items() if k not in echoed},
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                write_table(meta, rows, args.fmt, fh)
        except OSError as exc:  # an unwritable file
            print(f"su2fourier: cannot write --output: {exc}", file=sys.stderr)
            return 2
    else:
        write_table(meta, rows, args.fmt, sys.stdout)
    if failures:
        for line in failures:
            print(f"su2fourier: FAIL {line}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""CLI: table formats, reproducibility, exit codes."""

import json
import os
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from types import ModuleType

import numpy as np
import pytest

import su2fourier
from su2fourier import cli, convergence, divergence, fourier, group, representations
from su2fourier.cli import parse_central_fn, parse_int_list, run


def _payload_csv(text: str) -> str:
    return "\n".join(l for l in text.splitlines() if not l.startswith("#"))


def _payload_json(text: str) -> str:
    return json.dumps(json.loads(text)["rows"], sort_keys=False)


def _run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = run(argv + ["--output", str(out)])
    return code, out.read_text()


# ---------------------------------------------------------------- smoke

def test_lebesgue_csv(tmp_path):
    code, text = _run_to_file(
        tmp_path, "leb.csv", ["lebesgue", "--n", "0,10", "--format", "csv"]
    )
    assert code == 0
    lines = _payload_csv(text).splitlines()
    assert lines[0] == "n,l1_norm,asymptote,gap"
    assert len(lines) == 3
    assert "# meta:" in text


def test_lebesgue_json_serializable(tmp_path):
    code, text = _run_to_file(
        tmp_path, "leb.json", ["lebesgue", "--n", "0,10", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(text)
    assert len(doc["rows"]) == 2
    assert doc["rows"][1]["gap"] > 1.0


def test_kernel_check_json(tmp_path):
    code, text = _run_to_file(
        tmp_path, "k.json", ["kernel-check", "--n-max", "30", "--grid", "400", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["meta"]["command"] == "kernel-check"
    assert len(doc["rows"]) == 31
    assert all(r["ok"] for r in doc["rows"])


def test_chain_ok(tmp_path):
    code, text = _run_to_file(tmp_path, "c.csv", ["chain", "--n", "2..8"])
    assert code == 0
    assert all(l.endswith("true") for l in _payload_csv(text).splitlines()[1:])


def test_chain_false_margin_exits_one(tmp_path, capsys, monkeypatch):
    # every margin is a true inequality, so falsify one: with a Lebesgue
    # constant of 0, bounded_vs_lebesgue = -|bounded term| < 0
    monkeypatch.setattr(divergence, "lebesgue_constant", lambda n: np.zeros(np.shape(n)))
    code, text = _run_to_file(tmp_path, "c2.csv", ["chain", "--n", "6..8"])
    assert code == 1
    assert all(l.endswith("false") for l in _payload_csv(text).splitlines()[1:])
    err = capsys.readouterr().err
    assert err.count("su2fourier: FAIL n=") == 3


def test_diverge_small(tmp_path):
    code, text = _run_to_file(
        tmp_path,
        "d.csv",
        ["diverge", "--points", "random:1", "--n", "4", "--order", "48", "--seed", "7"],
    )
    assert code == 0
    row = _payload_csv(text).splitlines()[1].split(",")
    assert float(row[7]) < 1e-4  # rel_gap column


def test_partial_sum_runs(tmp_path):
    code, text = _run_to_file(
        tmp_path, "p.csv", ["partial-sum", "--fn", "sawtooth:7", "--n", "12", "--grid", "11"]
    )
    assert code == 0
    assert len(_payload_csv(text).splitlines()) == 12


def test_partial_sum_rejects_several_n(capsys):
    # one table holds one order; a list used to be cut to its first value
    assert run(["partial-sum", "--n", "7,9"]) == 2
    captured = capsys.readouterr()
    assert "single --n value" in captured.err
    assert captured.out == ""


def test_modulus_and_dini(tmp_path):
    code, text = _run_to_file(
        tmp_path, "m.csv", ["modulus", "--fn", "sawtooth:5", "--t-min", "0.01"]
    )
    assert code == 0
    code, text = _run_to_file(
        tmp_path, "di.csv", ["dini", "--fn", "holder:0.5", "--t-min-list", "1e-2,1e-3"]
    )
    assert code == 0
    vals = [float(l.split(",")[1]) for l in _payload_csv(text).splitlines()[1:]]
    assert vals[1] >= vals[0]  # deeper t_min, larger integral


def test_jackson_rm_uniform(tmp_path):
    assert _run_to_file(tmp_path, "j.csv", ["jackson", "--fn", "sawtooth:9", "--k", "1..3"])[0] == 0
    assert _run_to_file(tmp_path, "r.csv", ["rm-sum", "--fn", "sawtooth:5", "--j", "16,64"])[0] == 0
    code, text = _run_to_file(
        tmp_path, "u.csv", ["uniform-central", "--fn", "sqrtshift", "--n", "32,64", "--grid", "500"]
    )
    assert code == 0
    errs = [float(l.split(",")[1]) for l in _payload_csv(text).splitlines()[1:]]
    assert errs[1] < errs[0]


# ---------------------------------------------------------------- determinism

@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_payload_reproducible(tmp_path, fmt):
    argv = ["diverge", "--points", "random:2", "--n", "4", "--order", "32",
            "--seed", "11", "--format", fmt]
    _, first = _run_to_file(tmp_path, f"a.{fmt}", argv)
    _, second = _run_to_file(tmp_path, f"b.{fmt}", argv)
    extract = _payload_csv if fmt == "csv" else _payload_json
    assert extract(first) == extract(second)
    # metadata may differ (wall clock) but the config echo must match
    if fmt == "json":
        m1, m2 = json.loads(first)["meta"], json.loads(second)["meta"]
        m1.pop("generated_at"), m2.pop("generated_at")
        m1.pop("output"), m2.pop("output")
        assert m1 == m2


def test_payload_does_not_depend_on_the_slab_cpus(tmp_path, monkeypatch):
    argv = ["diverge", "--points", "random:2", "--n", "4", "--order", "24", "--format", "json"]
    payloads = []
    for cpus in (1, 2):
        monkeypatch.setattr(fourier, "_CPUS", cpus)
        payloads.append(_payload_json(_run_to_file(tmp_path, f"cpus{cpus}.json", argv)[1]))
    assert payloads[0] == payloads[1]


_BLAS_ARGVS = [
    [command]
    for command in ("kernel-check", "lebesgue", "chain", "diverge", "partial-sum", "modulus",
                    "dini", "jackson", "rm-sum", "uniform-central")
] + [["jackson", "--fn", "holder:0.5"], ["modulus", "--fn", "sqrtshift"], ["rm-sum", "--fn", "holder:0.3"]]

_PAYLOAD_DIGESTS = """
import hashlib, io, json, sys
from contextlib import redirect_stdout
from su2fourier.cli import run
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run(argv)
    payload = "\\n".join(l for l in out.getvalue().splitlines() if not l.startswith("#"))
    print(code, hashlib.md5(payload.encode()).hexdigest())
"""


def test_payload_does_not_depend_on_the_blas_threads():
    # BLAS reads its thread count once, when it loads, so each setting gets a
    # fresh process: one BLAS thread, and no BLAS variable (one per CPU)
    unset = {k: v for k, v in os.environ.items() if k not in fourier._BLAS_THREAD_VARS}
    unset["PYTHONPATH"] = os.path.dirname(os.path.dirname(su2fourier.__file__))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _PAYLOAD_DIGESTS, json.dumps(_BLAS_ARGVS)],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        for env in (unset, unset | {"OPENBLAS_NUM_THREADS": "1"})
    ]
    digests = [proc.communicate(timeout=300)[0].splitlines() for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert [len(d) for d in digests] == [len(_BLAS_ARGVS)] * 2
    assert all(line.startswith("0 ") for line in digests[0])
    differ = [argv for argv, x, y in zip(_BLAS_ARGVS, *digests) if x != y]
    assert differ == []


def test_json_meta_keys_and_config_echo(tmp_path):
    _, text = _run_to_file(tmp_path, "meta.json", ["lebesgue", "--n", "0", "--format", "json"])
    meta = json.loads(text)["meta"]
    assert list(meta) == [
        "artifact", "version", "command", "seed", "format", "output", "config", "generated_at"
    ]
    assert meta["command"] == "lebesgue"
    assert list(meta["config"].items()) == [("n", [0])]


def test_different_seed_changes_payload(tmp_path):
    argv = ["diverge", "--points", "random:1", "--n", "4", "--order", "32"]
    _, a = _run_to_file(tmp_path, "s1.csv", argv + ["--seed", "1"])
    _, b = _run_to_file(tmp_path, "s2.csv", argv + ["--seed", "2"])
    assert _payload_csv(a) != _payload_csv(b)


def test_full_float_precision_roundtrip(tmp_path):
    _, text = _run_to_file(tmp_path, "f.csv", ["lebesgue", "--n", "0"])
    val = _payload_csv(text).splitlines()[1].split(",")[1]
    from su2fourier.fourier import lebesgue_constant

    assert float(val) == lebesgue_constant(0)  # 17 digits round-trip exactly


# ---------------------------------------------------------------- plumbing

def test_usage_error_exit_code(capsys):
    assert run(["no-such-command"]) == 2
    assert run(["lebesgue", "--n", "abc"]) == 2
    capsys.readouterr()
    for argv in (
        ["modulus", "--t-min", "0"],
        ["modulus", "--t-min", "-1"],
        ["modulus", "--t-min", "2", "--t-max", "1"],
        ["dini", "--t-min-list", "0"],
        ["dini", "--per-decade", "0"],
        ["dini", "--t-min-list", "0.5,0.001", "--t-max", "0.1"],
        ["dini", "--t-min-list", "0.01,nan"],
        ["dini", "--t-min-list", "nan,0.01"],
        ["modulus", "--per-decade", "0"],
        ["modulus", "--per-decade", "-3"],
        ["kernel-check", "--n-max", "-1"],
        ["uniform-central", "--n", "-1"],
        ["rm-sum", "--fn", "holder:0.5", "--j", "-1"],
        ["rm-sum", "--j", "-1"],
        ["jackson", "--k", "-2"],
        ["lebesgue", "--n=-1,-2"],
        ["chain", "--n", "2", "--alpha", "3"],
        ["chain", "--n", "2", "--alpha", "-1"],
        ["chain", "--n", "2", "--alpha", "0"],
        ["chain", "--n", "2", "--alpha", "nan"],
        ["partial-sum", "--fn", "const:nan"],
        ["modulus", "--fn", "const:inf"],
        ["partial-sum", "--fn", "const:1e400"],
        ["kernel-check", "--exclude", "2"],
        ["kernel-check", "--exclude", "-1"],
        ["kernel-check", "--exclude", "nan"],
        ["kernel-check", "--exclude", "1.5707963267948966"],
    ):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("su2fourier: ")


def test_kernel_check_accepts_the_whole_exclude_range(capsys):
    # 0 runs the grid to both poles; just below pi/2 it shrinks to the equator
    for exclude in ("0", "1.5"):
        argv = ["kernel-check", "--n-max", "20", "--grid", "50", "--exclude", exclude]
        assert run(argv) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [["jackson", "--k", "40"], ["jackson", "--k", "1000000"],
     ["rm-sum", "--j", "1000000000000"], ["partial-sum", "--n", "1000000000000"]],
    ids=["jackson", "jackson-huge-k", "rm-sum", "partial-sum"],
)
def test_coefficient_count_past_the_cap_is_a_usage_error(argv, capsys):
    # CentralFn.coeffs refuses before it allocates, so the refusal is quick
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 0.5
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("su2fourier: ") and "MAX_COEFFS" in err


@contextmanager
def _address_space_capped(limit=2**40):
    # Linux's default heuristic overcommit refuses a 7 TiB request outright;
    # the cap makes that refusal certain on a host that always overcommits
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = limit if hard == resource.RLIM_INFINITY else min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize(
    "argv",
    [
        ["lebesgue", "--n", "1000000000000"],
        ["chain", "--n", "1000000000000"],
        ["kernel-check", "--n-max", "1000000000000", "--grid", "2"],
    ],
    ids=["lebesgue", "chain", "kernel-check"],
)
def test_size_too_large_to_allocate_is_a_usage_error(argv, capsys):
    # 10^12 entries are 7.3 TiB: NumPy's request fails at once and allocates nothing
    with _address_space_capped():
        assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("su2fourier: out of memory: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["lebesgue", "chain", "diverge"])
def test_size_beyond_int64_is_a_usage_error_naming_it(command, capsys):
    # refused on the value itself, before NumPy would convert it or size an array
    assert run([command, "--n", "100000000000000000000"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("su2fourier: ") and err.count("\n") == 1
    assert "100000000000000000000" in err


@pytest.mark.parametrize(
    "exclude", [1e-3, 0.0, 1.2e-4], ids=["default", "poles", "half-angle-band"]
)
def test_kernel_check_rows_are_bitwise_the_per_degree_kernel(tmp_path, exclude):
    # the handler evaluates blocks of degrees; each row must be what one
    # dirichlet_closed(N, th) call gives, in both pole bands of its direct
    # sum: exclude 0 puts theta = 0 and pi in |sin theta| < 1e-4, exclude
    # 1.2e-4 puts grid points where sin(theta/2) < 1e-4 <= |sin theta|
    th = np.linspace(exclude, np.pi - exclude, 2000)
    inner = (np.abs(np.sin(th / 2)) < 1e-4) & (np.abs(np.sin(th)) >= 1e-4)
    assert inner.any() == (exclude == 1.2e-4)
    assert (np.abs(np.sin(th)) < 1e-4).any() == (exclude == 0.0)
    table = representations.char_table(200, th)
    direct = np.cumsum((np.arange(201)[:, None] + 1.0) * table, axis=0)
    want = [float(np.max(np.abs(direct[N] - fourier.dirichlet_closed(N, th)))) for N in range(201)]
    code, text = _run_to_file(
        tmp_path, "k.json", ["kernel-check", "--exclude", repr(exclude), "--format", "json"]
    )
    assert code == 0
    assert [r["max_abs_err"] for r in json.loads(text)["rows"]] == want


def test_parser_is_built_once_and_parses_as_a_fresh_one(tmp_path, capsys):
    def default_chain():
        _, text = _run_to_file(tmp_path, "chain.json", ["chain", "--format", "json"])
        return [line for line in text.splitlines() if '"generated_at"' not in line]

    cli._build_parser.cache_clear()
    fresh = default_chain()
    cli._build_parser.cache_clear()
    assert run(["chain", "--n", "3..5", "--alpha", "0.7"]) == 0
    assert run(["chain", "--alpha"]) == 2
    capsys.readouterr()
    assert default_chain() == fresh
    assert cli._build_parser.cache_info().misses == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel-check", "--grid", "0"],
        ["uniform-central", "--grid", "0"],
        ["partial-sum", "--grid", "0"],
        ["partial-sum", "--grid", "-1"],
    ],
)
def test_count_below_one_is_usage_error(argv, capsys):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {argv[-2]}: count must be >= 1, got {argv[-1]}" in err


@pytest.mark.parametrize("degree", [-1, -3])
def test_negative_character_degree_is_usage_error(degree, capsys):
    assert run(["partial-sum", "--fn", f"char:{degree}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"su2fourier: function spec 'char:{degree}' is invalid: degree n must be >= 0, got {degree}\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["lebesgue", "--n", "5..2"],
        ["chain", "--n", ""],
        ["uniform-central", "--n", ""],
        ["rm-sum", "--j", ""],
        ["dini", "--t-min-list", ""],
    ],
)
def test_empty_list_argument_is_usage_error(argv, capsys):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {argv[1]}: empty list" in err


@pytest.mark.parametrize("spec", ["random:-1", "random:0", "random:", "random:x"])
def test_points_spec_without_a_positive_count_is_usage_error(spec, capsys):
    assert run(["diverge", "--points", spec, "--order", "8", "--n", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"su2fourier: points spec {spec!r} needs a count K >= 1\n"


def test_diverge_checks_n_before_the_grid(monkeypatch, capsys):
    def no_grid(order):
        raise AssertionError("haar_grid called before --n was checked")

    monkeypatch.setattr(cli, "haar_grid", no_grid)
    assert run(["diverge", "--n", "16,1", "--order", "256", "--points", "random:2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "su2fourier: --n: sawtooth witnesses need n >= 2, got [16, 1]\n"


@pytest.mark.parametrize(
    "spec, problem",
    [
        ("sqrtshift:3", "takes no argument"),
        ("sqrtshift:", "takes no argument"),
        ("sawtooth:", "needs an argument"),
        ("char:", "needs an argument"),
        ("holder:", "needs an argument"),
        ("holder", "needs an argument"),
        ("char:abc", "needs an integer, got 'abc'"),
        ("sawtooth:2.5", "needs an integer, got '2.5'"),
        ("holder:abc", "needs a number, got 'abc'"),
        ("const:x", "needs a number, got 'x'"),
        ("const:1e400", "is invalid: constant value must be finite, got inf"),
        ("holder:1.5", "is invalid: alpha must lie in (0, 1)"),
        ("sawtooth:1", "is invalid: sawtooth witnesses need n >= 2"),
        ("char:-1", "is invalid: degree n must be >= 0, got -1"),
        ("char:4194304", "is invalid: degree n = 4194304 needs more than MAX_COEFFS = 4194304 "
                         "coefficients"),
    ],
)
def test_function_spec_argument_mismatch_is_usage_error(spec, problem, capsys):
    assert run(["partial-sum", "--fn", spec]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"su2fourier: function spec {spec!r} {problem}\n"


@pytest.mark.parametrize(
    "module", [group, representations, fourier, divergence, convergence, cli]
)
def test_every_exported_name_resolves(module):
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)  # a stale __all__ entry raises
    assert set(module.__all__) <= set(namespace)


def test_every_package_name_is_exported_by_its_module():
    exported = set().union(
        *(m.__all__ for m in (group, representations, fourier, divergence, convergence))
    )
    public = [
        name for name in vars(su2fourier)
        if not name.startswith("_") and not isinstance(getattr(su2fourier, name), ModuleType)
    ]
    assert public and [name for name in public if name not in exported] == []


@pytest.mark.parametrize("where", ["path", "outdir"])
def test_output_into_a_missing_directory_is_usage_error(where, tmp_path, monkeypatch, capsys):
    missing = tmp_path / "missing"
    if where == "outdir":
        monkeypatch.setenv("SU2FOURIER_OUTDIR", str(missing))
        output = "x.json"
    else:
        output = str(missing / "x.json")
    assert run(["lebesgue", "--n", "0", "--format", "json", "--output", output]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("su2fourier: cannot write --output: ") and err.count("\n") == 1
    assert str(missing / "x.json") in err and not missing.exists()


def test_output_into_a_missing_directory_fails_before_the_handler(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "lebesgue_constant", lambda n: calls.append(n))
    output = tmp_path / "missing" / "x.json"
    assert run(["lebesgue", "--format", "json", "--output", str(output)]) == 2
    assert calls == [] and list(tmp_path.iterdir()) == []
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("su2fourier: cannot write --output: ")
    assert str(output) in err and err.count("\n") == 1


def test_outdir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SU2FOURIER_OUTDIR", str(tmp_path))
    assert run(["lebesgue", "--n", "0", "--output", "rel.csv"]) == 0
    assert (tmp_path / "rel.csv").exists()


def test_parse_helpers():
    assert parse_int_list("2..5") == [2, 3, 4, 5]
    assert parse_int_list("1,10,100") == [1, 10, 100]
    assert parse_central_fn("char:3").name == "char:3"
    assert parse_central_fn("holder:0.5").name == "holder:0.5"
    with pytest.raises(Exception):
        parse_central_fn("nope:1")


def test_stdout_path(capsys):
    assert run(["lebesgue", "--n", "0"]) == 0
    out = capsys.readouterr().out
    assert "l1_norm" in out

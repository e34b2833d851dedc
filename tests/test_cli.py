"""CLI: table formats, reproducibility, exit codes."""

import json

import pytest

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


def test_chain_underresolved_exits_one(tmp_path, capsys):
    code, _ = _run_to_file(
        tmp_path, "c2.csv", ["chain", "--n", "6..8", "--nodes-per-cell", "1"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "FAIL" in err


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
        ["kernel-check", "--n-max", "-1"],
    ):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("su2fourier: ")


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

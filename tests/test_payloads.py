"""The payload contract: each command's JSON document, without its wall-clock
stamp and output path, is byte-identical to its golden under tests/payloads/.

The goldens were written on Python 3.11.7 with NumPy 2.4.6 and OpenBLAS
0.3.31; they hold for that libm and BLAS build.  The BLAS thread count does
not move them (test_cli.py::test_payload_does_not_depend_on_the_blas_threads).
Commands whose documents are large (``DIGESTED``) keep only the SHA-256 of
the document, in ``<stem>.sha256``; a mismatch there names no column.
A change that moves a payload on purpose rewrites the goldens with

    PYTHONPATH=src python tests/test_payloads.py

and lists each moved column, with its largest absolute and relative change.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from su2fourier.cli import run

GOLDEN_DIR = Path(__file__).parent / "payloads"

COMMANDS = {  # golden file stem: argv
    "diverge": ["diverge"],
    "diverge-random2-n4,8-order48": ["diverge", "--points", "random:2", "--n", "4,8", "--order", "48"],
    "diverge-n4,4-order32": ["diverge", "--n", "4,4", "--order", "32"],
    "kernel-check": ["kernel-check"],
    "lebesgue": ["lebesgue"],
    "chain": ["chain"],
    "partial-sum": ["partial-sum"],
    "modulus": ["modulus"],
    "dini": ["dini"],
    "jackson": ["jackson"],
    "rm-sum": ["rm-sum"],
    "uniform-central": ["uniform-central"],
    "chain-n2..256": ["chain", "--n", "2..256"],
    "partial-sum-holder0.5-n512": ["partial-sum", "--fn", "holder:0.5", "--n", "512"],
}
DIGESTED = {"chain-n2..256"}  # about 100 kB each: kept as a digest


def document(argv: list[str]) -> str:
    """The --format json document of ``argv``, without generated_at and output."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = run(argv + ["--format", "json"])
    assert code == 0, f"{argv} exited {code}"
    doc = json.loads(out.getvalue())
    del doc["meta"]["generated_at"], doc["meta"]["output"]
    return json.dumps(doc, indent=1) + "\n"


def digest(doc: str) -> str:
    return hashlib.sha256(doc.encode()).hexdigest() + "\n"


def moved_columns(want: dict, got: dict) -> list[str]:
    """One line per moved part of a document: the meta, the row layout, or a
    column with its moved row count and its largest absolute and relative change."""
    lines = []
    if want["meta"] != got["meta"]:
        lines.append(f"meta: {want['meta']} -> {got['meta']}")
    rows_w, rows_g = want["rows"], got["rows"]
    layout_w = (len(rows_w), list(rows_w[0]) if rows_w else [])
    layout_g = (len(rows_g), list(rows_g[0]) if rows_g else [])
    if layout_w != layout_g:
        return lines + [f"rows and columns: {layout_w} -> {layout_g}"]
    for col in layout_w[1]:
        pairs = [
            (w[col], g[col]) for w, g in zip(rows_w, rows_g)
            if json.dumps(w[col]) != json.dumps(g[col])
        ]
        if not pairs:
            continue
        if all(type(v) in (int, float) for pair in pairs for v in pair):
            absolute = max(abs(g - w) for w, g in pairs)
            relative = max(abs(g - w) / abs(w) if w else float("inf") for w, g in pairs)
            lines.append(
                f"{col}: {len(pairs)} rows moved, largest change {absolute:.3g} absolute,"
                f" {relative:.3g} relative"
            )
        else:
            lines.append(f"{col}: {len(pairs)} rows moved, first {pairs[0][0]!r} -> {pairs[0][1]!r}")
    return lines


@pytest.mark.parametrize("name", COMMANDS)
def test_payload_matches_its_golden(name):
    got = document(COMMANDS[name])
    if name in DIGESTED:
        assert digest(got) == (GOLDEN_DIR / f"{name}.sha256").read_text(), f"{name} moved"
        return
    want = (GOLDEN_DIR / f"{name}.json").read_text()
    if got != want:
        moved = moved_columns(json.loads(want), json.loads(got)) or ["bytes differ, no value moved"]
        pytest.fail(f"{name} moved:\n" + "\n".join(moved))


def test_moved_columns_names_each_column_with_its_largest_change():
    want = {"meta": {"seed": 0}, "rows": [{"n": 1, "x": 0.5, "ok": True}, {"n": 2, "x": 2.0, "ok": True}]}
    got = json.loads(json.dumps(want))
    assert moved_columns(want, got) == []
    got["rows"][0]["x"] = 0.5 + 2.0**-53
    got["rows"][1]["x"] = 2.0 + 2.0**-51
    got["rows"][1]["ok"] = False
    assert moved_columns(want, got) == [
        "x: 2 rows moved, largest change 4.44e-16 absolute, 2.22e-16 relative",
        "ok: 1 rows moved, first True -> False",
    ]
    got["rows"].pop()
    assert moved_columns(want, got) == ["rows and columns: (2, ['n', 'x', 'ok']) -> (1, ['n', 'x', 'ok'])"]


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for stem, argv in COMMANDS.items():
        doc = document(argv)
        if stem in DIGESTED:
            (GOLDEN_DIR / f"{stem}.sha256").write_text(digest(doc))
        else:
            (GOLDEN_DIR / f"{stem}.json").write_text(doc)

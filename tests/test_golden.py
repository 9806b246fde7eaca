"""Every README command line, byte for byte against ``tests/golden/``.

Each case runs ``cli.main`` in-process in an empty working directory.  Its
stdout must equal ``<case>.json`` (no such file: the command prints
nothing), and every file it writes there must equal ``<case>.<file name>``.
Two extra cases pin outputs whose last digits have moved before:
``critical`` and ``type2 --n 1`` at tau = 0.5+2.2i.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py`` and name
each rewritten file, with its largest change, in CHANGES.md.
"""

import contextlib
import io
import json
import os
import pathlib

import pytest

from lamelab.cli import EXIT_OK, main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
TAU = ["--tau", "0.22+1.31i"]
DIVISOR = ["--divisor", "p=0.13,0.21:1;p=0.54,0.39:1;p=0.82,0.70:1"]
SOLVE = "solve_l3_check_monodromy"


def _first_root() -> str:
    """``--params`` for ``monodromy``: the first root that ``solve`` printed."""
    sol = json.loads((GOLDEN / f"{SOLVE}.json").read_text())["solutions"][0]
    return json.dumps({"A": sol["A"], "B": sol["B"]})


CASES = {
    "critical": ["critical", "--tau", "0+1.5i"],
    "hecke": ["hecke", *TAU, "--r", "0.75", "--s", "0.25"],
    "lame_curve_point": ["lame-curve", *TAU, "--n", "2", "--B", "1.5+0.3i"],
    "lame_curve_sweep": ["lame-curve", *TAU, "--n", "2", "--sweep", "0,3,200",
                         "--output", "ln.csv"],
    "premodular": ["premodular", *TAU, "--n", "3", "--sigma", "0.3,0.4"],
    "type2_n2": ["type2", "--tau", "0.5+2.2i", "--n", "2"],
    SOLVE: ["solve", *TAU, *DIVISOR, "--check-monodromy"],
    "monodromy": ["monodromy", *TAU, *DIVISOR, "--params", _first_root],
    "identities": ["identities", "--tau", "0.2+1.3i", "--samples", "25"],
    "identities_germ": ["identities", "--tau", "0.2+1.3i", "--germ-k", "6", "--n", "3",
                        "--output", "germ.csv"],
    "germ": ["germ", *TAU, "--n", "2", "--k", "6", "--symmetric"],
    "critical_tau_2_2": ["critical", "--tau", "0.5+2.2i"],
    "type2_n1_tau_2_2": ["type2", "--tau", "0.5+2.2i", "--n", "1"],
}


def run_case(case: str) -> dict:
    """{golden file name: bytes} of what the case's command prints and
    writes; run it in an empty working directory."""
    argv = [a() if callable(a) else a for a in CASES[case]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == EXIT_OK
    got = {f"{case}.{p.name}": p.read_bytes() for p in pathlib.Path.cwd().iterdir()}
    if out.getvalue():
        got[f"{case}.json"] = out.getvalue().encode()
    return got


@pytest.mark.parametrize("case", CASES)
def test_cli_output_is_unchanged(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    want = {p.name: p.read_bytes() for p in GOLDEN.glob(f"{case}.*")}
    assert run_case(case) == want


if __name__ == "__main__":
    import tempfile

    home = os.getcwd()
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                got = run_case(case)
            finally:
                os.chdir(home)
        for name, data in got.items():
            (GOLDEN / name).write_bytes(data)
            print(name)

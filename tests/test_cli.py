import json
import os
import subprocess
import sys

import pytest

from lamelab.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_USAGE,
    main,
    parse_complex,
    parse_divisor,
)
from lamelab import make_context

DIVISOR_L3 = "p=0.13,0.21:1;p=0.54,0.39:1;p=0.82,0.70:1"


@pytest.mark.parametrize("text,value", [
    ("1.5+0.3i", 1.5 + 0.3j),
    ("-2-1i", -2 - 1j),
    ("2i", 2j),
    ("-i", -1j),
    ("0.7", 0.7 + 0j),
    ("1e-3+2.5e-1i", 0.001 + 0.25j),
])
def test_parse_complex(text, value):
    assert parse_complex(text) == value


def test_parse_complex_rejects_garbage():
    with pytest.raises(ValueError):
        parse_complex("")
    with pytest.raises(ValueError):
        parse_complex("1.5 + 2i")


def test_parse_divisor_roundtrip():
    ctx = make_context(0.22 + 1.31j)
    L = parse_divisor(DIVISOR_L3, ctx)
    assert L.N == 3 and L.ell == 3
    with pytest.raises(ValueError):
        parse_divisor("p=0.1:1", ctx)


def test_critical_counts(tmp_path, capsys):
    out = tmp_path / "crit.json"
    assert main(["critical", "--tau", "0+1.5i", "--output", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert payload["count"] == 3
    assert main(["critical", "--tau", "0.5+0.866025403784439i",
                 "--output", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["count"] == 5
    assert payload["classification"] == "Omega5"


def test_critical_malformed_tau():
    assert main(["critical", "--tau", "0.5-1i"]) == EXIT_USAGE


def test_nonfinite_tau_is_usage_error(capsys):
    assert main(["hecke", "--tau", "0+infi", "--r", "0.2", "--s", "0.3"]) == EXIT_USAGE
    assert "tau must be finite" in capsys.readouterr().err


def test_solve_counts_and_exit(tmp_path):
    out = tmp_path / "sols.json"
    code = main(["solve", "--tau", "0.22+1.31i", "--divisor", DIVISOR_L3,
                 "--output", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["expected_count"] == 4
    assert payload["found_count"] == 4
    assert all(s["residual"] < 1e-10 for s in payload["solutions"])


def test_solve_duplicate_points_usage_error():
    assert main(["solve", "--tau", "0.22+1.31i",
                 "--divisor", "p=0.1,0.2:1;p=0.1,0.2:1"]) == EXIT_USAGE


def test_solve_partial_enumeration_exit(tmp_path):
    out = tmp_path / "partial.json"
    code = main(["solve", "--tau", "0.22+1.31i", "--divisor", DIVISOR_L3,
                 "--max-starts", "2", "--output", str(out)])
    assert code == EXIT_PARTIAL
    payload = json.loads(out.read_text())
    assert payload["found_count"] < 4


def test_solve_check_monodromy(tmp_path):
    out = tmp_path / "sols.json"
    code = main(["solve", "--tau", "0.22+1.31i", "--divisor", DIVISOR_L3,
                 "--check-monodromy", "--output", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["classifications"] == ["K4"] * 4


def test_solve_deterministic_output(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        main(["solve", "--tau", "0.22+1.31i", "--divisor", DIVISOR_L3,
              "--seed", "5", "--output", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_identities_pass(tmp_path):
    out = tmp_path / "ids.json"
    assert main(["identities", "--tau", "0.2+1.3i", "--samples", "10",
                 "--output", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["pass"] is True


def test_identities_zero_samples_usage():
    assert main(["identities", "--tau", "0.2+1.3i", "--samples", "0"]) == EXIT_USAGE


def test_identities_germ_table(tmp_path, capsys):
    out = tmp_path / "germ.csv"
    code = main(["identities", "--tau", "0.2+1.3i", "--samples", "5",
                 "--germ-k", "6", "--n", "3", "--output", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,re,im,abs"
    assert len(lines) == 1 + 6 + 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True


def test_germ_csv(tmp_path):
    out = tmp_path / "germ.csv"
    code = main(["germ", "--tau", "0.22+1.31i", "--n", "3", "--k", "6",
                 "--output", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,re,im,abs"
    assert len(lines) == 1 + 6 + 2   # header, k rows, two t^5 side rows


def test_hecke_agreement(capsys):
    assert main(["hecke", "--tau", "0.22+1.31i", "--r", "0.75", "--s", "0.25"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["agreement"] < 1e-9


def test_type2_roundtrip(capsys):
    assert main(["type2", "--tau", "0+1.2i", "--n", "1"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 0


def test_lame_curve_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["lame-curve", "--tau", "0.22+1.31i", "--n", "2",
                 "--sweep", "0,3,5", "--output", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "re_B,im_B,re_ln,im_ln"
    assert len(lines) == 6


def test_premodular_value(capsys):
    assert main(["premodular", "--tau", "0.22+1.31i", "--n", "2",
                 "--sigma", "0.3,0.4"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert len(payload["Zn"]) == 2


def test_lame_curve_point(capsys):
    assert main(["lame-curve", "--tau", "0.22+1.31i", "--n", "3",
                 "--B", "1.4-0.6i"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 3 and len(payload["a"]) == 3
    assert payload["residual"] < 1e-8


def test_monodromy_subcommand(tmp_path, capsys):
    out = tmp_path / "sols.json"
    main(["solve", "--tau", "0.22+1.31i", "--divisor", DIVISOR_L3,
          "--output", str(out)])
    sol = json.loads(out.read_text())["solutions"][0]
    params = json.dumps({"A": sol["A"], "B": sol["B"]})
    assert main(["monodromy", "--tau", "0.22+1.31i", "--divisor", DIVISOR_L3,
                 "--params", params]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"] == "K4"
    assert payload["commutator_defect"] < 1e-6
    assert payload["params"]["A"] == sol["A"]
    assert len(payload["S1"]) == 4 and len(payload["S2"]) == 4



@pytest.mark.parametrize("params, message", [
    ('{"A": [[0, 0], [0, 0], [0, 0]]}', 'keys "A" and "B"'),
    ('{"A": [[0, 0], [1], [0, 0]], "B": [1, 0]}', '"A" entry must be a [re, im] pair'),
    ('{"A": [1], "B": [1, 0]}', '"A" entry must be a [re, im] pair'),
    ('{"A": [[0, 0]], "B": [1, "0"]}', '"B" must be a [re, im] pair'),
    ('{"A": [[0, 0]], "B": [NaN, 0]}', '"B" must be a [re, im] pair'),
    ('{"A": [[0, 0]], "B": [1%s, 0]}' % ("0" * 400), '"B" must be a [re, im] pair'),
    ('[[0, 0], [1, 0]]', 'keys "A" and "B"'),
    ('{"A": [[0, 0]], "B": [1, 0]', "--params is not JSON"),
])
def test_monodromy_malformed_params_is_usage_error(params, message, capsys):
    assert main(["monodromy", "--tau", "0.22+1.31i", "--divisor", DIVISOR_L3,
                 "--params", params]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err

def test_closed_stdout_exits_quietly():
    # ``lamelab hecke ... | head -0``: the reader is gone before the write
    import lamelab

    src = os.path.dirname(os.path.dirname(os.path.abspath(lamelab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "lamelab.cli", "hecke", "--tau", "0.22+1.31i",
             "--r", "0.75", "--s", "0.25"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert out.returncode == EXIT_OK
    assert out.stderr == ""


@pytest.mark.parametrize("argv, flag", [
    (["hecke", "--r", "inf", "--s", "0.1"], "--r"),
    (["hecke", "--r", "0.2", "--s=-inf"], "--s"),
    (["hecke", "--r", "nan", "--s", "0.1"], "--r"),
    (["premodular", "--n", "2", "--sigma", "nan,0.1"], "--sigma"),
    (["solve", "--divisor", "p=nan,0.2:1;p=0.5,0.5:1;p=0.3,0.8:1"], "p=r,s"),
    (["monodromy", "--divisor", "p=inf,0.2:1", "--params", '{"A": [[0, 0]], "B": [1, 0]}'],
     "p=r,s"),
    (["lame-curve", "--n", "1", "--B=nan+0i"], "--B"),
], ids=["r-inf", "s-minus-inf", "r-nan", "sigma", "solve-divisor", "monodromy-divisor", "B"])
def test_nonfinite_coordinates_are_usage_errors(argv, flag, capsys):
    assert main(argv[:1] + ["--tau", "0.22+1.31i"] + argv[1:]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag in err and "must be finite" in err


@pytest.mark.parametrize("argv, flag, value", [
    (["hecke", "--r", "0.75", "--s", "0.25"], "--tau", "-0.3+1.1i"),
    (["hecke", "--tau", "0.22+1.31i", "--r", "0.75"], "--s", "-1e-3"),
    (["lame-curve", "--tau", "0.22+1.31i", "--n", "2"], "--B", "-1.5+0.3i"),
    (["premodular", "--tau", "0.22+1.31i", "--n", "2"], "--sigma", "-0.3,0.4"),
], ids=["tau", "s-exponent", "B", "sigma"])
def test_negative_value_after_flag(argv, flag, value, capsys):
    assert main(argv + [flag, value]) == EXIT_OK
    spaced = capsys.readouterr().out
    assert main(argv + [f"{flag}={value}"]) == EXIT_OK
    assert spaced == capsys.readouterr().out


def test_unknown_flag_is_still_a_usage_error():
    argv = ["hecke", "--tau", "0.22+1.31i", "--r", "0.75", "--s", "0.25"]
    assert main(argv + ["--bogus"]) == EXIT_USAGE
    assert main(["hecke", "--tau", "--bogus", "--r", "0.75", "--s", "0.25"]) == EXIT_USAGE


@pytest.mark.parametrize("argv, reads_seed", [
    (["critical"], False),
    (["hecke", "--r", "0.75", "--s", "0.25"], False),
    (["lame-curve", "--n", "2"], False),
    (["premodular", "--n", "2", "--sigma", "0.3,0.4"], False),
    (["type2"], False),
    (["monodromy", "--divisor", DIVISOR_L3, "--params", "{}"], False),
    (["solve", "--divisor", DIVISOR_L3], True),
    (["identities"], True),
    (["germ", "--n", "2"], True),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_seed_only_where_it_is_read(argv, reads_seed):
    from lamelab.cli import build_parser

    argv = argv[:1] + ["--tau", "0.22+1.31i"] + argv[1:]
    assert build_parser().parse_args(argv).func   # parses without --seed
    if reads_seed:
        assert build_parser().parse_args(argv + ["--seed", "3"]).seed == 3
    else:
        assert main(argv + ["--seed", "3"]) == EXIT_USAGE

"""CLI behavior: flags, report format, JSON round trip, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import signflip
from signflip import warpbreaks
from signflip.cli import main


@pytest.fixture()
def warpbreaks_csv(tmp_path):
    table = warpbreaks()
    path = tmp_path / "warpbreaks.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["breaks", "wool", "tension"])
        for i in range(54):
            writer.writerow(
                [int(table["breaks"][i]), table["wool"][i], table["tension"][i]]
            )
    return str(path)


def test_embedded_dataset_integrity():
    table = warpbreaks()
    assert len(table["breaks"]) == 54
    for wool in ("A", "B"):
        for tension in ("L", "M", "H"):
            cell = (table["wool"] == wool) & (table["tension"] == tension)
            assert cell.sum() == 9
    assert table["breaks"].sum() == 1520


def test_cmd_test_effective_flip(warpbreaks_csv, capsys):
    rc = main([
        "test", "--data", warpbreaks_csv, "--response", "breaks",
        "--tested", "woolB", "--nuisance", "tensionM,tensionH",
        "--intercept", "--family", "poisson", "--method", "effective",
        "--w", "2000", "--seed", "1", "--alternative", "two-sided-abs",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "method: flip-effective" in out
    p = float(out.split("p_value: ")[1].split("\n")[0])
    assert 0.03 < p < 0.11  # near the published 0.065 at small w


def test_cmd_test_basic_flip(warpbreaks_csv, capsys):
    rc = main([
        "test", "--data", warpbreaks_csv, "--response", "breaks",
        "--tested", "wool", "--nuisance", "tension", "--intercept",
        "--family", "poisson", "--method", "basic", "--w", "2000",
        "--seed", "1",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    p = float(out.split("p_value: ")[1].split("\n")[0])
    assert 0.08 < p < 0.16  # near the published 0.113 at small w


def test_cmd_test_parametric_p_one_when_fit_is_exact(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    rows = ["y,x"] + [f"4,{v}" for v in range(12)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    rc = main([
        "test", "--data", str(path), "--response", "y", "--tested", "x",
        "--intercept", "--family", "poisson", "--method", "parametric",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    p = float(out.split("p_value: ")[1].split("\n")[0])
    assert p > 1.0 - 1e-9


def test_cmd_test_non_finite_covariate_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(9)
    rows = ["y,x,z"]
    for i in range(20):
        x = "nan" if i == 3 else f"{rng.normal():.17g}"
        rows.append(f"{rng.normal():.17g},{x},{rng.normal():.17g}")
    path = tmp_path / "nan.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    rc = main([
        "test", "--data", str(path), "--response", "y", "--tested", "x",
        "--nuisance", "z", "--intercept", "--family", "gaussian",
    ])
    assert rc == 2
    assert "NaN or infinite" in capsys.readouterr().err


def test_cmd_test_singular_effective_information_exits_2(tmp_path):
    # 29 tested columns, a nuisance column and an intercept on 30 rows: I* is
    # singular, which is a bad design (exit 2), never a warning or a p-value
    rng = np.random.default_rng(0)
    n, d = 30, 29
    X = rng.normal(size=(n, d + 1))
    y = rng.poisson(np.exp(0.2 + 0.3 * X[:, d]))
    names = [f"x{j}" for j in range(d)]
    rows = [",".join(["y", *names, "z"])]
    rows += [",".join([str(y[i]), *(f"{v:.17g}" for v in X[i])]) for i in range(n)]
    path = tmp_path / "wide.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    src = os.path.dirname(os.path.dirname(signflip.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-m", "signflip.cli", "test", "--data", str(path),
         "--response", "y", "--tested", ",".join(names), "--nuisance", "z",
         "--intercept", "--family", "poisson", "--method", "effective",
         "--vhat", "inv-effective-info"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "d=29" in proc.stderr and "k=31" in proc.stderr and "n=30" in proc.stderr
    assert "Warning" not in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_cmd_test_json_roundtrip(warpbreaks_csv, capsys):
    args = [
        "test", "--data", warpbreaks_csv, "--response", "breaks",
        "--tested", "wool", "--nuisance", "tension", "--intercept",
        "--family", "poisson", "--method", "all", "--w", "500",
        "--seed", "3", "--json",
    ]
    rc = main(args)
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out.strip().split("\n")[-1])
    assert [entry["method"] for entry in doc] == [
        "parametric-score", "quasi-poisson", "sandwich-wald",
        "flip-basic", "flip-effective",
    ]
    # every printed p-value appears identically in the JSON document
    printed = [line.split("p_value: ")[1] for line in out.split("\n")
               if line.startswith("p_value: ")]
    assert printed == [str(entry["p_value"]) for entry in doc]


def test_cmd_test_all_skips_quasi_when_two_columns_are_tested(warpbreaks_csv,
                                                              capsys):
    rc = main([
        "test", "--data", warpbreaks_csv, "--response", "breaks",
        "--tested", "tension", "--nuisance", "wool", "--intercept",
        "--family", "poisson", "--method", "all", "--w", "500", "--json",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == (
        "skipped quasi: quasi_score_test handles a single tested column\n"
    )
    doc = json.loads(captured.out.strip().split("\n")[-1])
    assert [entry["method"] for entry in doc] == [
        "parametric-score", "sandwich-wald", "flip-basic", "flip-effective",
    ]
    # nothing left to run (one-sided d > 1 tests, no valid flip count): exit 2
    rc = main([
        "test", "--data", warpbreaks_csv, "--response", "breaks",
        "--tested", "tension", "--nuisance", "wool", "--intercept",
        "--family", "poisson", "--method", "all", "--alternative", "greater",
        "--w", "0",
    ])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.count("skipped ") == 5
    assert "every method was skipped" in captured.err


def test_cmd_test_all_skips_quasi_for_gaussian_family(tmp_path, capsys):
    rng = np.random.default_rng(11)
    rows = ["y,x,z"] + [
        f"{rng.normal():.17g},{rng.normal():.17g},{rng.normal():.17g}"
        for _ in range(30)
    ]
    path = tmp_path / "gauss.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    rc = main([
        "test", "--data", str(path), "--response", "y", "--tested", "x",
        "--nuisance", "z", "--intercept", "--family", "gaussian",
        "--method", "all", "--w", "200", "--json",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == (
        "skipped quasi: quasi_score_test requires the poisson family\n"
    )
    doc = json.loads(captured.out.strip().split("\n")[-1])
    assert len(doc) == 4 and "quasi-poisson" not in [e["method"] for e in doc]
    assert captured.out.count("p_value: ") == 4


def test_cmd_test_all_rejects_alpha_outside_unit_interval(warpbreaks_csv,
                                                          capsys):
    rc = main([
        "test", "--data", warpbreaks_csv, "--response", "breaks",
        "--tested", "wool", "--nuisance", "tension", "--intercept",
        "--family", "poisson", "--method", "all", "--alpha", "1.5",
        "--w", "200",
    ])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "alpha must be in (0, 1)" in captured.err
    assert "skipped" not in captured.err


def test_cmd_test_blank_csv_cell_exits_2(tmp_path, capsys):
    path = tmp_path / "blank.csv"
    path.write_text("y,x,x2\n1,0.5,2\n2,1.5,\n0,-1,3\n4,2,1\n",
                    encoding="utf-8")
    rc = main([
        "test", "--data", str(path), "--response", "y", "--tested", "x2",
        "--nuisance", "x", "--intercept", "--family", "poisson",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'x2'" in err and "line 3" in err


def test_cmd_test_byte_identical_repeats(warpbreaks_csv, capsys):
    args = [
        "test", "--data", warpbreaks_csv, "--response", "breaks",
        "--tested", "wool", "--nuisance", "tension", "--intercept",
        "--family", "poisson", "--method", "effective", "--w", "400",
        "--seed", "7",
    ]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_cmd_test_exit_codes(warpbreaks_csv, tmp_path, capsys):
    rc = main([
        "test", "--data", warpbreaks_csv, "--response", "bogus",
        "--tested", "wool", "--family", "poisson",
    ])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err

    rc = main([
        "test", "--data", warpbreaks_csv, "--response", "breaks",
        "--tested", "nope", "--family", "poisson",
    ])
    assert rc == 2

    # near-collinear nuisance columns: the information block is
    # numerically singular, which is a numerical failure (exit 3)
    rng = np.random.default_rng(5)
    z = rng.normal(size=30)
    path = tmp_path / "illcond.csv"
    rows = ["y,x,z1,z2"]
    x = rng.normal(size=30)
    y = z + rng.normal(size=30)
    z2 = z + 1e-8 * rng.normal(size=30)
    for i in range(30):
        rows.append(f"{y[i]:.17g},{x[i]:.17g},{z[i]:.17g},{z2[i]:.17g}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    rc = main([
        "test", "--data", str(path), "--response", "y", "--tested", "x",
        "--nuisance", "z1,z2", "--intercept", "--family", "gaussian",
        "--method", "effective",
    ])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cmd_simulate_csv_contract(tmp_path, capsys):
    out_path = tmp_path / "fig1a.csv"
    rc = main([
        "simulate", "--scenario", "overdispersed-nuisance", "--n", "50",
        "--reps", "40", "--w", "100", "--seed", "7", "--out", str(out_path),
    ])
    captured = capsys.readouterr()
    assert rc == 0
    header = out_path.read_text().split("\n", 1)[0]
    assert header == "alpha,par,GEE,flipSimple,flipEff"
    assert "alpha=0.05" in captured.err


def test_cmd_simulate_hetero_columns(tmp_path):
    out_path = tmp_path / "fig4.csv"
    rc = main([
        "simulate", "--scenario", "hetero-t", "--n", "10", "--reps", "25",
        "--w", "50", "--seed", "2", "--out", str(out_path),
    ])
    assert rc == 0
    header = out_path.read_text().split("\n", 1)[0]
    assert header == "alpha,Parametric,Flip test"


def test_cmd_simulate_unknown_scenario(capsys):
    rc = main(["simulate", "--scenario", "nope"])
    err = capsys.readouterr().err
    assert rc == 2
    for name in ("overdispersed-nuisance", "hetero-t", "multivariate"):
        assert name in err


@pytest.mark.parametrize("scenario, rho", [
    ("multivariate", "-0.5"),
    ("multivariate", "1.0"),
    ("overdispersed-nuisance", "1.5"),
])
def test_cmd_simulate_rho_without_a_positive_definite_matrix_exits_2(scenario, rho,
                                                                     capsys):
    rc = main(["simulate", "--scenario", scenario, "--rho", rho, "--reps", "2"])
    assert rc == 2
    assert "not positive definite" in capsys.readouterr().err


def test_cmd_simulate_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n=40\nreps=10\nw=60\n", encoding="utf-8")
    rc = main([
        "simulate", "--scenario", "overdispersed-nuisance", "--config",
        str(cfg), "--seed", "4",
    ])
    assert rc == 0


def test_cmd_warpbreaks_report(capsys):
    rc = main(["warpbreaks", "--w", "4000", "--seed", "1", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [ln for ln in out.split("\n") if ln]
    assert lines[0].startswith("method")
    doc = json.loads(lines[-1])
    assert set(doc) == {
        "parametric-score", "quasi-poisson", "sandwich-wald",
        "flip-basic", "flip-effective",
    }
    # golden values at a small w: parametric/quasi/sandwich are exact
    assert 5.5e-5 < doc["parametric-score"]["p_value"] < 7.5e-5
    assert 0.057 < doc["quasi-poisson"]["p_value"] < 0.061
    assert 0.046 < doc["sandwich-wald"]["p_value"] < 0.050
    # each table row's p-value string matches the JSON rendering
    for name, entry in doc.items():
        row = next(ln for ln in lines if ln.startswith(name))
        assert row.split()[-1] == str(entry["p_value"])


@pytest.mark.parametrize("text", ["count,wool,tension\n1,A,L\n2,B,M\n",
                                  "breaks,wool,tension\nA,A,L\nB,B,M\n"],
                         ids=["missing", "text"])
def test_cmd_warpbreaks_data_needs_a_numeric_breaks_column(tmp_path, capsys, text):
    path = tmp_path / "loom.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["warpbreaks", "--data", str(path)]) == 2
    assert "response column 'breaks' is missing or not numeric" in capsys.readouterr().err


# ------------------------------------------------------------------ #
# any argument list over any small CSV ends in exit 0, 2 or 3
# ------------------------------------------------------------------ #

_CELLS = st.one_of(
    st.integers(0, 6).map(str),
    st.floats(-3, 3, allow_nan=False).map(repr),
    st.sampled_from(["", " ", "nan", "inf", "-inf", "1e308", "-1", "0.5", "a", "b"]),
)
_COLUMNS = ("y", "x", "z", "g")


@st.composite
def _csv_text(draw):
    rows = draw(st.integers(2, 12), label="rows")
    cols = []
    for _ in _COLUMNS:
        if draw(st.booleans(), label="constant"):
            cols.append([draw(_CELLS, label="cell")] * rows)
        else:
            cols.append(draw(st.lists(_CELLS, min_size=rows, max_size=rows), label="cells"))
    return "\n".join(",".join(r) for r in [_COLUMNS, *zip(*cols)]) + "\n"


def _options():
    names = st.sampled_from(["x", "z", "g", "x,z", "x,g", "y", "q", ""])
    flags = {
        "--family": st.sampled_from(["gaussian", "poisson", "binomial", "gamma"]),
        "--method": st.sampled_from(["basic", "effective", "parametric", "sandwich",
                                     "quasi", "all", "exact"]),
        "--alternative": st.sampled_from(["greater", "less", "two-sided",
                                          "two-sided-abs", "two-sided-tails", "both"]),
        "--alpha": st.sampled_from(["0", "1", "nan", "-1", "0.05", "0.5", "inf"]),
        "--w": st.integers(0, 4096).map(str),
        "--mode": st.sampled_from(["with-replacement", "without-replacement",
                                   "exhaustive", "bootstrap"]),
        "--seed": st.integers(-2, 2**70).map(str),
        "--null-value": st.sampled_from(["0", "1", "0,0", "nan", "inf", "1e308", "a", ""]),
        "--vhat": st.sampled_from(["identity", "inv-effective-info", "sandwich"]),
        "--nuisance": names,
    }
    pairs = st.fixed_dictionaries({}, optional=flags)
    return st.tuples(names, pairs, st.booleans(), st.booleans())


@settings(max_examples=300, deadline=None)
@given(text=_csv_text(), options=_options())
# each example below once ended in a warning or a bare exception
@example(text="y,x,z,g\n0,inf,0,0\n0,inf,0,0\n", options=("x", {}, False, False))
@example(text="y,x,z,g\na,0,0,0\na,0,0,1\n", options=("g", {}, False, False))
@example(text="y,x,z,g\n0,0,0,0\n0,1,0,0\n",
         options=("x", {"--null-value": "a"}, False, False))
@example(text="y,x,z,g\n3,0,0,0\n3,1e308,0,0\n", options=("x", {}, False, False))
def test_cmd_test_any_arguments_end_in_a_documented_exit_code(tmp_path_factory, text,
                                                              options):
    tested, flags, intercept, as_json = options
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_text(text, encoding="utf-8")
    argv = ["test", "--data", str(path), "--response", "y", "--tested", tested]
    argv += [a for flag, value in flags.items() for a in (flag, value)]
    argv += ["--intercept"] * intercept + ["--json"] * as_json
    _assert_documented_exit(argv, text)


def _assert_documented_exit(argv, *context):
    """Run the CLI in-process with warnings as errors; exit 0, 2 or 3."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse refusing a flag value
            rc = exc.code
    assert rc in (0, 2, 3), (argv, *context, err.getvalue())


# flag -> values that make a valid scenario run; _BAD_TEXT replaces at most one
_SIM_FLAGS = {
    "--n": st.integers(2, 40).map(str),
    "--w": st.integers(2, 64).map(str),
    "--seed": st.integers(0, 2**70).map(str),
    "--beta": st.sampled_from(["0", "0.2", "-0.5", "0,0", "0.5,0.2,0,0,0"]),
    "--gamma0": st.sampled_from(["0", "1", "0,0", "0.5,0.2,0,0,0"]),
    "--gamma0-latent": st.sampled_from(["0", "0.5", "1"]),
    "--rho": st.sampled_from(["0", "0.3", "0.5"]),
    "--theta": st.sampled_from(["0.5", "1", "10"]),
    "--sigma": st.sampled_from(["0.5", "1", "3"]),
    "--sigma-rule": st.sampled_from(["exp-index", "constant"]),
}
_BAD_TEXT = st.sampled_from(["-2", "-1", "0", "1", "2.5", "60", "nan", "inf", "-inf",
                             "1e308", "a", "", "1,a", "uniform"])
# huge n or w is refused before anything is allocated; a huge reps is
# harmless here, since the --reps flag that every example gives wins
_BAD_SIZE = st.sampled_from(["-2", "0", "1", "2.5", "nan", "inf", "a", "", "1e15",
                             "1e308"])
_CONFIG_KEYS = ("n", "reps", "w", "seed", "beta", "gamma0", "gamma0_latent", "rho",
                "theta", "sigma_rule", "sigma", "alpha_grid")


@st.composite
def _config_text(draw):
    lines = []
    for _ in range(draw(st.integers(0, 3), label="lines")):
        key = draw(st.sampled_from([*_CONFIG_KEYS, "scenario", "foo"]), label="key")
        flag = "--" + key.replace("_", "-")
        if flag in _SIM_FLAGS and draw(st.booleans(), label="valid"):
            value = draw(_SIM_FLAGS[flag], label="value")
        else:
            value = draw(_BAD_SIZE if key in ("n", "reps", "w") else _BAD_TEXT,
                         label="value")
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


@st.composite
def _warpbreaks_csv(draw):
    header = draw(st.permutations(["breaks", "wool", "tension", "x"]), label="header")
    if draw(st.booleans(), label="drop a column"):
        header = [c for c in header if c != draw(st.sampled_from(header))]
    clean = {"breaks": st.integers(0, 70).map(str), "wool": st.sampled_from("AB"),
             "tension": st.sampled_from("LMH"), "x": st.integers(-3, 3).map(str)}
    dirty = st.sampled_from(["", "-1", "0.5", "nan", "1e308", "A", "C", "L"])
    cells = [clean[c] | dirty if draw(st.integers(0, 3), label="dirty") == 0 else clean[c]
             for c in header]
    rows = draw(st.lists(st.tuples(*cells), max_size=16), label="rows")
    return "\n".join(",".join(r) for r in [header, *rows]) + "\n"


@st.composite
def _simulate_or_warpbreaks(draw):
    """An argument list and the files it names, as {placeholder: text}.

    ``--reps`` is always given and at most 3, so no example runs the
    default 2000 repetitions; a file may be missing.
    """
    files = {}
    if draw(st.booleans(), label="simulate"):
        scenario = draw(st.sampled_from(["overdispersed-nuisance", "ignored-latent",
                                         "power-correct-model", "hetero-t",
                                         "multivariate", "bogus"]), label="scenario")
        argv = ["simulate", "--scenario", scenario,
                "--reps", draw(st.integers(1, 3).map(str), label="reps")]
        flags = draw(st.fixed_dictionaries({}, optional=_SIM_FLAGS), label="flags")
        if draw(st.integers(0, 2), label="corrupt a flag") == 0:
            bad = draw(st.sampled_from(sorted(_SIM_FLAGS)), label="bad flag")
            flags[bad] = draw(_BAD_TEXT, label="bad value")
        config = draw(st.sampled_from([None, "{cfg}", None, "{cfg}", "{missing}"]),
                      label="config")
        if config is not None:
            flags["--config"] = config
            files["cfg"] = draw(_config_text(), label="config text")
        if draw(st.booleans(), label="out"):
            flags["--out"] = "{out}"
    else:
        argv = ["warpbreaks", "--w", draw(st.integers(-1, 64).map(str), label="w")]
        flags = {"--data": "{data}"}
        files["data"] = draw(_warpbreaks_csv(), label="data")
        if draw(st.booleans(), label="json"):
            argv.append("--json")
    argv += [a for flag, value in flags.items() for a in (flag, value)]
    return argv, files


@settings(max_examples=300, deadline=None)
@given(case=_simulate_or_warpbreaks())
# each example below once ended in a bare exception
@example(case=(["simulate", "--scenario", "hetero-t", "--reps", "1",
                "--config", "{cfg}"], {"cfg": "foo=1\n"}))
@example(case=(["simulate", "--scenario", "hetero-t", "--reps", "1",
                "--config", "{cfg}"], {"cfg": "scenario=multivariate\n"}))
@example(case=(["simulate", "--scenario", "ignored-latent", "--reps", "1",
                "--config", "{cfg}"], {"cfg": "beta=abc\n"}))
@example(case=(["simulate", "--scenario", "ignored-latent", "--reps", "1",
                "--n", "0"], {}))
@example(case=(["simulate", "--scenario", "overdispersed-nuisance", "--reps", "1",
                "--n", "20", "--w", "10", "--theta", "-1"], {}))
@example(case=(["simulate", "--scenario", "power-correct-model", "--reps", "1",
                "--n", "20", "--w", "10", "--beta", "60"], {}))
@example(case=(["simulate", "--scenario", "hetero-t", "--reps", "1",
                "--config", "{missing}"], {}))
@example(case=(["warpbreaks", "--w", "10", "--data", "{data}"],
               {"data": "breaks,tension\n1,L\n2,M\n"}))
@example(case=(["simulate", "--scenario", "ignored-latent", "--reps", "1",
                "--config", "{cfg}"], {"cfg": "n=1e308\n"}))
@example(case=(["simulate", "--scenario", "ignored-latent", "--reps", "1",
                "--config", "{cfg}"], {"cfg": "w=1e308\n"}))
@example(case=(["simulate", "--scenario", "hetero-t", "--reps", "1",
                "--config", "{cfg}"], {"cfg": "n=1e15\n"}))
@example(case=(["simulate", "--scenario", "multivariate", "--reps", "1",
                "--config", "{cfg}"], {"cfg": "w=1e15\n"}))
def test_cmd_simulate_and_warpbreaks_any_arguments_end_in_a_documented_exit_code(
        tmp_path_factory, case):
    argv, files = case
    base = tmp_path_factory.getbasetemp()
    paths = {"missing": base / "missing.txt", "out": base / "curve.csv"}
    for name, text in files.items():
        paths[name] = base / f"fuzz-{name}.txt"
        paths[name].write_text(text, encoding="utf-8")
    argv = [a.format(**paths) for a in argv]
    _assert_documented_exit(argv, files)

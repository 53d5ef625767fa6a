"""Command-line interface.

Three subcommands: ``test`` runs one (or all) of the tests on a CSV
dataset, ``simulate`` runs a rejection-probability scenario and writes
the curve as CSV, and ``warpbreaks`` runs the five tests of ``test
--method all`` on the embedded loom dataset at the default settings.
Exit codes: 0 success, 2 input error, 3 numerical failure.  Output is
deterministic for fixed flags and seed.
"""

import argparse
import json
import re
import sys

import numpy as np

from .baselines import parametric_score_test, quasi_score_test, sandwich_wald_test
from .datasets import warpbreaks
from .design import build_design, read_csv
from .engine import ALTERNATIVES, FLIP_METHODS, VHATS, flip_test
from .exceptions import DesignError, NumericalError, check_alpha
from .families import FAMILIES, family_from_name
from .flips import MODES
from .simulate import SETTINGS, SIGMA_RULES, parse_setting, read_config_file, run_scenario
from .simulate import scenario_config, write_curve_csv

_BASELINES = {
    "parametric": parametric_score_test,
    "quasi": quasi_score_test,
    "sandwich": sandwich_wald_test,
}
_ALL_METHODS = (*_BASELINES, *FLIP_METHODS)
# every scenario setting has a flag but the alpha grid, which a config file sets
_SIM_FLAGS = [name for name in SETTINGS if name != "alpha_grid"]
_JSON_FIELDS = ("method", "statistic", "p_value", "reject", "alpha", "w", "seed")


def _result_dict(res):
    return {name: getattr(res, name) for name in _JSON_FIELDS}


def _print_result(res):
    print(f"method: {res.method}")
    print(f"statistic: {res.statistic}")
    print(f"p_value: {res.p_value}")
    print(f"reject at alpha {res.alpha}: {res.reject}")
    if res.w is not None:
        print(f"w: {res.w}")
    if res.seed is not None:
        print(f"seed: {res.seed}")


def _run_method(method, y, design, family, args):
    if method in _BASELINES:
        return _BASELINES[method](y, design, family, args.alternative, args.alpha)
    # the baselines read two-sided-abs as two-sided; the flip tests need its name
    alternative = "two-sided-abs" if args.alternative == "two-sided" else args.alternative
    return flip_test(y, design, family, method=method, alternative=alternative,
                     alpha=args.alpha, w=args.w, mode=args.mode, seed=args.seed,
                     vhat=args.vhat)


def _response(table, name):
    y = table.get(name)
    if y is None or y.dtype.kind != "f":
        raise DesignError(f"response column {name!r} is missing or not numeric")
    return y


def cmd_test(args):
    check_alpha(args.alpha)  # before any method runs, so none is skipped for it
    table = read_csv(args.data)
    y = _response(table, args.response)
    tested = [s for s in args.tested.split(",") if s]
    nuisance = [s for s in args.nuisance.split(",") if s] if args.nuisance else []
    null_value = None
    if args.null_value:
        try:
            null_value = [float(v) for v in args.null_value.split(",")]
        except ValueError:
            raise DesignError("--null-value must be comma-separated numbers") from None
    design = build_design(
        {k: v for k, v in table.items() if k != args.response},
        tested=tested,
        nuisance=nuisance,
        intercept=args.intercept,
        null_value=null_value,
    )
    family = family_from_name(args.family)
    if args.method != "all":
        results = [_run_method(args.method, y, design, family, args)]
    else:
        # a method that cannot handle this design is skipped, not fatal
        results = []
        for method in _ALL_METHODS:
            try:
                results.append(_run_method(method, y, design, family, args))
            except DesignError as exc:
                print(f"skipped {method}: {exc}", file=sys.stderr)
        if not results:
            raise DesignError("every method was skipped")
    for i, res in enumerate(results):
        if i:
            print()
        _print_result(res)
    if args.json:
        doc = [_result_dict(r) for r in results]
        print(json.dumps(doc if args.method == "all" else doc[0]))
    return 0


def cmd_simulate(args):
    overrides = read_config_file(args.config) if args.config else {}
    for name in _SIM_FLAGS:
        text = getattr(args, name)
        if text is not None:
            overrides[name] = parse_setting(name, text)
    cfg = scenario_config(args.scenario, **overrides)
    curve = run_scenario(cfg)
    if args.out:
        write_curve_csv(curve, args.out)
    if curve.failures:
        print(f"excluded {len(curve.failures)} failed repetition(s): "
              + ",".join(str(r) for r in curve.failures), file=sys.stderr)
    for a in (0.01, 0.05, 0.1):
        hits = [i for i, g in enumerate(curve.alpha) if abs(g - a) < 1e-12]
        if not hits:
            continue
        i = hits[0]
        rates = "  ".join(f"{m}={curve.rates[m][i]:.4f}" for m in curve.rates)
        print(f"alpha={a:g}: {rates}", file=sys.stderr)
    return 0


def cmd_warpbreaks(args):
    table = read_csv(args.data) if args.data else warpbreaks()
    y = _response(table, "breaks")
    design = build_design({k: v for k, v in table.items() if k != "breaks"},
                          tested=["wool"], nuisance=["tension"], intercept=True)
    family = family_from_name("poisson")
    rows = [_run_method(m, y, design, family, args) for m in _ALL_METHODS]
    width = max(len(res.method) for res in rows)
    print(f"{'method'.ljust(width)}  p_value")
    for res in rows:
        print(f"{res.method.ljust(width)}  {res.p_value}")
    if args.json:
        print(json.dumps({res.method: _result_dict(res) for res in rows}))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="signflip",
        description="Sign-flip score tests for (possibly misspecified) GLMs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("test", help="run a test on a CSV dataset")
    p.add_argument("--data", required=True, help="path to a headered CSV file")
    p.add_argument("--response", required=True, help="response column name")
    p.add_argument("--tested", required=True,
                   help="comma-separated tested column names")
    p.add_argument("--nuisance", default="",
                   help="comma-separated nuisance column names")
    p.add_argument("--intercept", action="store_true",
                   help="include an intercept in the nuisance block")
    p.add_argument("--family", default="poisson", choices=FAMILIES)
    p.add_argument("--method", default="effective", choices=(*_ALL_METHODS, "all"))
    p.add_argument("--alternative", default="two-sided",
                   choices=("two-sided", *ALTERNATIVES))
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--w", type=int, default=5000, help="number of flips")
    p.add_argument("--mode", default="with-replacement", choices=MODES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--null-value", default="",
                   help="comma-separated hypothesized tested coefficients")
    p.add_argument("--vhat", default="identity", choices=VHATS,
                   help="quadratic-form matrix for d > 1")
    p.add_argument("--json", action="store_true",
                   help="also emit a machine-readable JSON document")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser(
        "simulate", help="run a rejection-probability scenario",
        description="Each --<field> flag sets that SimConfig field as a config line "
                    f"does. sigma-rule is one of {', '.join(SIGMA_RULES)}.")
    p.add_argument("--scenario", required=True)
    p.add_argument("--config", help="flat key=value scenario file")
    for name in _SIM_FLAGS:
        p.add_argument("--" + name.replace("_", "-"), dest=name)
    p.add_argument("--out", help="write the rejection curve CSV here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("warpbreaks", help="reproduce the warpbreaks analyses")
    p.add_argument("--w", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--data", help="CSV override for the embedded dataset")
    p.add_argument("--json", action="store_true")
    # the test settings are fixed at the defaults of the library's tests
    p.set_defaults(func=cmd_warpbreaks, alternative="two-sided", alpha=0.05,
                   mode="with-replacement", vhat="identity")
    return parser


def _join_negative_values(argv):
    """argv with each argument that starts with '-' and a digit or '.' joined to its flag.

    argparse reads only -N and -N.N as values, so ``--beta -1e-2`` and
    ``--null-value -1,2`` would end in "expected one argument"; no flag
    starts that way, and ``--beta=-1e-2`` is read as meant.
    """
    joined = []
    for arg in argv:
        if joined and re.fullmatch(r"--[\w-]+", joined[-1]) and re.match(r"-[\d.]", arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        # overflow or an invalid operation ends the run instead of a warning
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except DesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

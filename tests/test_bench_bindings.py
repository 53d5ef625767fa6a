"""The names the benchmark binds stay in the package.

``bench/tracer.py`` wraps every function its ``CALL_SITES`` names, and
its counters read ``FlipPlan.signs``, ``Fit.iterations`` and
``RejectionCurve.failed_reps``.  Removing one of them breaks the
benchmark, not the package, so these checks keep them in view.  The
tracer is run from its path without writing anything next to it.
"""

import runpy
from dataclasses import fields
from pathlib import Path

import signflip

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_call_site_resolves_to_a_callable():
    call_sites = runpy.run_path(str(TRACER))["CALL_SITES"]
    missing = [
        f"{module_name}.{attr}"
        for module_name, attrs in call_sites.items()
        for attr in attrs
        if not callable(getattr(getattr(signflip, module_name), attr, None))
    ]
    assert not missing


def test_fields_the_tracer_counters_read_exist():
    for cls, name in ((signflip.FlipPlan, "signs"), (signflip.Fit, "iterations"),
                      (signflip.RejectionCurve, "failed_reps")):
        assert name in {f.name for f in fields(cls)}, f"{cls.__name__}.{name}"

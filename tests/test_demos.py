"""Every demo runs to the end without a warning.

Each demo runs in-process with ``runpy`` in a temporary working
directory, because demo 04 writes its curve CSVs to the working
directory.
"""

import runpy
import warnings
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("[0-9][0-9]_*.py"))


def test_the_demos_are_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_without_a_warning(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out

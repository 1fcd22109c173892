"""Every script in demos/ runs to the end.

The demos call the public API (run_analysis, render_julia, Orbit,
RationalMap.valency_at) the way a reader would; each runs in a fresh
temporary working directory because demo_render.py writes PPM files.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out

"""Smoke test: the first four demos run to completion.

Each runs as its own process in a scratch directory, so files a demo writes
(demo 03's CSV and SVG) land there. Demo 05 is left out: it takes seconds,
and acceptance criterion 8 already runs the same comparison.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixfree as mf

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", ["01_mixing_coefficients.py", "02_blocked_bernstein.py",
                                  "03_erm_rate_sweep.py", "04_bound_report.py"])
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=str(Path(mf.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr

"""The demos run to completion, with RuntimeWarnings as errors.

``channel_lower_bounds.py`` is the slowest, at about 8 s on a 2-core host.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["quadrature_accuracy.py", "gaussian_sampling.py",
                                  "quantized_bit_budget.py", "channel_lower_bounds.py"])
def test_demo_exits_cleanly(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=600)
    assert proc.returncode == 0, proc.stderr

"""The benchmark harness still runs against the package.

perfbench builds its models and training runs through the public API
(`EnhancementModel(cfg.model)`, `train_toy(..., mode=cfg.loss_mode, ...)`,
`track_allocations`), so an API change that breaks it should fail here
rather than in a benchmark run. The self-test writes only under the
git-ignored `perfbench/work/` and `perfbench/results/`.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, text=True,
        capture_output=True, timeout=900, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout

"""The benchmark's own smoke test, run as part of the suite so that its
gates (valid branch-and-bound schedules, seeded searches exploring no more
nodes than cold ones, every declared metric present with its unit) hold on
every change to the package."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke():
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]

"""Run the whole tier-1 suite under each BLAS setting of the kernel matrix.

    python tests/kernel_matrix.py

Each setting of ``support.BLAS_SETTINGS`` (and the default, first, for
comparison) gets one fresh interpreter running the tier-1 command, one
after another, and a line with its passed, failed and xfailed counts. The
exit status is 1 if any run had a failure or an error. pytest does not
collect this file; tier-1's own kernel-matrix test
(``tests/test_spatial.py``) runs a subset of the suite under the same
settings.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from support import BLAS_SETTINGS  # noqa: E402

OUTCOMES = ("passed", "failed", "xfailed", "error")


def run_suite(setting: dict) -> dict:
    """Outcome counts of one tier-1 run with ``setting`` added to the environment."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path, **setting))
    summary = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else run.stderr
    counts = {kind: 0 for kind in OUTCOMES}
    for n, kind in re.findall(r"(\d+) (passed|failed|xfailed|errors?)\b", summary):
        counts[kind.rstrip("s")] += int(n)
    if run.returncode not in (0, 1) or not any(counts.values()):
        counts["error"] += 1  # the suite did not run to its summary
    return counts


def main() -> int:
    bad = False
    for setting in [{}, *BLAS_SETTINGS]:
        counts = run_suite(setting)
        name = " ".join(f"{k}={v!r}" for k, v in setting.items()) or "default"
        print(f"{name}: " + ", ".join(f"{counts[k]} {k}" for k in OUTCOMES), flush=True)
        bad |= counts["failed"] > 0 or counts["error"] > 0
    return int(bad)


if __name__ == "__main__":
    sys.exit(main())

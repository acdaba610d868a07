"""Run the tier-1 suite and fail on any failure beyond the standing ones.

The standing failures are the FAILED lines of test_output.txt, the recorded
tier-1 run (today acceptance 1, 4 and 5, which the toolkit cannot yet meet).
Every test is run: nothing is deselected, skipped or marked as expected to
fail.  The exit status is 1 when a test outside that list fails or errors, or
when pytest stops for any other reason (an interrupted run, no tests), and 0
otherwise; a standing failure that starts to pass is reported, not refused.

Usage, from the repository root:

    python tools/tier1_gate.py
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "test_output.txt"


def failed_ids(lines) -> set[str]:
    """Test ids of the FAILED and ERROR lines of pytest's short summary."""
    out = set()
    for line in lines:
        kind, _, rest = line.partition(" ")
        if kind in ("FAILED", "ERROR") and rest:
            out.add(rest.split(" - ", 1)[0].strip())
    return out


def main() -> int:
    standing = failed_ids(RECORD.read_text(encoding="utf-8").splitlines())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "--continue-on-collection-errors"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    sys.stdout.write(run.stdout)
    sys.stderr.write(run.stderr)
    failed = failed_ids(run.stdout.splitlines())
    unexpected = sorted(failed - standing)
    print(f"tier-1 gate: {len(failed & standing)} of {len(standing)} standing failures failed")
    for test in sorted(standing - failed):
        print(f"tier-1 gate: standing failure now passes: {test}")
    for test in unexpected:
        print(f"tier-1 gate: unexpected failure: {test}")
    if run.returncode not in (0, 1):
        print(f"tier-1 gate: pytest exited {run.returncode}")
        return 1
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())

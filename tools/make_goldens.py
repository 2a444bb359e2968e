#!/usr/bin/env python3
"""Regenerate the golden outputs under tests/goldens.

Runs the solve subcommand on every shipped problem file and copies the
resulting solution.csv and report.json into a per-problem directory.
Run from anywhere; paths are resolved relative to this file.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tsvar import cli  # noqa: E402

PROBLEMS = ROOT / "problems"
GOLDENS = ROOT / "tests" / "goldens"


def main() -> int:
    problems = sorted(PROBLEMS.glob("*.json"))
    if not problems:
        print("no problem files found", file=sys.stderr)
        return 1
    for problem in problems:
        target = GOLDENS / problem.stem
        with tempfile.TemporaryDirectory() as scratch:
            rc = cli.main(["solve", str(problem), "--out", scratch])
            if rc != 0:
                print(f"solve failed ({rc}) for {problem}", file=sys.stderr)
                return rc
            target.mkdir(parents=True, exist_ok=True)
            for name in ("solution.csv", "report.json"):
                shutil.copy(Path(scratch) / name, target / name)
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

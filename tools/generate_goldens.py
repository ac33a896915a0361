#!/usr/bin/env python3
"""Regenerate the frozen audit reports under tests/goldens/.

The golden files pin the exact bytes of every audit the test suite
compares against.  Rerunning this script must be a no-op on a healthy
tree; any diff in a golden is a behaviour change and deserves review,
not a silent refresh.

Usage:
    python3 tools/generate_goldens.py [--jobs N]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from kconnseq.cli import canonical_json
from kconnseq.oracle import audit_corollary, audit_theorem1, audit_theorem2

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "goldens"

THEOREM_SIZES = range(2, 8)
THEOREM_KMAX = 3
COROLLARY_CASES = [
    (n, k, enforce)
    for n in range(2, 7)
    for k in (1, 2)
    for enforce in (True, False)
] + [(7, 2, True)]


def write_golden(path: Path, payload: dict) -> None:
    text = canonical_json(payload)
    if path.exists() and path.read_text() == text:
        print(f"  unchanged  {path.name}")
        return
    path.write_text(text)
    print(f"  wrote      {path.name}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)

    for n in THEOREM_SIZES:
        for audit in (audit_theorem1, audit_theorem2):
            report = audit(n, THEOREM_KMAX, jobs=args.jobs)
            write_golden(
                GOLDEN_DIR / f"{report.subject}_n{n}_kmax{THEOREM_KMAX}.json",
                report.to_json_dict(),
            )

    for n, k, enforce in COROLLARY_CASES:
        regime = "mindeg" if enforce else "all"
        report = audit_corollary(n, k, enforce, jobs=args.jobs)
        write_golden(
            GOLDEN_DIR / f"corollary_n{n}_k{k}_{regime}.json",
            report.to_json_dict(),
        )

    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Write the KL table of both bundled groups at radius 10 and run every
verification suite on them, with the classical oracle to the whole ball
for w237 and to length 8 (the command line's default) for w2224, then the
empirical-vs-conjectural comparison for w2224 at radius 11.

    python scripts/full_verification.py [WORKSPACE]

WORKSPACE defaults to a temporary directory, removed at the end, so a
plain run leaves the checkout as it was.  `polycell kl` writes each table
by the forward sweep.  `verify all` then solves the table again, which
re-checks the defining identity on every extremal pair (`kl_identity`),
compares P with the classical recursion up to the oracle length
(`kl_oracle`), and reads the written table back and checks every record
against the table it solved (`kl_cache`).  Exit status 0 means all
oracle comparisons agreed; 1 means some oracle or the comparison found a
disagreement; 2 signals usage or cache problems.  The whole run takes about
11 s on a 2-core Xeon, 2 s of it the comparison.
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from polycell.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run(workspace: Path):
    worst = 0
    # w237 to the whole ball; w2224 at the command line's defaults
    for group, radius, oracle_len in (("w237", 10, 10), ("w2224", 10, 8)):
        print(f"=== {group} ===")
        config = str(ROOT / f"groups/{group}.json")
        code = main(["kl", "--group", config, "--radius", str(radius),
                     "--workspace", str(workspace)])
        worst = max(worst, code)
        code = main([
            "verify", "all",
            "--group", config,
            "--radius", str(radius),
            "--oracle-length", str(oracle_len),
            "--workspace", str(workspace),
        ])
        worst = max(worst, code)
    # the scaling check: the W-graphs over the 6269 elements of ball(11)
    print("=== w2224 cells compare, radius 11 ===")
    code = main([
        "cells", "compare",
        "--group", str(ROOT / "groups/w2224.json"),
        "--radius", "11",
        "--trust-margin", "4",
        "--workspace", str(workspace),
    ])
    return max(worst, code)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit(run(Path(sys.argv[1])))
    with tempfile.TemporaryDirectory() as workspace:
        sys.exit(run(Path(workspace)))

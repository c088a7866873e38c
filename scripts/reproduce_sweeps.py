#!/usr/bin/env python3
"""Regenerate the optimal-waist / collection-efficiency sweep data.

Runs all six sweep presets (three stored-phase variants; the a/b panels
of one column share the same data) and writes one CSV per preset into
``out/``.  Each file carries ``w0_ratio`` (optimal waist over the
width-matched value sqrt(2) sigma_perp) and ``g_times_n`` (collected
photon number for N = 1000 atoms) per grid cell.

Takes about 13 s on a 2-core x86-64 machine (Python 3.11, numpy 2.4,
scipy 1.17); pass --quick for a coarse 10x12 grid.
"""

import argparse
import pathlib
import sys
import time

from gausscollect.cli import PRESETS, main as cli_main


def run(out_dir: pathlib.Path, quick: bool) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    for preset, phase in sorted(PRESETS.items()):
        target = out_dir / f"{preset}.csv"
        args = ["sweep", "--out", str(target)]
        if quick:
            args += ["--grid-perp", "1:50:10", "--grid-z", "1:1000:12", "--phase", phase]
        else:
            args += ["--preset", preset]
        t0 = time.time()
        code = cli_main(args)
        if code != 0:
            print(f"{preset}: FAILED with exit code {code}", file=sys.stderr)
            return code
        print(f"{preset} ({phase:7s}) -> {target}  [{time.time() - t0:.1f}s]")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out", type=pathlib.Path)
    ap.add_argument("--quick", action="store_true", help="coarse grid for a fast look")
    ns = ap.parse_args()
    sys.exit(run(ns.out_dir, ns.quick))

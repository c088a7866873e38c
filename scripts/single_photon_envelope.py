#!/usr/bin/env python3
"""Photon emission envelope for one cloud, all three stored phases.

For the given cloud geometry, finds each phase variant's optimal waist,
then writes the time-resolved envelope beta(t), its accumulated square
B(t), and the collected photon number n(t) to one CSV per variant.
Times are in units of the inverse decay rate; the drive is a constant
weak pulse.
"""

import argparse
import pathlib
import sys

import numpy as np

from gausscollect.emission_dynamics import PulseShape, photon_number
from gausscollect.ensemble_model import PHASE_VARIANTS, CloudGeometry
from gausscollect.waist_optimizer import optimal_waist_numeric


def run(sp: float, sz: float, n_atoms: int, rabi: float, out_dir: pathlib.Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    cloud = CloudGeometry(sp, sz)
    pulse = PulseShape.constant(rabi)
    # five pump e-foldings: B(t_end) = 1 - e^-5, so n(t_end) is about 99.3%
    # of G*N, not the fully transferred value
    t_end = 5.0 / (4.0 * rabi * rabi)
    t = np.linspace(0.0, t_end, 2001)
    for variant in PHASE_VARIANTS:
        best = optimal_waist_numeric(cloud, variant)
        curve = photon_number(cloud, variant, best.w0_max_bar, pulse, t, n_atoms)
        target = out_dir / f"envelope_{variant}.csv"
        header = "t,beta,big_b,n"
        data = np.column_stack([curve.times, curve.beta, curve.big_b, curve.n])
        np.savetxt(target, data, delimiter=",", header=header, comments="")
        print(
            f"{variant:16s}: w0_max = {best.w0_max_bar:8.3f}, "
            f"G*N = {best.g_max * n_atoms:7.3f}, n(t_end) = {curve.n[-1]:7.3f} -> {target}"
        )
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sigma-perp-bar", type=float, default=5.0)
    ap.add_argument("--sigma-z-bar", type=float, default=100.0)
    ap.add_argument("--n-atoms", type=int, default=1000)
    ap.add_argument("--rabi", type=float, default=0.05)
    ap.add_argument("--out-dir", default="out", type=pathlib.Path)
    ns = ap.parse_args()
    sys.exit(run(ns.sigma_perp_bar, ns.sigma_z_bar, ns.n_atoms, ns.rabi, ns.out_dir))

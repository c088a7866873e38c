"""Correctness gate on the outputs of a run, outside the timed region.

Every operation counts once towards ``attempted``: each CLI request
(failed on a nonzero exit), each optimized cell (failed unless its
status is ``ok``) and each check below (failed on a miss).
"""

from __future__ import annotations

import warnings

import numpy as np

from workloads import parse_output

# the default tolerance of ``gausscollect validate``
TOL = 1e-6
# relative waist offset at which the efficiency must not exceed the optimum
NEIGHBOUR = 1e-3
OPTIMIZING = ("sweep", "optimize")


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok: bool, label: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(label)


def optimum_rows(responses) -> list:
    return [row for r in responses if r.kind in OPTIMIZING and r.code == 0
            for row in parse_output(r.stdout)[1]]


def check_repetition(tally: Tally, responses, reference=None):
    """Exit codes and cell statuses of one repetition.

    The first repetition (``reference is None``) also gets the
    per-command output checks; later ones must reproduce its output
    byte for byte.
    """
    for i, resp in enumerate(responses):
        label = " ".join(resp.argv)
        tally.check(resp.code == 0, f"exit code {resp.code}: {label}")
        if resp.kind in OPTIMIZING and resp.code == 0:
            for row in parse_output(resp.stdout)[1]:
                tally.check(row["status"] == "ok",
                            f"cell status {row['status']}: {label} "
                            f"sp={row['sigma_perp_bar']} sz={row['sigma_z_bar']}")
        if reference is not None:
            same = i < len(reference) and resp.stdout == reference[i].stdout
            tally.check(same, f"output differs from the first repetition: {label}")
        elif resp.code == 0:
            _check_output(tally, resp, label)
    if reference is not None:
        tally.check(len(responses) == len(reference),
                    "repetition issued a different number of requests")


def _check_output(tally: Tally, resp, label: str):
    if resp.kind == "validate":
        last = resp.stdout.strip().splitlines()[-1:]
        tally.check(last == ["validation PASSED"], f"validate did not pass: {last}")
    elif resp.kind == "dynamics_constant":
        config, rows = parse_output(resp.stdout)
        expected = float(config["g_factor"]) * int(config["n_atoms"])
        n_end = float(rows[-1]["n"])
        tally.check(abs(n_end - expected) <= TOL * expected,
                    f"n(end) = {n_end!r} vs g_factor * n_atoms = {expected!r}: {label}")
    elif resp.kind == "farfield":
        forward = [float(row["s"]) for row in parse_output(resp.stdout)[1]
                   if float(row["theta"]) == 0.0]
        tally.check(len(forward) == 1 and abs(forward[0] - 1.0) <= 1e-12,
                    f"forward s = {forward}: {label}")


def check_optima(tally: Tally, rows, rng, count: int | None):
    """Oracle and stationarity checks on a seeded sample of optima.

    At the reported ``w0_max_bar`` the brute-force overlap must match
    the reported ``|xi|^2`` to :data:`TOL`, and the efficiency at
    ``w0 (1 +- 1e-3)`` must not exceed the one at ``w0``.  ``count`` of
    None checks every row.
    """
    from gausscollect.ensemble_model import CloudGeometry, make_profile
    from gausscollect.overlap_engine import compute_xi, xi_brute_force
    from gausscollect.paraxial_beam import ParaxialValidityWarning
    from gausscollect.special_math import QuadratureError

    if count is not None and count < len(rows):
        rows = [rows[i] for i in sorted(rng.choice(len(rows), count, replace=False))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParaxialValidityWarning)
        for row in rows:
            label = f"{row['phase']} sp={row['sigma_perp_bar']} sz={row['sigma_z_bar']}"
            if row["status"] != "ok":
                tally.check(False, f"sampled cell not ok ({row['status']}): {label}")
                continue
            cloud = CloudGeometry(float(row["sigma_perp_bar"]), float(row["sigma_z_bar"]))
            w0 = float(row["w0_max_bar"])
            variant = row["phase"]
            reported = float(row["xi_abs_sq"])
            try:
                oracle = xi_brute_force(cloud, w0, make_profile(variant, w0)).xi_abs_sq
            except QuadratureError as exc:
                tally.check(False, f"brute force failed ({exc}): {label}")
            else:
                rel = abs(reported - oracle) / oracle
                tally.check(rel <= TOL, f"|xi|^2 rel dev {rel:.2e} from brute force: {label}")
            g0 = compute_xi(cloud, w0, variant).geometric_factor
            side = [compute_xi(cloud, w0 * (1.0 + d), variant).geometric_factor
                    for d in (-NEIGHBOUR, NEIGHBOUR)]
            tally.check(max(side) <= g0,
                        f"G(w0 (1 +- 1e-3)) = {side} > G(w0) = {g0}: {label}")


def sample_rng(seed: int):
    """Stream for the gate's cell sample, independent of the input stream."""
    return np.random.default_rng([seed, 1])

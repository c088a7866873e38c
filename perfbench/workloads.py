"""Seeded workload inputs and the request sessions that drive the CLI.

Every workload is a closed loop with one client: the next request is
issued only after the previous one returned.  Requests go through
``gausscollect.cli.main`` with the argument lists a user would type, and
the package sees nothing but those arguments.  A workload's inputs are
fixed by its seed, so every repetition in a run issues the same
requests and must produce byte-identical output.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# the axes of the fig2 sweep presets (see ``gausscollect.cli``); the
# compensated sweep takes a strided sub-grid of them so that its cell
# mix follows the preset grids
PRESET_PERP = np.geomspace(1.0, 50.0, 50)
PRESET_Z = np.geomspace(1.0, 1000.0, 60)
SUBGRID_PERP = (6, 9)  # points, stride on the preset axis
SUBGRID_Z = (8, 8)

ENVELOPE_CLOUDS = 4
PHASES = ("uniform", "gouy", "full")


@dataclass
class Response:
    kind: str
    argv: list
    code: int
    stdout: str
    stderr: str
    start: float
    seconds: float


class Client:
    """One closed-loop client issuing CLI requests in process.

    ``between`` is called before each request, outside its timing.
    """

    def __init__(self, cli, between=None):
        self.cli = cli
        self.between = between

    def request(self, kind: str, argv: list) -> Response:
        if self.between is not None:
            self.between()
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        seconds = perf_counter() - start
        return Response(kind, list(argv), code, out.getvalue(), err.getvalue(), start, seconds)


def parse_output(text: str):
    """CSV output of one request -> (preamble config dict, list of row dicts)."""
    config = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# config: "):
            config = json.loads(line[len("# config: "):])
        elif not line.startswith("#") and line:
            body.append(line.split(","))
    if not body:
        return config, []
    header, rows = body[0], body[1:]
    return config, [dict(zip(header, row)) for row in rows]


def _subgrid(axis: np.ndarray, points: int, stride: int, rng) -> str:
    offset = int(rng.integers(0, axis.size - stride * (points - 1)))
    first, last = axis[offset], axis[offset + stride * (points - 1)]
    return f"{float(first)!r}:{float(last)!r}:{points}"


def _cloud_flags(sp: float, sz: float) -> list:
    return ["--sigma-perp-bar", repr(sp), "--sigma-z-bar", repr(sz)]


# ---------------------------------------------------------------------------
# sweep_compensated
# ---------------------------------------------------------------------------

def plan_sweep_compensated(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "grid_perp": _subgrid(PRESET_PERP, *SUBGRID_PERP, rng),
        "grid_z": _subgrid(PRESET_Z, *SUBGRID_Z, rng),
    }


def session_sweep_compensated(client: Client, plan: dict) -> list:
    return [
        client.request("sweep", ["sweep", "--phase", phase,
                                 "--grid-perp", plan["grid_perp"], "--grid-z", plan["grid_z"]])
        for phase in ("gouy", "full")
    ]


# ---------------------------------------------------------------------------
# sweep_uniform
# ---------------------------------------------------------------------------

def plan_sweep_uniform(seed: int) -> dict:
    # the preset fixes the grid; the seed only picks the cells the
    # correctness gate re-checks
    return {"preset": "fig2a1"}


def session_sweep_uniform(client: Client, plan: dict) -> list:
    return [client.request("sweep", ["sweep", "--preset", plan["preset"]])]


# ---------------------------------------------------------------------------
# envelope_session
# ---------------------------------------------------------------------------

def plan_envelope_session(seed: int) -> dict:
    """Clouds in the preset box, one per stratum of a Latin hypercube
    over (log sigma_perp, log sigma_z), plus a far-field seed each."""
    rng = np.random.default_rng(seed)
    k = ENVELOPE_CLOUDS
    u_perp = (rng.permutation(k) + rng.random(k)) / k
    u_z = (rng.permutation(k) + rng.random(k)) / k
    clouds = []
    for a, b in zip(u_perp, u_z):
        sp = float(np.round(50.0 ** a, 6))
        sz = float(np.round(1000.0 ** b, 6))
        clouds.append({"sp": sp, "sz": sz,
                       "farfield_seed": int(rng.integers(0, 2**31 - 1))})
    return {"clouds": clouds}


def session_envelope(client: Client, plan: dict) -> list:
    responses = []
    for cloud in plan["clouds"]:
        flags = _cloud_flags(cloud["sp"], cloud["sz"])
        for phase in PHASES:
            opt = client.request("optimize", ["optimize", *flags, "--phase", phase])
            responses.append(opt)
            rows = parse_output(opt.stdout)[1] if opt.code == 0 else []
            if not rows or rows[0]["status"] != "ok":
                continue
            waist = ["--waist-bar", rows[0]["w0_max_bar"], "--phase", phase]
            responses.append(client.request(
                "dynamics_constant", ["dynamics", *flags, *waist]))
            responses.append(client.request(
                "dynamics_gaussian", ["dynamics", *flags, *waist, "--pulse", "gaussian"]))
            responses.append(client.request("xi", ["xi", *flags, *waist]))
            responses.append(client.request(
                "farfield", ["farfield", *flags, *waist, "--seed", str(cloud["farfield_seed"])]))
    responses.append(client.request("validate", ["validate", "--suite", "all"]))
    return responses


WORKLOADS = {
    "sweep_compensated": (plan_sweep_compensated, session_sweep_compensated),
    "sweep_uniform": (plan_sweep_uniform, session_sweep_uniform),
    "envelope_session": (plan_envelope_session, session_envelope),
}

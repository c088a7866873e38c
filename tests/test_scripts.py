"""Smoke tests of the scripts under ``scripts/``, run as a user would."""

import os
import pathlib
import subprocess
import sys

import pytest

from gausscollect.cli import PRESETS
from gausscollect.ensemble_model import PHASE_VARIANTS

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script, args, files", [
    ("reproduce_sweeps.py", ["--quick"], [f"{preset}.csv" for preset in PRESETS]),
    ("single_photon_envelope.py", [], [f"envelope_{v}.csv" for v in PHASE_VARIANTS]),
], ids=["reproduce_sweeps", "single_photon_envelope"])
def test_script_writes_its_csv_files(tmp_path, script, args, files):
    out = tmp_path / "out"
    proc = run_script(script, *args, "--out-dir", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.iterdir()) == sorted(files)
    for name in files:
        lines = (out / name).read_text().splitlines()
        assert len(lines) > 2

"""The traced benchmark still finds every layer it wraps.

``perfbench/tracing.py`` and ``perfbench/child.py`` replace functions by
module attribute name, so renaming one of them would silently drop its span.
Each test runs one traced sweep through ``perfbench/child.py`` in a fresh
process, as the benchmark does, and checks the spans it recorded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

COMMON = """\
family = gaussian
p = 20
s = 2
theta_magnitude = 0.5
n_grid = 20,40
trials = 2
mc_samples = 200
master_seed = 3
rsc_directions = 100
"""

TINY = {
    "matched": (COMMON, {"geometry.width_cone"}),
    "mismatched": (
        COMMON + "slack = 0.5\nmu_mode = theoretical\n",
        {"geometry.width_global", "geometry.width_localized"},
    ),
}

EVERY_SWEEP = {
    "experiment.prepare_sweep",
    "experiment.trial",
    "bounds.optimize_t",
    "geometry.proj_grad",
    "bounds.rsc",
    "bounds.bound",
}


@pytest.mark.parametrize("mode", sorted(TINY))
def test_traced_sweep_records_every_layer(mode, tmp_path):
    text, mode_spans = TINY[mode]
    config = tmp_path / f"{mode}.cfg"
    config.write_text(text)
    result = tmp_path / "result.json"
    env = {key: value for key, value in os.environ.items() if key != "CONEWIDTH_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "perfbench/child.py", str(result), "1", str(config), str(tmp_path / "out.csv")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(result.read_text())
    assert payload["exit_code"] == 0
    assert payload["setup_done"] is not None
    assert payload["trials_attempted"] == 4 and payload["failed_trials"] == []
    names = {span[0] for span in payload["trace"]["spans"]}
    assert EVERY_SWEEP | mode_spans <= names
    # the solver projects through the name the tracer wraps, not through the rows kernel
    assert payload["trace"]["counters"].get("solver.proj", [0])[0] > 0

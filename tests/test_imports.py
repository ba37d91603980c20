"""The run path's import graph.

Every campaign, sweep and artifact starts a fresh ``repro`` process, so
whatever the run path imports is paid before the first simulated event.
scipy and networkx are the two heavy packages the program can reach:
scipy loads only when a fairness audit is given hash-power shares, and
networkx only with :mod:`repro.p2p.topology`.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

RUN_PATH_MODULES = (
    "repro.cli",
    "repro.experiments.registry",
    "repro.experiments.fleet",
    "repro.measurement.campaign",
)


def test_run_path_loads_neither_scipy_nor_networkx():
    code = (
        "import importlib, sys\n"
        f"for name in {RUN_PATH_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "heavy = sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('scipy', 'networkx'))\n"
        "print(len(sys.modules), *heavy)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    loaded, *heavy = done.stdout.split()
    assert int(loaded) > 0
    assert heavy == []

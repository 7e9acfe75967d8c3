"""The package's import path stays light.

networkx backs only :meth:`repro.cdfg.DFG.to_networkx`, a debugging
export, so importing what the benchmark workloads and the CLI use must
not load it (it was about a third of ``import repro.*``); numpy is no
dependency at all.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: the repro packages the perfbench workloads import, plus the CLI.
PACKAGES = ("repro", "repro.cdfg", "repro.core", "repro.explore",
            "repro.flow", "repro.obs", "repro.service", "repro.sim",
            "repro.tech", "repro.workloads", "repro.cli")


def test_importing_repro_loads_neither_networkx_nor_numpy():
    code = ("import importlib, json, sys\n"
            f"for name in {PACKAGES!r}:\n"
            "    importlib.import_module(name)\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    loaded = {name.split(".")[0] for name in json.loads(out.stdout)}
    assert "repro" in loaded
    assert not loaded & {"networkx", "numpy"}

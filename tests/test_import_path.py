"""The package's import path stays light and its exports stay whole.

``repro`` has no runtime dependency beyond the standard library, so
importing what the benchmark workloads and the CLI use must load no
graph or numeric library, and every module must import, and every name
it exports resolve, with ``site`` disabled (no site-packages, no
``.pth`` hooks).
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


def _run(code: str, *flags: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout


def test_importing_repro_loads_neither_networkx_nor_numpy():
    code = ("import importlib, json, sys\n"
            f"for name in {PACKAGES!r}:\n"
            "    importlib.import_module(name)\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    loaded = {name.split(".")[0] for name in json.loads(_run(code))}
    assert "repro" in loaded
    assert not loaded & {"networkx", "numpy"}


_INTEGRITY = """
import importlib, json, pkgutil, sys
import repro

modules = ["repro"] + [info.name for info in pkgutil.walk_packages(
    repro.__path__, "repro.")]
unresolved = []
for name in modules:
    module = importlib.import_module(name)
    for export in getattr(module, "__all__", ()):
        if not hasattr(module, export):
            unresolved.append(f"{name}.{export}")
allowed = set(sys.stdlib_module_names) | {"repro", "__main__", "__mp_main__"}
foreign = sorted({key.split(".")[0] for key in sys.modules} - allowed)
print(json.dumps({"modules": len(modules), "unresolved": unresolved,
                  "foreign": foreign}))
"""


def test_every_module_imports_and_every_export_resolves_stdlib_only():
    report = json.loads(_run(_INTEGRITY, "-S"))
    assert report["modules"] > 50
    assert report["unresolved"] == []
    assert report["foreign"] == []

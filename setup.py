"""Package metadata for ``repro``.

This is the only packaging file; there is no ``pyproject.toml``.  A
classic ``setup.py`` keeps ``pip install -e . --no-build-isolation
--no-use-pep517`` working on hosts without the ``wheel`` package, where
PEP 660 editable installs cannot build.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["networkx"],
)

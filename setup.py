"""Packaging for ``repro``; all metadata lives here.

There is deliberately no ``pyproject.toml`` ``[build-system]`` table:
without one, ``pip install -e .`` falls back to ``setup.py develop``
and works offline without the ``wheel`` package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Reproduction of 'Faster MPC Algorithms for Approximate Allocation "
        "in Uniformly Sparse Graphs' (SPAA 2025)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.kernels.native": ["kernel.c"]},
    install_requires=["numpy", "scipy"],
)

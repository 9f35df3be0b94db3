"""Package metadata for ``pip install -e .`` (or ``python setup.py develop``).

The version is read as text from ``src/repro/__init__.py`` so that
installing never imports the package (or its dependencies).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8"), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    description="Wormhole-routed butterfly fat-tree performance models and "
    "simulators (Greenberg & Guan, ICPP 1997 reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy", "networkx"],
)

"""Setuptools shim.

There is no ``pyproject.toml`` yet; this file carries the minimal
packaging metadata so ``pip install -e .`` works and the ``py.typed``
marker (PEP 561) ships with the package.
"""

from setuptools import find_packages, setup

setup(
    name="repro-division-laws",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
    install_requires=["numpy"],
)

"""Package metadata for ``repro`` and its ``fpfa-map`` command.

Install for development with ``python setup.py develop``: it works
offline.  The repo has no pyproject.toml on purpose, because one makes
pip build in an isolated environment, and that needs network access.
"""

from setuptools import find_packages, setup

setup(
    name="fpfa-map",
    version="1.0.0",
    description="Mapping applications to an FPFA tile",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    entry_points={"console_scripts": ["fpfa-map = repro.cli:main"]},
)

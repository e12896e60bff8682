"""Packaging entry point for the GRECA reproduction.

The project is deliberately light on packaging machinery (it is a paper
reproduction developed from a source checkout with ``PYTHONPATH=src``), so
all metadata lives here rather than in a pyproject.toml.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.10.0",
    description=(
        "Reproduction of GRECA group recommendation (Amer-Yahia et al., "
        "EDBT 2015): threshold-style group evaluation with parallel, "
        "out-of-core and serving layers"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={"test": ["pytest", "hypothesis"]},
)

import re
from pathlib import Path

from setuptools import find_packages, setup

# The version lives in one place: the package's ``__version__``.
VERSION = re.search(
    r'^__version__ = "([^"]+)"$',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro-skew-parallel-query",
    version=VERSION,
    description=(
        "Reproduction of 'Skew in Parallel Query Processing' "
        "(Beame, Koutris, Suciu, PODS 2014)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)

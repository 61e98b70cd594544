from setuptools import find_packages, setup

setup(
    name="repro-skew-parallel-query",
    version="1.1.0",
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

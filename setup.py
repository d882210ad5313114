from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # Ship the scenario zoo recipes with the package.
    package_data={"repro.scenarios": ["zoo/*.yaml"]},
    include_package_data=True,
    # Only the networkx adapters (repro.io.to_networkx and friends).
    extras_require={"networkx": ["networkx"]},
    # Both spellings used across the docs; `python -m repro.cli`
    # always works without installation.
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
            "datasynth = repro.cli:main",
        ],
    },
)

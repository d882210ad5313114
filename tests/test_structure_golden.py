"""Structure golden: every registered generator's edges are frozen.

``tests/golden/structure/digests.json`` holds, per case and seed, the
sha256 of ``run(n)`` and (for chunkable configurations) of
``run_chunked(n, 37)`` — see ``tests/golden/structure/regenerate.py``.
Both kernel legs must reproduce every digest: the compiled kernels
where they load, and their numpy twins under ``REPRO_NO_CKERNEL=1``.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "structure"


def _load_regenerate():
    """Import the structure regenerate script under a unique module
    name (other golden directories own a ``regenerate`` module too)."""
    name = "golden_structure_regenerate"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(
        name, GOLDEN_DIR / "regenerate.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


REGEN = _load_regenerate()
CASES = REGEN.cases()
EXPECTED = json.loads(REGEN.FIXTURE_PATH.read_text())


def test_fixture_covers_every_case_and_generator():
    from repro.structure import available_generators

    assert sorted(EXPECTED) == sorted(CASES)
    assert {name for name, _, _ in CASES.values()} == set(
        available_generators()
    )


@pytest.mark.parametrize("leg", ["compiled", "numpy"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_structure_digest(case, leg, monkeypatch):
    if leg == "numpy":
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    else:
        monkeypatch.delenv("REPRO_NO_CKERNEL", raising=False)
    name, params, n = CASES[case]
    for seed in REGEN.SEEDS:
        assert REGEN.case_digests(name, params, n, seed) == (
            EXPECTED[case][str(seed)]
        ), f"{case} seed {seed}"

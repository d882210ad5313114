"""Regenerate the property-generator golden fixtures.

Run from the repository root::

    PYTHONPATH=src python tests/golden/properties/regenerate.py

The fixtures pin the **values** every registered builtin property
generator produced *before* the batched attribute-kernel rewrite: each
case runs the frozen legacy generator
(``tests/legacy_properties.py`` — the pre-rewrite ``run_many`` bodies,
verbatim) over several seeds and stores the outputs as JSON.
``tests/test_properties_vectorised.py`` asserts that both the frozen
legacy code and the vectorised kernels still reproduce these exact
values, so a semantic change to any generator — draw order, cdf
construction, clamping, string assembly — fails loudly instead of
silently regenerating every downstream dataset differently.

JSON keeps the fixtures reviewable; floats survive exactly
(``json`` emits shortest-roundtrip reprs), int64/bool/str directly,
and tuples (multi-value sets) are stored as lists — the test
normalises generated output the same way before comparing.

Only rerun this script when a value change is *intended*; the fixture
diff then documents exactly what changed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent
FIXTURE_PATH = GOLDEN_DIR / "fixtures.json"

SEEDS = (3, 11, 12345)
N = 48

VOCAB = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta",
         "eta", "theta", "iota", "kappa", "lambda", "mu"]
COUNTRIES = ["de", "fr", "es", "it", "nl"]
NAME_TABLE = {
    ("de", "f"): (["Anna", "Lena", "Mia"], [5, 3, 2]),
    ("de", "m"): (["Hans", "Max"], None),
    ("fr", "f"): (["Marie", "Chloe"], [1, 1]),
    ("fr", "m"): (["Jean"], None),
    ("es", "f"): (["Lucia"], None),
    ("es", "m"): (["Hugo", "Pablo"], [2, 1]),
}


def _dep_countries(n):
    values = np.empty(n, dtype=object)
    values[:] = [COUNTRIES[i % len(COUNTRIES)] for i in range(n)]
    return values


def _dep_sexes(n):
    values = np.empty(n, dtype=object)
    values[:] = ["f" if i % 2 == 0 else "m" for i in range(n)]
    return values


def _dep_unicode(n):
    values = np.empty(n, dtype=object)
    values[:] = [("smörgås", "日本", "naïve")[i % 3] for i in range(n)]
    return values


#: case name -> (generator name, params, dependency builders).
#: Every registered builtin generator appears at least once; cases
#: cover object/unicode string deps, int64 timestamps and float deps.
CASES = {
    "text": (
        "text",
        dict(vocabulary=VOCAB, min_words=2, max_words=7,
             zipf_exponent=1.1),
        (),
    ),
    "text_flat": (
        "text",
        dict(vocabulary=VOCAB[:5], min_words=1, max_words=3,
             zipf_exponent=0),
        (),
    ),
    "template": (
        "template",
        dict(template="{0} <{1}> #{id}"),
        (_dep_countries, lambda n: np.arange(n) * 0.25),
    ),
    "template_unicode": (
        "template",
        dict(template="[{0}]"),
        (_dep_unicode,),
    ),
    "categorical": (
        "categorical",
        dict(values=["a", "b", "c", "d"], weights=[4, 3, 2, 1]),
        (),
    ),
    "categorical_int": (
        "categorical",
        dict(values=[10, 20, 30]),
        (),
    ),
    "conditional": (
        "conditional",
        dict(table=NAME_TABLE, default=(["X", "Y"], [3, 1])),
        (_dep_countries, _dep_sexes),
    ),
    "conditional_single_dep": (
        "conditional",
        dict(table={c: ([f"cap_{c}"], None) for c in COUNTRIES}),
        (_dep_countries,),
    ),
    "weighted_dict": (
        "weighted_dict",
        dict(values=[f"topic{i}" for i in range(25)], exponent=1.3),
        (),
    ),
    "multi_value": (
        "multi_value",
        dict(values=list("abcdefghij"), min_size=1, max_size=4,
             exponent=1.2),
        (),
    ),
    "multi_value_uniform": (
        "multi_value",
        dict(values=list("pqrstu"), min_size=2, max_size=3,
             exponent=0),
        (),
    ),
    "uuid": ("uuid", dict(), ()),
    "uuid_time_ordered": ("uuid", dict(time_ordered=True), ()),
    "composite_key": ("composite_key", dict(prefix="user"), ()),
    "formula": (
        "formula",
        dict(function=lambda a, b: int(a) * 2 + int(b), dtype="int64"),
        (lambda n: np.arange(n, dtype=np.int64),
         lambda n: np.arange(n, dtype=np.int64) % 7),
    ),
    "lookup": (
        "lookup",
        dict(mapping={c: c.upper() for c in COUNTRIES}, default="??"),
        (_dep_countries,),
    ),
    "date_range": (
        "date_range",
        dict(start=1_500_000_000, end=1_600_000_000),
        (),
    ),
    "date_range_day": (
        "date_range",
        dict(start=1_500_000_000, end=1_600_000_000,
             granularity="day"),
        (),
    ),
    "after_dependency": (
        "after_dependency",
        dict(min_gap=1, max_gap=10_000),
        (lambda n: 1_000_000 + np.arange(n, dtype=np.int64) * 17,
         lambda n: 1_000_000 + ((np.arange(n, dtype=np.int64) * 31)
                                % 997)),
    ),
    "uniform_int": ("uniform_int", dict(low=-5, high=40), ()),
    "uniform_float": ("uniform_float", dict(low=-1.5, high=2.5), ()),
    "normal": (
        "normal",
        dict(mean=10.0, std=3.0, clip_low=2.0, clip_high=18.0),
        (),
    ),
    "zipf_int": ("zipf_int", dict(k=50, exponent=1.4), ()),
    "sequence": ("sequence", dict(start=100, step=-3), ()),
}


def case_inputs(case, seed, n=N):
    """``(generator_name, params, ids, stream, dep_arrays)`` for a case."""
    from repro.prng import RandomStream

    generator_name, params, dep_builders = CASES[case]
    ids = np.arange(n, dtype=np.int64)
    stream = RandomStream(seed, f"golden.{case}")
    deps = tuple(build(n) for build in dep_builders)
    return generator_name, params, ids, stream, deps


def encode_values(array):
    """JSON-stable encoding of a generator output array."""
    def encode(value):
        if isinstance(value, tuple):
            return [encode(v) for v in value]
        if isinstance(value, np.generic):
            return value.item()
        return value

    return {
        "dtype": str(array.dtype),
        "values": [encode(v) for v in array.tolist()],
    }


def regenerate():
    tests_dir = str(GOLDEN_DIR.parents[1])  # not on sys.path in a script
    if tests_dir not in sys.path:
        sys.path.insert(0, tests_dir)
    from legacy_properties import legacy_generator

    payload = {"n": N, "seeds": list(SEEDS), "cases": {}}
    for case in sorted(CASES):
        per_seed = {}
        for seed in SEEDS:
            name, params, ids, stream, deps = case_inputs(case, seed)
            generator = legacy_generator(name, **params)
            per_seed[str(seed)] = encode_values(
                generator.run_many(ids, stream, *deps)
            )
        payload["cases"][case] = {
            "generator": CASES[case][0],
            "seeds": per_seed,
        }
    FIXTURE_PATH.write_text(
        json.dumps(payload, indent=1, sort_keys=True, ensure_ascii=False)
        + "\n",
        encoding="utf-8",
    )
    return FIXTURE_PATH


if __name__ == "__main__":
    print(f"wrote {regenerate()}")

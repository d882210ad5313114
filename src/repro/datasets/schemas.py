"""Ready-made schemas, including the paper's running example (Figure 1).

:func:`social_network_schema` is the running example.  It is written
down once, as the zoo recipe ``social_network``:

* ``Person`` with name, country, interest, sex, creationDate —
  country follows a real-life-like skew, name follows
  ``P(name | country, sex)``;
* ``Message`` with topic and text;
* ``knows`` (Person *..* Person) with a power-law-ish degree
  distribution and a country homophily joint ("the Countries of pairs
  of connected Persons ... follow P'_country(X, Y)"), plus a
  creationDate greater than both endpoints' creationDates;
* ``creates`` (Person 1..* Message) with a power-law out-degree
  distribution ``D_creates`` and its own creationDate.
"""

from __future__ import annotations

import copy

__all__ = ["social_network_schema"]


def social_network_schema(
    affinity=0.8,
    avg_know_degree=20,
    max_know_degree=50,
    structure="lfr",
    num_countries=None,
):
    """The Figure 1 schema: the zoo recipe ``social_network`` with
    these five values patched in, compiled.

    Parameters
    ----------
    affinity:
        country homophily strength for the ``knows`` joint.
    avg_know_degree, max_know_degree:
        degree knobs of the ``knows`` structure generator.
    structure:
        SG name for ``knows``: "lfr" (default), "bter", "darwini", ...
    num_countries:
        truncate the country dictionary (keeps the most populous ones);
        useful at small scale factors so every country actually occurs.

    The recipe is this builder at 16 countries and average degree 18:

    >>> from repro.core.checkpoint import run_fingerprint
    >>> from repro.scenarios import compile_scenario, load_zoo
    >>> recipe = compile_scenario(load_zoo("social_network")).schema
    >>> builder = social_network_schema(num_countries=16,
    ...                                 avg_know_degree=18)
    >>> def fingerprint(schema):
    ...     return run_fingerprint(schema, {}, 0, 0, "csv")
    >>> fingerprint(recipe) == fingerprint(builder)
    True
    """
    # Lazy: the package imports ``datasets`` before ``scenarios``.
    from ..scenarios import compile_scenario, load_zoo

    recipe = copy.deepcopy(load_zoo("social_network").raw)
    country = recipe["nodes"]["Person"]["properties"]["country"]["params"]
    for table in country.values():
        if num_countries is None:
            del table["$dataset"]["limit"]
        else:
            table["$dataset"]["limit"] = num_countries
    knows = recipe["edges"]["knows"]
    knows["correlation"]["joint"]["$homophily"]["affinity"] = affinity
    degrees = {"avg_degree": avg_know_degree, "max_degree": max_know_degree}
    knows["structure"] = {"generator": structure, "params": {
        "lfr": {**degrees, "min_community": 10, "max_community": 50,
                "mu": 0.1},
        "bter": degrees,
        "darwini": degrees,
    }.get(structure, {})}
    return compile_scenario(recipe).schema

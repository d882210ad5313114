"""The scenario zoo: named, built-in workload recipes.

Recipes live as ``*.yaml`` files next to this module (``zoo/``); each
is a complete declarative workload — schema, scale, export defaults,
validation thresholds — runnable end-to-end with::

    repro scenario run social_network --out out/

>>> names = zoo_names()
>>> "social_network" in names and len(names) >= 8
True
>>> spec = load_zoo("social_network")
>>> spec.name
'social_network'
"""

from __future__ import annotations

import os

from .spec import ScenarioError, load_recipe

__all__ = ["load_zoo", "zoo_dir", "zoo_names", "zoo_specs"]


def zoo_dir():
    """Directory holding the built-in recipe files."""
    return os.path.join(os.path.dirname(__file__), "zoo")


def zoo_names():
    """Sorted names of the built-in scenarios."""
    names = []
    for entry in os.listdir(zoo_dir()):
        base, ext = os.path.splitext(entry)
        if ext in (".yaml", ".yml", ".json"):
            names.append(base)
    return sorted(names)


def _zoo_path(name):
    for ext in (".yaml", ".yml", ".json"):
        path = os.path.join(zoo_dir(), name + ext)
        if os.path.exists(path):
            return path
    raise ScenarioError(
        f"unknown scenario {name!r}; "
        f"built-in: {', '.join(zoo_names())} "
        "(or pass a recipe file path)"
    )


def load_zoo(name):
    """Load a built-in recipe by name (``ScenarioSpec``)."""
    return load_recipe(_zoo_path(name))


def zoo_specs():
    """All built-in recipes, as ``(name, ScenarioSpec)`` pairs."""
    return [(name, load_zoo(name)) for name in zoo_names()]

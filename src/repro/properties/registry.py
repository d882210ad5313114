"""Property generator registry (recipe name resolution)."""

from __future__ import annotations

from .base import PropertyGenerator
from .categorical import (
    CategoricalGenerator,
    ConditionalGenerator,
    WeightedDictGenerator,
)
from .datetime_gen import AfterDependencyGenerator, DateRangeGenerator
from .derived import FormulaGenerator, LookupGenerator
from .identifier import CompositeKeyGenerator, UuidGenerator
from .multivalue import MultiValueGenerator
from .numeric import (
    NormalGenerator,
    SequenceGenerator,
    UniformFloatGenerator,
    UniformIntGenerator,
    ZipfIntGenerator,
)
from .text import TemplateGenerator, TextGenerator

__all__ = [
    "available_property_generators",
    "create_property_generator",
    "register_property_generator",
]

_REGISTRY: dict[str, type] = {}


def register_property_generator(factory, name=None):
    """Register a PG class under ``name`` (defaults to its ``name`` attr)."""
    key = name or factory.name
    if not key or key == "abstract":
        raise ValueError("property generator needs a concrete name")
    _REGISTRY[key] = factory
    return factory


def available_property_generators():
    """Mapping of name -> PG class (copy)."""
    return dict(_REGISTRY)


def create_property_generator(name, **params):
    """Instantiate a registered PG by name."""
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown property generator {name!r}; "
            f"available: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[name](**params)


for _factory in (
    CategoricalGenerator,
    ConditionalGenerator,
    WeightedDictGenerator,
    DateRangeGenerator,
    AfterDependencyGenerator,
    FormulaGenerator,
    LookupGenerator,
    MultiValueGenerator,
    UuidGenerator,
    CompositeKeyGenerator,
    NormalGenerator,
    SequenceGenerator,
    UniformFloatGenerator,
    UniformIntGenerator,
    ZipfIntGenerator,
    TemplateGenerator,
    TextGenerator,
):
    register_property_generator(_factory)

"""Property Generators (the PG plug-in family of Section 4.1)."""

from .base import BoundGenerator, PropertyGenerator
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
from .registry import (
    available_property_generators,
    create_property_generator,
    register_property_generator,
)
from .text import TemplateGenerator, TextGenerator

__all__ = [
    "AfterDependencyGenerator",
    "BoundGenerator",
    "CategoricalGenerator",
    "CompositeKeyGenerator",
    "ConditionalGenerator",
    "DateRangeGenerator",
    "FormulaGenerator",
    "LookupGenerator",
    "MultiValueGenerator",
    "NormalGenerator",
    "PropertyGenerator",
    "SequenceGenerator",
    "TemplateGenerator",
    "TextGenerator",
    "UniformFloatGenerator",
    "UniformIntGenerator",
    "UuidGenerator",
    "WeightedDictGenerator",
    "ZipfIntGenerator",
    "available_property_generators",
    "create_property_generator",
    "register_property_generator",
]

"""Embedded dictionaries and ready-made schemas."""

from .countries import COUNTRIES, country_names, country_weights
from .names import (
    NAMES_BY_REGION_SEX,
    REGION_OF_COUNTRY,
    conditional_name_table,
)
from .schemas import social_network_schema
from .words import INTERESTS, TOPICS, VOCABULARY

__all__ = [
    "COUNTRIES",
    "INTERESTS",
    "NAMES_BY_REGION_SEX",
    "REGION_OF_COUNTRY",
    "TOPICS",
    "VOCABULARY",
    "conditional_name_table",
    "country_names",
    "country_weights",
    "social_network_schema",
]

"""Standard check sets derived automatically from a schema.

``standard_checks(schema)`` inspects the declarations and produces the
audit a benchmark designer would want by default:

* a cardinality check per non-*..* edge type;
* a date-ordering check per ``after_dependency`` edge property;
* a marginal check per declared ``categorical`` property with weights;
* a joint check per correlated edge type.

The only schema→checks derivation: ``repro validate`` uses the
defaults, the scenario compiler the recipe's warn/fail bands.
"""

from __future__ import annotations

from ..core.schema import Cardinality
from .checks import (
    CardinalityCheck,
    DateOrderingCheck,
    JointDistributionCheck,
    MarginalDistributionCheck,
)

__all__ = ["standard_checks"]


def standard_checks(schema, joint_max_ks=0.6, marginal_tolerance=0.05,
                    joint_warn_ks=None, marginal_warn_tolerance=None):
    """Derive the default audit from schema declarations.

    Parameters
    ----------
    schema:
        the :class:`~repro.core.schema.Schema` whose declarations
        (cardinalities, ``after_dependency`` properties, weighted
        ``categorical`` properties, correlations) imply the checks.
    joint_max_ks, marginal_tolerance:
        fail thresholds handed to the generated
        :class:`~repro.validation.JointDistributionCheck` /
        :class:`~repro.validation.MarginalDistributionCheck`.
    joint_warn_ks, marginal_warn_tolerance:
        their optional stricter warn thresholds (``None``: no band,
        the checks grade ``PASS`` or ``FAIL`` only).

    Examples
    --------
    The running example implies six checks:

    >>> from repro.datasets import social_network_schema
    >>> checks = standard_checks(social_network_schema())
    >>> [c.name for c in checks]      # doctest: +NORMALIZE_WHITESPACE
    ['joint[knows]', 'date_ordering[knows.creationDate]',
     'cardinality[creates]', 'date_ordering[creates.creationDate]',
     'marginal[Person.country]', 'marginal[Person.sex]']
    """
    checks = []

    for edge in schema.edge_types.values():
        if edge.cardinality is not Cardinality.MANY_TO_MANY:
            checks.append(CardinalityCheck(edge.name))
        if edge.correlation is not None \
                and edge.correlation.head_property is None:
            checks.append(JointDistributionCheck(
                edge.name, max_ks=joint_max_ks, warn_ks=joint_warn_ks,
            ))
        for prop in edge.properties:
            if prop.generator is None:
                continue
            if prop.generator.name != "after_dependency":
                continue
            refs = {
                side: name for side, _, name
                in map(edge.dependency_ref, prop.depends_on)
            }
            tail_prop, head_prop = refs.get("tail"), refs.get("head")
            if tail_prop or head_prop:
                checks.append(
                    DateOrderingCheck(
                        edge.name,
                        prop.name,
                        tail_property=tail_prop,
                        head_property=head_prop,
                    )
                )

    for node in schema.node_types.values():
        for prop in node.properties:
            if prop.generator is None:
                continue
            if prop.generator.name != "categorical":
                continue
            params = prop.generator.params
            if "values" in params and params.get("weights") is not None:
                checks.append(
                    MarginalDistributionCheck(
                        node.name,
                        prop.name,
                        params["values"],
                        params["weights"],
                        tolerance=marginal_tolerance,
                        warn_tolerance=marginal_warn_tolerance,
                    )
                )
    return checks

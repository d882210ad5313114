"""Attributed structure generation: structure + labels in one step.

Paper §5: operators that "generate both the property values and the
graph structure at the same time, which would boost performance
[and] allow reproducing strict constraints reliably".  This generator
realises that idea for the property-structure correlation case: instead
of generating an anonymous structure and *matching* it to a property
table (SBM-Part), it samples the structure directly from the SBM
induced by the requested joint — the joint then holds by construction,
in expectation, with no matching step.

The trade-off mirrors the paper's discussion: direct generation nails
the joint but gives up structural freedom (the graph *is* an SBM —
no LFR communities, no R-MAT hubs beyond what the blocks induce);
matching keeps any structure and approximates the joint.  The
comparison benchmark quantifies exactly this.
"""

from __future__ import annotations

import numpy as np

from .base import StructureGenerator
from .sbm import StochasticBlockModel
from ..stats import Categorical

__all__ = ["AttributedSbmGenerator", "AttributedResult"]


class AttributedResult:
    """Structure plus the per-node group labels that generated it."""

    __slots__ = ("table", "labels")

    def __init__(self, table, labels):
        self.table = table
        self.labels = labels


class AttributedSbmGenerator(StructureGenerator):
    """SG generating structure and correlated labels simultaneously.

    Parameters (via ``initialize``)
    -------------------------------
    joint:
        :class:`~repro.stats.JointDistribution` — the target
        ``P(X, Y)`` over endpoint values.
    group_sizes:
        explicit ``(k,)`` node counts per value; when omitted the
        joint's marginal splits ``n`` (largest remainder).
    avg_degree:
        target mean degree (sets the edge count ``m``; default 10).

    ``run_with_labels(n)`` returns the structure *and* the labels;
    the labels realise the matching outcome exactly, so a PT whose
    value counts equal ``group_sizes`` maps onto the graph with zero
    matching error (up to SBM sampling noise).
    """

    name = "attributed_sbm"

    def parameter_names(self):
        return {"joint", "group_sizes", "avg_degree"}

    def _validate_params(self):
        avg_degree = self._params.get("avg_degree", 10)
        if avg_degree <= 0:
            raise ValueError("avg_degree must be positive")

    def _sizes(self, n):
        joint = self._params.get("joint")
        if joint is None:
            raise ValueError("AttributedSbmGenerator needs 'joint'")
        if "group_sizes" in self._params:
            sizes = np.asarray(
                self._params["group_sizes"], dtype=np.int64
            )
            if int(sizes.sum()) != n:
                raise ValueError(
                    f"group sizes sum to {int(sizes.sum())}, "
                    f"expected {n}"
                )
            return sizes
        return Categorical(joint.marginal()).sizes(n)

    def run_with_labels(self, n):
        """Generate and return the :class:`AttributedResult`."""
        n = int(n)
        joint = self._params.get("joint")
        if joint is None:
            raise ValueError("AttributedSbmGenerator needs 'joint'")
        sizes = self._sizes(n)
        m = int(n * self._params.get("avg_degree", 10) / 2)
        delta = joint.sbm_probabilities(sizes, m)
        sbm = StochasticBlockModel(
            seed=self.seed, sizes=sizes, probabilities=delta
        )
        table = sbm.run(n)
        labels = sbm.group_labels(n)
        return AttributedResult(table, labels)

    def _generate(self, n, stream):
        return self.run_with_labels(n).table

    def expected_edges_for_nodes(self, n):
        return int(n * self._params.get("avg_degree", 10) / 2)

"""Structure generators (the SG plug-in family of Section 4.1).

Every generator referenced by the paper's Table 1 is implemented here
from scratch on numpy edge arrays: RMAT, LFR, BTER, Darwini, plus the
standard baselines (Erdős–Rényi, configuration model, Barabási–Albert,
Watts–Strogatz, SBM) and the strict-cardinality operators of Section 5.

Generators *classify* themselves (``emission``, ``access``); what a
chunkable one hands back from ``run_chunked`` is an edge table that is
never stored (:class:`~repro.structure.base.EdgeChunkStream`, an
:class:`~repro.tables.ranged.EdgeRows`), its ``run`` is that stream
materialised, and paging, materialising and the ``neighbors_of`` /
``edge_exists`` scans are the table's.

``lfr`` and ``configuration`` run their stub-pairing loops compiled
when a C compiler is available (``_ckernel.py``; same edges either
way).  That makes them faster, not chunkable: both are still
*sequential, whole-table* generators (docs/scaling.md).
"""

from .attributed import AttributedResult, AttributedSbmGenerator
from .barabasi_albert import BarabasiAlbert
from .base import StructureGenerator
from .bipartite import BipartiteConfiguration
from .bter import BTER, chung_lu_pairs
from .cardinality import OneToManyGenerator, OneToOneGenerator
from .cascade import CascadeForest, CascadeResult
from .configuration import ConfigurationModel, pair_stubs, pair_stubs_with_repair
from .darwini import Darwini
from .degree_sequences import powerlaw_degree_sequence, solve_powerlaw_xmin
from .empirical import EmpiricalDegreeGenerator
from .erdos_renyi import ErdosRenyi, ErdosRenyiM
from .forest_fire import ForestFire
from .hyperbolic import HyperbolicGenerator
from .kronecker import KroneckerGenerator
from .lfr import LFR, LfrResult
from .registry import (
    EXTERNAL_SYSTEMS,
    Capability,
    GeneratorInfo,
    available_generators,
    capability_matrix,
    create_generator,
    register_generator,
)
from .rmat import RMat
from .sbm import StochasticBlockModel
from .watts_strogatz import WattsStrogatz

__all__ = [
    "AttributedResult",
    "AttributedSbmGenerator",
    "BTER",
    "BarabasiAlbert",
    "BipartiteConfiguration",
    "Capability",
    "CascadeForest",
    "CascadeResult",
    "ConfigurationModel",
    "Darwini",
    "EmpiricalDegreeGenerator",
    "EXTERNAL_SYSTEMS",
    "ErdosRenyi",
    "ErdosRenyiM",
    "ForestFire",
    "HyperbolicGenerator",
    "GeneratorInfo",
    "KroneckerGenerator",
    "LFR",
    "LfrResult",
    "OneToManyGenerator",
    "OneToOneGenerator",
    "RMat",
    "StochasticBlockModel",
    "StructureGenerator",
    "WattsStrogatz",
    "available_generators",
    "capability_matrix",
    "chung_lu_pairs",
    "create_generator",
    "pair_stubs",
    "pair_stubs_with_repair",
    "powerlaw_degree_sequence",
    "register_generator",
    "solve_powerlaw_xmin",
]

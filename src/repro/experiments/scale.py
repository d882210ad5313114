"""Experiment scale profiles.

The paper evaluates LFR graphs of 10k/100k/1M nodes and R-MAT graphs of
scale 18/20/22 on a Xeon testbed.  The default profile is scaled down
so the whole record (``repro report``) runs in seconds; set
``REPRO_SCALE=paper`` to run the original sizes (or ``medium`` for an
intermediate profile).  ``docs/reproduction.md`` states its profile.
"""

from __future__ import annotations

import os

__all__ = ["profile_name", "lfr_sizes", "rmat_scales", "fixed_k", "k_values"]

_PROFILES = {
    # name: (lfr sizes, rmat scales)
    "small": ([2_000, 5_000, 10_000], [12, 13, 14]),
    "medium": ([10_000, 30_000, 100_000], [14, 16, 18]),
    "paper": ([10_000, 100_000, 1_000_000], [18, 20, 22]),
}

#: The paper fixes k = 16 in Figure 3 and sweeps {4, 16, 64} in Figure 4.
FIXED_K = 16
K_VALUES = (4, 16, 64)


def profile_name():
    """Active profile: ``REPRO_SCALE`` env var, default "small"."""
    name = os.environ.get("REPRO_SCALE", "small").lower()
    if name not in _PROFILES:
        raise ValueError(f"REPRO_SCALE={name!r} unknown; choose from "
                         f"{sorted(_PROFILES)}")
    return name


def lfr_sizes():
    """LFR node counts for the active profile."""
    return list(_PROFILES[profile_name()][0])


def rmat_scales():
    """R-MAT scales (n = 2^scale) for the active profile."""
    return list(_PROFILES[profile_name()][1])


def fixed_k():
    """The Figure 3 number of property values."""
    return FIXED_K


def k_values():
    """The Figure 4 sweep of property-value counts."""
    return list(K_VALUES)

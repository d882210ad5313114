"""Erdős–Rényi G(n, p) and G(n, m) generators.

Not referenced in the paper's Table 1 but the canonical "no structure"
baseline: uniform random edges, Poisson-ish degrees, no communities, no
clustering.  Used in tests and ablations as the structure with *nothing*
to exploit for SBM-Part.

:func:`sample_distinct_codes` (uniform distinct codes through spilled
sorted runs), :func:`gaussian_edge_count` and :func:`_decode_pair_codes`
are the G(n, m) building blocks; the SBM draws each of its blocks
through the same three.
"""

from __future__ import annotations

import numpy as np

from .base import EdgeChunkStream, StructureGenerator, _run_rows
from ..io.spool import SortedRuns

__all__ = ["ErdosRenyi", "ErdosRenyiM"]


def gaussian_edge_count(total, p, stream, index):
    """``Binomial(total, p)`` edges by its Gaussian approximation.

    Deterministic: one normal draw at ``index`` of ``stream``, rounded
    and clipped to ``[0, total]``.
    """
    std = np.sqrt(max(total * p * (1.0 - p), 0.0))
    z = float(stream.normal(np.int64(index), 0.0, 1.0))
    return max(0, min(int(round(total * p + std * z)), total))


def _decode_pair_codes(chosen):
    """Decode linear pair codes into ``(v, u)`` endpoint columns.

    Elementwise triangular-number inverse (``u > v``), so decoding a
    slice of the code array equals the same slice of a whole-array
    decode — the property chunked emission relies on.
    """
    k = chosen.astype(np.float64)
    u = np.floor((1.0 + np.sqrt(1.0 + 8.0 * k)) / 2.0).astype(np.int64)
    # Guard against floating point at the triangle boundaries.
    u[u * (u - 1) // 2 > chosen] -= 1
    u[chosen >= u * (u - 1) // 2 + u] += 1
    return chosen - u * (u - 1) // 2, u


def sample_distinct_codes(total, count, stream, spill, run_rows,
                          prefix):
    """Sample ``count`` distinct uniform codes from ``range(total)``.

    Oversamples in rounds until ``count`` distinct codes are drawn —
    with ``count`` well below ``total``, one or two rounds — and never
    holds more than one ``run_rows`` block of draws: the codes
    accumulate in duplicate-dropping sorted runs.  When the last round
    overshoots, a deterministic subset is kept, ranked by a per-code
    uniform key (ties broken by code) through a second set of runs.
    The resulting order is the edge-id order of the generated table.
    Spill names start with ``prefix``, one per call.  Returns a sealed
    spill view over the final code sequence.
    """
    runs = SortedRuns(spill, f"{prefix}.codes", run_rows, unique=True)
    distinct = 0
    round_id = 0
    while distinct < count:
        need = count - distinct
        draw = int(need * 1.3) + 16
        sub = stream.substream(f"round{round_id}")
        for lo in range(0, draw, run_rows):
            idx = np.arange(lo, min(lo + run_rows, draw), dtype=np.int64)
            runs.push((sub.uniform(idx) * total).astype(np.int64))
        distinct = runs.total()
        round_id += 1
    final = spill.create(f"{prefix}.final", count, np.int64)
    pos = 0
    if distinct == count:
        for codes, _ in runs.merge():
            final[pos:pos + codes.size] = codes
            pos += codes.size
    elif count:
        # Thin to a deterministic subset: ranked by a per-code key.
        key_stream = stream.substream("thin")
        ranked = SortedRuns(spill, f"{prefix}.ranked", run_rows)
        for codes, _ in runs.merge():
            ranked.push(key_stream.uniform(codes), codes)
        for _, codes in ranked.merge():
            take = min(codes.size, count - pos)
            final[pos:pos + take] = codes[:take]
            pos += take
            if pos >= count:
                break
        ranked.cleanup()
    runs.cleanup()
    return spill.seal(f"{prefix}.final", final)


class _CodeEmitter:
    """Picklable decoder over the (possibly spilled) pair codes."""

    def __init__(self, codes):
        self.codes = codes

    def __call__(self, lo, hi):
        return _decode_pair_codes(np.asarray(self.codes[lo:hi]))


def _pair_code_chunk_stream(name, n, m, stream, chunk_edges, spill):
    """Shared chunked-emission body of the two ER generators.

    The sampled code array is the only whole-table state; the sampler
    builds it through spilled sorted runs (in memory under the in-RAM
    spill), after which each chunk decodes a bounded slice.
    """
    codes = sample_distinct_codes(
        n * (n - 1) // 2, m, stream.substream("pairs"), spill,
        _run_rows(chunk_edges), "pairs",
    )
    return EdgeChunkStream(name, m, n, n, False, _CodeEmitter(codes))


class ErdosRenyi(StructureGenerator):
    """G(n, p): each pair independently present with probability ``p``.

    Realised by drawing ``Binomial(n_pairs, p)`` edges via the G(n, m)
    sampler, which is equivalent in distribution and much faster than
    testing all pairs.
    """

    name = "erdos_renyi"
    emission = "chunkable"
    access = "random"

    def parameter_names(self):
        return {"p"}

    def _validate_params(self):
        p = self._params.get("p")
        if p is not None and not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")

    def _generate_chunked(self, n, stream, chunk_edges, spill):
        p = self._params.get("p")
        if p is None:
            raise ValueError("ErdosRenyi needs parameter 'p'")
        m = gaussian_edge_count(n * (n - 1) // 2, p, stream, 1)
        return _pair_code_chunk_stream(
            self.name, n, m, stream, chunk_edges, spill
        )

    def expected_edges_for_nodes(self, n):
        p = self._params.get("p")
        if p is None:
            raise ValueError("generator not configured")
        return int(n * (n - 1) // 2 * p)


class ErdosRenyiM(StructureGenerator):
    """G(n, m): exactly ``m`` uniform distinct edges."""

    name = "erdos_renyi_m"
    emission = "chunkable"
    access = "random"

    def parameter_names(self):
        return {"m", "edges_per_node"}

    def _validate_params(self):
        m = self._params.get("m")
        if m is not None and m < 0:
            raise ValueError("m must be nonnegative")
        epn = self._params.get("edges_per_node")
        if epn is not None and epn <= 0:
            raise ValueError("edges_per_node must be positive")

    def _edge_count(self, n):
        if "m" in self._params:
            return int(self._params["m"])
        epn = self._params.get("edges_per_node")
        if epn is None:
            raise ValueError("ErdosRenyiM needs 'm' or 'edges_per_node'")
        return int(n * epn)

    def _generate_chunked(self, n, stream, chunk_edges, spill):
        m = min(self._edge_count(n), n * (n - 1) // 2)
        return _pair_code_chunk_stream(
            self.name, n, m, stream, chunk_edges, spill
        )

    def expected_edges_for_nodes(self, n):
        return min(self._edge_count(n), n * (n - 1) // 2)

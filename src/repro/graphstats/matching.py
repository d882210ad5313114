"""Baseline subgraph matcher: vectorised candidate filtering.

The correctness oracle of the planting subsystem
(:mod:`repro.planting`): a deliberately simple, fully vectorised
filter-and-enumerate matcher in the spirit of the candidate routines a
matching benchmark harness ships — strong enough that at zero noise it
must recover **every** planted template exactly, cheap enough to run
in CI over every planted zoo recipe.

Pipeline
--------
1. **Degree filter** — world node ``u`` is a candidate for template
   node ``t`` only if its degree dominates ``t``'s template degree
   (out/in separately on directed edge types).
2. **Attribute-label filter** — per-template-node ``(property,
   value)`` constraints (a plant's forced ``attributes``) mask the
   candidate sets down to matching labels.
3. **Edgewise neighbourhood pruning** — iterate to fixpoint: for every
   template edge ``(a, b)``, a candidate for ``a`` survives only if at
   least one of its world neighbours is still a candidate for ``b``
   (both directions; one ``np.bincount`` per side per pass).
4. **Backtracking enumeration** — template nodes ordered
   smallest-candidate-set-first (connected to the placed prefix when
   possible); adjacency membership answered by binary search over the
   packed sorted edge codes.

>>> import numpy as np
>>> tails = np.array([0, 1, 2, 9])     # a 3-ring plus a stray edge
>>> heads = np.array([1, 2, 0, 3])
>>> t = TemplateQuery(np.array([0, 1, 2]), np.array([1, 2, 0]), 3)
>>> result = match_template(t, tails, heads, 10)
>>> min(tuple(int(v) for v in row) for row in result.matches)
(0, 1, 2)
>>> result.num_matches            # 3 rotations x 2 orientations
6
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..tables import csr_arrays

__all__ = [
    "MatchResult",
    "TemplateQuery",
    "match_template",
    "verify_plants",
]


@dataclass(frozen=True)
class TemplateQuery:
    """A pattern to search for: local edges + optional label constraints.

    ``labels`` maps template-node id -> list of ``(column, value)``
    pairs; ``column`` is a world node-property array aligned with node
    ids.
    """

    tails: np.ndarray
    heads: np.ndarray
    size: int
    directed: bool = False
    labels: dict = field(default_factory=dict)


@dataclass
class MatchResult:
    """All embeddings found, plus the filtering diagnostics."""

    matches: np.ndarray          # (num_matches, template size)
    candidate_counts: list       # per template node, post-pruning
    prune_rounds: int
    seconds: float
    truncated: bool = False

    @property
    def num_matches(self):
        return int(self.matches.shape[0])

    def contains(self, node_map):
        """Is the exact assignment ``node_map`` among the matches?"""
        wanted = np.asarray(node_map, dtype=np.int64)
        if self.matches.size == 0:
            return False
        return bool((self.matches == wanted).all(axis=1).any())


def _neighbor_hits(tails, heads, mask, n):
    """Bool[n]: nodes with >= 1 edge endpoint into ``mask`` nodes."""
    hits = np.zeros(n, dtype=bool)
    take = mask[heads]
    if take.any():
        hits[tails[take]] = True
    return hits


def _prune(candidates, t_tails, t_heads, tails, heads, n, directed):
    """Edgewise neighbourhood pruning to fixpoint."""
    rounds = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        for a, b in zip(t_tails, t_heads):
            # Candidates of `a` need an out-neighbour in cand[b];
            # candidates of `b` need an in-neighbour in cand[a].
            hits_a = _neighbor_hits(tails, heads, candidates[b], n)
            if not directed:
                hits_a |= _neighbor_hits(
                    heads, tails, candidates[b], n
                )
            kept = candidates[a] & hits_a
            if kept.sum() != candidates[a].sum():
                candidates[a] = kept
                changed = True
            hits_b = _neighbor_hits(heads, tails, candidates[a], n)
            if not directed:
                hits_b |= _neighbor_hits(
                    tails, heads, candidates[a], n
                )
            kept = candidates[b] & hits_b
            if kept.sum() != candidates[b].sum():
                candidates[b] = kept
                changed = True
        if rounds > len(t_tails) * 4 + 8:
            break  # safety valve; fixpoint is normally 2-3 rounds
    return rounds


def _match_order(t_tails, t_heads, size, counts):
    """Template-node visit order: smallest candidate set first, then
    greedily extend along template edges."""
    adj = [set() for _ in range(size)]
    for a, b in zip(t_tails, t_heads):
        adj[a].add(b)
        adj[b].add(a)
    remaining = set(range(size))
    order = []
    while remaining:
        frontier = {
            t for t in remaining
            if any(s not in remaining for s in adj[t])
        } or remaining
        pick = min(frontier, key=lambda t: (counts[t], t))
        order.append(pick)
        remaining.discard(pick)
    return order


def match_template(query, tails, heads, num_nodes, max_matches=None):
    """Find every embedding of ``query`` in the world edge list.

    ``tails`` / ``heads`` are the world edge arrays (each undirected
    edge stored once, either orientation), ``num_nodes`` the node
    count.  Returns a :class:`MatchResult`; ``max_matches`` caps the
    enumeration (sets ``truncated`` when hit).
    """
    started = time.perf_counter()
    tails = np.ascontiguousarray(tails, dtype=np.int64)
    heads = np.ascontiguousarray(heads, dtype=np.int64)
    n = int(num_nodes)
    size = int(query.size)
    t_tails = np.asarray(query.tails, dtype=np.int64)
    t_heads = np.asarray(query.heads, dtype=np.int64)
    directed = bool(query.directed)

    # 1. degree filter
    out_deg = np.bincount(tails, minlength=n)
    in_deg = np.bincount(heads, minlength=n)
    t_out = np.bincount(t_tails, minlength=size)
    t_in = np.bincount(t_heads, minlength=size)
    candidates = []
    for t in range(size):
        if directed:
            mask = (out_deg >= t_out[t]) & (in_deg >= t_in[t])
        else:
            mask = (out_deg + in_deg) >= (t_out[t] + t_in[t])
        # 2. attribute-label filter
        for column, value in query.labels.get(t, ()):
            mask = mask & (np.asarray(column) == value)
        candidates.append(mask)

    # 3. edgewise neighbourhood pruning
    rounds = _prune(
        candidates, t_tails, t_heads, tails, heads, n, directed
    )
    counts = [int(mask.sum()) for mask in candidates]

    # 4. backtracking enumeration
    starts, neigh = csr_arrays(tails, heads, n, symmetric=not directed)
    if directed:
        r_starts, r_neigh = csr_arrays(heads, tails, n)
    else:
        r_starts, r_neigh = starts, neigh
    order = _match_order(t_tails, t_heads, size, counts)
    position = {t: i for i, t in enumerate(order)}
    # Per visit step: constraints against already-placed nodes.
    step_edges = [[] for _ in range(size)]
    for a, b in zip(t_tails, t_heads):
        first, second = (a, b) if position[a] < position[b] else (b, a)
        # direction flag: does the template edge leave `second`?
        step_edges[position[second]].append((first, int(a == second)))
    matches = []
    assignment = np.full(size, -1, dtype=np.int64)
    used = set()
    truncated = False

    def neighbors_out(u):
        return neigh[starts[u]:starts[u + 1]]

    def neighbors_in(u):
        return r_neigh[r_starts[u]:r_starts[u + 1]]

    def extend(step):
        nonlocal truncated
        if truncated:
            return
        if step == size:
            matches.append(assignment.copy())
            if max_matches is not None \
                    and len(matches) >= max_matches:
                truncated = True
            return
        t = order[step]
        anchors = step_edges[step]
        if anchors:
            placed, outgoing = anchors[0]
            u = int(assignment[placed])
            pool = (
                neighbors_in(u) if directed and outgoing
                else neighbors_out(u)
            )
            pool = np.unique(pool)
        else:
            pool = np.flatnonzero(candidates[t])
        mask = candidates[t][pool]
        pool = pool[mask]
        for v in pool:
            v = int(v)
            if v in used:
                continue
            ok = True
            for placed, outgoing in anchors[1:]:
                u = int(assignment[placed])
                wanted = (
                    neighbors_in(u) if directed and outgoing
                    else neighbors_out(u)
                )
                at = np.searchsorted(np.sort(wanted), v)
                srt = np.sort(wanted)
                if at >= srt.size or srt[at] != v:
                    ok = False
                    break
            if not ok:
                continue
            assignment[t] = v
            used.add(v)
            extend(step + 1)
            used.discard(v)
            assignment[t] = -1
            if truncated:
                return

    extend(0)
    result = np.asarray(matches, dtype=np.int64)
    if result.size == 0:
        result = result.reshape(0, size)
    return MatchResult(
        matches=result,
        candidate_counts=counts,
        prune_rounds=rounds,
        seconds=time.perf_counter() - started,
        truncated=truncated,
    )


def _query_for_plant(graph, plant):
    """Build the :class:`TemplateQuery` a plant's ground truth implies."""
    template = plant.template
    edge = graph.schema.edge_type(plant.edge)
    labels = {}
    if plant.attributes:
        constraints = []
        for prop, value in sorted(plant.attributes.items()):
            column = np.asarray(
                graph.node_property(plant.node_type, prop).values
            )
            constraints.append((column, value))
        labels = {t: constraints for t in range(template.size)}
    return TemplateQuery(
        tails=template.tails,
        heads=template.heads,
        size=template.size,
        directed=edge.directed,
        labels=labels,
    )


def verify_plants(graph, plan, max_matches=200_000):
    """Run the baseline matcher over every plant of a planted graph.

    ``graph`` is a (materialisable) planted
    :class:`~repro.core.result.PropertyGraph`, ``plan`` its
    :class:`~repro.planting.plant.PlantPlan`.  Returns a report dict:
    per plant — matches found, instances recovered (exact node-map
    membership), recall, matcher wall time and world rows/sec — plus
    the overall recall.  At zero noise the acceptance bar is overall
    ``recall == 1.0``.
    """
    plants = {}
    total = recovered_total = 0
    for plant in plan.plants:
        table = graph.edges(plant.edge)
        tails = np.asarray(table.tails)
        heads = np.asarray(table.heads)
        n = int(graph.num_nodes(plant.node_type))
        query = _query_for_plant(graph, plant)
        result = match_template(
            query, tails, heads, n, max_matches=max_matches
        )
        instances = plan.instances_of(plant.name)
        recovered = sum(
            1 for inst in instances if result.contains(inst.node_map)
        )
        total += len(instances)
        recovered_total += recovered
        rows = int(tails.size)
        plants[plant.name] = {
            "edge": plant.edge,
            "template": plant.template.to_dict(),
            "instances": len(instances),
            "recovered": recovered,
            "recall": (
                recovered / len(instances) if instances else 1.0
            ),
            "matches": result.num_matches,
            "truncated": result.truncated,
            "candidate_counts": result.candidate_counts,
            "prune_rounds": result.prune_rounds,
            "seconds": round(result.seconds, 6),
            "rows_per_sec": (
                round(rows / result.seconds, 1)
                if result.seconds > 0 else float("inf")
            ),
        }
    return {
        "plants": plants,
        "instances": total,
        "recovered": recovered_total,
        "recall": recovered_total / total if total else 1.0,
    }

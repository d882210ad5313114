"""Plant planning: where each template lands in a generated world.

The planner is a **pure function** of ``(plant configs, node counts,
edge counts, root seed)``.  Both execution paths feed it the same
inputs — the serial/sharded :func:`~repro.scenarios.compile.
run_scenario` after generation, the virtual-graph serving layer after
topology resolution — so the resulting :class:`PlantPlan` is identical
everywhere, which is what makes planted exports byte-identical across
workers, backends and the serve path without any coordination.

Every random decision draws from the existing counter-based PRNG
substreams, namespaced per plant and per instance::

    derive_seed(root, "plant", name)            # the plant
      .substream("template")                    # tree growth
    derive_seed(plant, "instance:<j>")          # one injection
      .substream("nodes")                       # node-map sampling
      .substream("delete"|"rewire"|"corrupt")   # noise operators

Injection appends the mapped template edges *after* the generated
edges of the target type, so every base edge keeps its id and the
appended block is a contiguous, recordable ``[m, m+e)`` range — the
"id-range-local rewrite plus a bounded overlay" the sharded executor
and the virtual graph can both serve cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..prng import RandomStream, derive_seed
from .templates import PlantingError, Template, make_template

__all__ = [
    "CompiledPlant",
    "PlantInstance",
    "PlantPlan",
    "compile_plants",
    "plan_plants",
]

#: Noise operator names, in application order.
NOISE_KINDS = ("delete", "rewire", "corrupt")


@dataclass(frozen=True)
class CompiledPlant:
    """One validated ``plants.<name>`` recipe entry, template grown."""

    name: str
    edge: str
    node_type: str
    template: Template
    count: int = 1
    attributes: dict = field(default_factory=dict)
    noise: dict = field(default_factory=dict)

    def noise_rate(self, kind):
        return float(self.noise.get(kind, 0.0))


@dataclass
class PlantInstance:
    """One injected copy of a template.

    ``node_map[i]`` is the world id of template node ``i`` (injective,
    in ``[0, n)``).  ``edges`` records one dict per template edge:
    ``{"template": [a, b], "world": [u, v], "edge_id": int | None,
    "status": "planted" | "deleted" | "rewired"}`` (rewired entries
    add ``"rewired_to"``).  ``corrupted`` lists ``{"node", "property"}``
    pairs whose forced attribute was withheld by noise.
    """

    plant: str
    index: int
    node_map: np.ndarray
    edges: list = field(default_factory=list)
    corrupted: list = field(default_factory=list)

    def to_dict(self):
        return {
            "index": self.index,
            "nodes": [int(v) for v in self.node_map],
            "edges": self.edges,
            "corrupted": self.corrupted,
        }


@dataclass
class PlantPlan:
    """The full, deterministic outcome of planning every plant.

    Attributes
    ----------
    plants:
        the :class:`CompiledPlant` list, in recipe order.
    instances:
        every :class:`PlantInstance`, in (plant, index) order.
    appended:
        dict edge name -> ``(tails, heads)`` int64 arrays of the
        injected edges, in deterministic append order.  Appended edge
        ``i`` of type ``E`` has world edge id ``base_edge_count[E] + i``.
    overrides:
        dict ``"Type.prop"`` -> ``(ids, values)`` — sorted world node
        ids whose property value is forced by a plant's ``attributes``.
    node_counts / edge_counts:
        the world shape the plan was computed against (edge counts are
        the *base* counts, before injection).
    seed:
        the root seed.
    """

    plants: list
    instances: list
    appended: dict
    overrides: dict
    node_counts: dict
    edge_counts: dict
    seed: int

    def appended_count(self, edge_name):
        extra = self.appended.get(edge_name)
        return 0 if extra is None else int(extra[0].size)

    def instances_of(self, plant_name):
        return [
            inst for inst in self.instances if inst.plant == plant_name
        ]

    def to_dict(self):
        """The JSON-ready ground-truth document.

        This is what ``ground_truth.json`` holds and what the export
        manifests embed under ``"planting"`` — template, node maps,
        per-edge status, noise events, and the appended id ranges.
        """
        plants = {}
        for plant in self.plants:
            plants[plant.name] = {
                "edge": plant.edge,
                "node_type": plant.node_type,
                "template": plant.template.to_dict(),
                "count": plant.count,
                "attributes": dict(plant.attributes),
                "noise": {
                    kind: plant.noise_rate(kind)
                    for kind in NOISE_KINDS
                },
                "instances": [
                    inst.to_dict()
                    for inst in self.instances_of(plant.name)
                ],
            }
        return {
            "version": 1,
            "seed": int(self.seed),
            "plants": plants,
            "appended": {
                name: {
                    "start": int(self.edge_counts[name]),
                    "count": int(tails.size),
                }
                for name, (tails, _) in sorted(self.appended.items())
            },
        }


def compile_plants(plants_config, schema, seed, scale=None):
    """Validate and lower ``plants:`` recipe entries.

    Checks everything the key registry cannot: the target edge type is
    monopartite (template nodes live in one id space), forced
    attributes name real properties of that node type, noise rates are
    probabilities, the ``count`` disjoint copies fit in the target
    type's node count when ``scale`` anchors it (checked before a
    template is grown), and the template itself is well-formed (a
    grown one bounded by its edge count whatever the scale).  Raises
    :class:`~repro.planting.templates.PlantingError` with the recipe
    path on the first problem.
    """
    compiled = []
    for name, body in (plants_config or {}).items():
        where = f"plants.{name}"
        body = body or {}
        edge_name = body.get("edge")
        if edge_name not in schema.edge_types:
            raise PlantingError(
                f"{where}.edge: {edge_name!r} is not a declared edge "
                f"type (declared: {sorted(schema.edge_types)})"
            )
        edge = schema.edge_type(edge_name)
        if edge.tail_type != edge.head_type:
            raise PlantingError(
                f"{where}.edge: {edge_name!r} is bipartite "
                f"({edge.tail_type} -> {edge.head_type}); plants "
                "need a monopartite edge type"
            )
        node_type = schema.node_type(edge.tail_type)
        declared = {prop.name for prop in node_type.properties}
        attributes = dict(body.get("attributes") or {})
        for prop in attributes:
            if prop not in declared:
                raise PlantingError(
                    f"{where}.attributes: {edge.tail_type!r} has no "
                    f"property {prop!r} "
                    f"(declared: {sorted(declared)})"
                )
        noise = dict(body.get("noise") or {})
        for kind, rate in noise.items():
            if kind not in NOISE_KINDS:
                raise PlantingError(
                    f"{where}.noise: unknown operator {kind!r}; "
                    f"one of {NOISE_KINDS}"
                )
            if not 0.0 <= float(rate) <= 1.0:
                raise PlantingError(
                    f"{where}.noise.{kind}: rate {rate!r} is not a "
                    "probability"
                )
        count = int(body.get("count", 1))
        if count < 1:
            raise PlantingError(
                f"{where}.count: expected >= 1, got {count}"
            )
        template_body = body.get("template") or {}
        size = template_body.get("size")
        nodes = (scale or {}).get(edge.tail_type)
        if isinstance(size, int) and nodes is not None \
                and size * count > nodes:
            raise PlantingError(
                f"{where}: {count} disjoint copies of a {size}-node "
                f"template need {size * count} {edge.tail_type} "
                f"nodes; the scale has {nodes}"
            )
        template_stream = RandomStream(
            derive_seed(seed, "plant", name)
        ).substream("template")
        try:
            template = make_template(
                name,
                template_body.get("kind"),
                size=size,
                edges=template_body.get("edges"),
                stream=template_stream,
                directed=edge.directed,
            )
        except PlantingError as exc:
            raise PlantingError(f"{where}.template: {exc}") from None
        compiled.append(CompiledPlant(
            name=str(name),
            edge=str(edge_name),
            node_type=str(edge.tail_type),
            template=template,
            count=count,
            attributes=attributes,
            noise=noise,
        ))
    return compiled


def _sample_node_map(stream, k, n, used):
    """``k`` distinct world ids not in ``used``, by seeded rejection."""
    if n - len(used) < k:
        raise PlantingError(
            f"world too small: need {k} unused nodes, "
            f"{n - len(used)} of {n} remain"
        )
    node_map = np.empty(k, dtype=np.int64)
    chosen = set()
    counter = 0
    limit = 1000 * (k + 1)
    for slot in range(k):
        while True:
            if counter >= limit:
                raise PlantingError(
                    "node-map sampling did not converge; the world "
                    "is too densely planted"
                )
            candidate = int(
                stream.randint(np.asarray([counter]), 0, n)[0]
            )
            counter += 1
            if candidate not in used and candidate not in chosen:
                break
        chosen.add(candidate)
        node_map[slot] = candidate
    used.update(chosen)
    return node_map


def _plan_instance(plant, index, n, used, seed):
    """Plan one injection: node map, then the noise operators."""
    inst_seed = derive_seed(
        derive_seed(seed, "plant", plant.name), f"instance:{index}"
    )
    inst = RandomStream(inst_seed)
    node_map = _sample_node_map(
        inst.substream("nodes"), plant.template.size, n, used
    )
    template = plant.template
    e = template.num_edges
    delete_p = plant.noise_rate("delete")
    rewire_p = plant.noise_rate("rewire")
    corrupt_p = plant.noise_rate("corrupt")
    idx = np.arange(e)
    deleted = (
        inst.substream("delete").uniform(idx) < delete_p
        if delete_p > 0.0 else np.zeros(e, dtype=bool)
    )
    rewired = (
        inst.substream("rewire").uniform(idx) < rewire_p
        if rewire_p > 0.0 else np.zeros(e, dtype=bool)
    )
    rewire_stream = inst.substream("rewire").substream("target")
    instance = PlantInstance(
        plant=plant.name, index=index, node_map=node_map
    )
    tails, heads = [], []
    for j in range(e):
        a, b = int(template.tails[j]), int(template.heads[j])
        u, v = int(node_map[a]), int(node_map[b])
        record = {
            "template": [a, b],
            "world": [u, v],
            "edge_id": None,
            "status": "planted",
        }
        if deleted[j]:
            record["status"] = "deleted"
            instance.edges.append(record)
            continue
        if rewired[j]:
            # Redirect the head to a uniform world node that keeps the
            # edge simple; a handful of indexed retries suffices.
            target = v
            for attempt in range(64):
                draw = int(rewire_stream.randint(
                    np.asarray([j * 64 + attempt]), 0, n
                )[0])
                if draw != u and draw != v:
                    target = draw
                    break
            record["status"] = "rewired"
            record["rewired_to"] = target
            v = target
        tails.append(u)
        heads.append(v)
        instance.edges.append(record)
    if corrupt_p > 0.0 and plant.attributes:
        corrupt = inst.substream("corrupt")
        props = sorted(plant.attributes)
        for slot in range(template.size):
            for p_idx, prop in enumerate(props):
                draw = float(corrupt.uniform(
                    np.asarray([slot * len(props) + p_idx])
                )[0])
                if draw < corrupt_p:
                    instance.corrupted.append({
                        "node": int(node_map[slot]),
                        "property": prop,
                    })
    return instance, tails, heads


def plan_plants(plants, node_counts, edge_counts, seed):
    """Compute the :class:`PlantPlan` for a world of the given shape.

    ``node_counts`` maps node type -> count, ``edge_counts`` maps edge
    type -> *base* (pre-injection) edge count.  Node maps are kept
    disjoint across every instance of every plant, so injected
    patterns never merge into accidental larger ones.
    """
    instances = []
    appended = {}
    overrides = {}
    used_by_type = {}
    for plant in plants:
        n = int(node_counts[plant.node_type])
        used = used_by_type.setdefault(plant.node_type, set())
        acc = appended.setdefault(plant.edge, ([], []))
        for index in range(plant.count):
            try:
                instance, tails, heads = _plan_instance(
                    plant, index, n, used, seed
                )
            except PlantingError as exc:
                raise PlantingError(
                    f"plants.{plant.name} instance {index}: {exc}"
                ) from None
            acc[0].extend(tails)
            acc[1].extend(heads)
            instances.append(instance)
    # Assign world edge ids to the surviving appended edges, in the
    # exact order they were accumulated.
    positions = {name: 0 for name in appended}
    for instance in instances:
        plant = next(
            p for p in plants if p.name == instance.plant
        )
        for record in instance.edges:
            if record["status"] == "deleted":
                continue
            base = int(edge_counts[plant.edge])
            record["edge_id"] = base + positions[plant.edge]
            positions[plant.edge] += 1
    appended = {
        name: (
            np.asarray(tails, dtype=np.int64),
            np.asarray(heads, dtype=np.int64),
        )
        for name, (tails, heads) in appended.items()
        if tails
    }
    # Forced attributes -> per-column override arrays (minus the
    # corrupt-noise withheld pairs).
    pending = {}
    for plant in plants:
        if not plant.attributes:
            continue
        withheld = {
            (entry["node"], entry["property"])
            for inst in (
                i for i in instances if i.plant == plant.name
            )
            for entry in inst.corrupted
        }
        for inst in instances:
            if inst.plant != plant.name:
                continue
            for prop, value in plant.attributes.items():
                key = f"{plant.node_type}.{prop}"
                column = pending.setdefault(key, ({}, ))[0]
                for world_id in inst.node_map:
                    wid = int(world_id)
                    if (wid, prop) in withheld:
                        continue
                    column[wid] = value
    for key, (column,) in pending.items():
        if not column:
            continue
        ids = np.asarray(sorted(column), dtype=np.int64)
        values = np.asarray([column[int(i)] for i in ids])
        overrides[key] = (ids, values)
    return PlantPlan(
        plants=list(plants),
        instances=instances,
        appended=appended,
        overrides=overrides,
        node_counts=dict(node_counts),
        edge_counts={
            name: int(edge_counts[name])
            for name in sorted(edge_counts)
        },
        seed=int(seed),
    )

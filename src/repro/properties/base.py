"""The Property Generator (PG) interface of Section 4.1.

A PG implements::

    initialize(**params)          -> None
    run(id, r_id, *dependencies)  -> value

``run`` must be a pure function of the instance ``id``, the random
number ``r(id)`` (supplied by the per-table skip-seed stream) and the
values of the properties it depends on — this is the contract that makes
in-place, distributed regeneration possible.

This codebase adds a vectorised entry point, ``run_many(ids, stream,
*dependency_arrays)``, which generators implement for speed; the scalar
``run`` derives from it so the paper's literal interface also holds.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PropertyGenerator"]


class PropertyGenerator:
    """Base class implementing the PG contract.

    Subclasses override :meth:`run_many` (vectorised) and declare
    :meth:`parameter_names`; they may also override :meth:`output_dtype`
    so tables get a precise dtype.
    """

    #: Name under which the generator is registered (what recipes bind).
    name = "abstract"

    #: First-class access classification (the property-side twin of the
    #: structure layer's ``emission`` flag; see docs/serving.md).
    #: ``"random"`` generators compute any id subset independently:
    #: ``run_many(ids, ...)`` is a pure per-id function, so
    #: ``properties_of`` returns exactly the rows of a full run.
    #: Third-party generators default to ``"sequential"`` until they
    #: declare otherwise, so the serving layer never hands them a
    #: sparse id set they were not written for.
    access = "sequential"

    def __init__(self, **params):
        self._params = {}
        if params:
            self.initialize(**params)

    # -- PG contract -----------------------------------------------------

    def initialize(self, **params):
        """Configure the generator; unknown keys raise immediately."""
        valid = self.parameter_names()
        for key in params:
            if key not in valid:
                raise TypeError(
                    f"{type(self).__name__} got unexpected parameter "
                    f"{key!r}; valid: {sorted(valid)}"
                )
        self._params.update(params)
        self._validate_params()

    def run(self, instance_id, r_id, *dependencies):
        """The paper's scalar interface: one value from one id.

        ``r_id`` is accepted for interface fidelity but regenerated
        internally from the stream when needed — the vectorised path
        owns randomness so scalar and vector calls agree bit-for-bit.
        """
        raise NotImplementedError(
            "scalar run() requires a bound stream; use run_many or "
            "BoundGenerator"
        )

    def run_many(self, ids, stream, *dependency_arrays):
        """Vectorised generation: values for all ``ids`` at once.

        Parameters
        ----------
        ids:
            int64 array of instance ids.
        stream:
            the PT's :class:`~repro.prng.RandomStream` (the paper's
            ``r``; implementations call ``stream.uniform(ids)`` etc.).
        dependency_arrays:
            one array per declared dependency, aligned with ``ids``.
        """
        raise NotImplementedError

    def random_access(self):
        """Can this generator compute arbitrary id subsets?

        Defaults to the class-level :attr:`access` flag; subclasses
        override when the capability depends on parameters.
        """
        return self.access == "random"

    def properties_of(self, ids, stream, *dependency_arrays):
        """Values for an arbitrary id subset — the serving entry point.

        For random-access generators this returns, for each ``ids[j]``,
        exactly the value row ``ids[j]`` of a full ``run_many`` over the
        whole table would hold (byte-identical, including the dtype of
        an empty result).  ``dependency_arrays`` are aligned with
        ``ids`` — one dependency row per requested id.

        Raises ``TypeError`` for sequential generators: their output
        depends on ids outside the subset, so a virtual-graph server
        cannot answer point queries from them.

        >>> import numpy as np
        >>> from repro.prng import RandomStream
        >>> from repro.properties.numeric import UniformIntGenerator
        >>> g = UniformIntGenerator(low=0, high=100)
        >>> r = RandomStream(3, "T.x")
        >>> full = g.run_many(np.arange(10, dtype=np.int64), r)
        >>> subset = g.properties_of(np.array([7, 2]), r)
        >>> bool((subset == full[[7, 2]]).all())
        True
        """
        if not self.random_access():
            raise TypeError(
                f"{type(self).__name__} ({self.name!r}) declares "
                f"access={self.access!r}; only random-access "
                "generators can compute arbitrary id subsets"
            )
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        deps = [np.asarray(col) for col in dependency_arrays]
        return self.run_many(ids, stream, *deps)

    # -- hooks -----------------------------------------------------------------

    def parameter_names(self):
        """Set of accepted ``initialize`` keys."""
        return set()

    def _validate_params(self):
        """Validate current parameters (override as needed)."""

    def output_dtype(self):
        """Numpy dtype of generated values (object for strings)."""
        return np.dtype(object)

    def num_dependencies(self):
        """How many dependency arrays ``run_many`` expects (None = any)."""
        return 0

    def param(self, key, default=None):
        return self._params.get(key, default)

    def __repr__(self):
        kv = ", ".join(f"{k}={v!r}" for k, v in sorted(self._params.items()))
        return f"{type(self).__name__}({kv})"


class BoundGenerator:
    """A PG bound to a concrete stream: provides the paper's scalar
    ``run(id, r(id), *deps)`` with bit-identical results to the
    vectorised path.

    >>> import numpy as np
    >>> from repro.prng import RandomStream
    >>> from repro.properties.numeric import UniformIntGenerator
    >>> generator = UniformIntGenerator(low=0, high=10)
    >>> stream = RandomStream(1, "T.x")
    >>> bound = BoundGenerator(generator, stream)
    >>> scalar = bound.run(7)             # value for instance 7
    >>> vector = generator.run_many(np.array([7]), stream)
    >>> int(scalar) == int(vector[0])
    True
    """

    def __init__(self, generator, stream):
        self.generator = generator
        self.stream = stream

    def run(self, instance_id, r_id=None, *dependencies):
        ids = np.asarray([instance_id], dtype=np.int64)
        dep_arrays = [np.asarray([d]) for d in dependencies]
        values = self.generator.run_many(ids, self.stream, *dep_arrays)
        return values[0]

"""The compiled stub-pairing kernel against the Python bodies it
replaces.

``RandomStream.permutation``, ``pair_stubs_with_repair``, LFR's
assignment / intra-community loops and R-MAT's quadrant descent each
keep their Python body as the fallback; here every one runs twice — kernel, then :func:`python_bodies`
— and the outputs must be equal bit for bit.  Skipped only on hosts
where no kernel loads; the two subprocess cases at the end run
everywhere.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.prng import RandomStream, streams
from repro.prng._ckernel import load_prng_ckernel
from repro.stats import PowerLaw, Zipf
from repro.structure import (
    LFR,
    RMat,
    create_generator,
    pair_stubs_with_repair,
)
from repro.structure._ckernel import load_structure_ckernel
from repro.tables import csr_arrays
from test_tables_edge import _argsort_csr

configuration = importlib.import_module("repro.structure.configuration")
lfr = importlib.import_module("repro.structure.lfr")
rmat = importlib.import_module("repro.structure.rmat")
structure_ckernel = importlib.import_module("repro.structure._ckernel")

needs_kernel = pytest.mark.skipif(
    load_prng_ckernel() is None or load_structure_ckernel() is None,
    reason="no compiled kernel on this host",
)

common_settings = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@contextlib.contextmanager
def python_bodies():
    """Send every call site down its Python body, as on a host with
    no compiler."""
    with mock.patch.object(streams, "load_prng_ckernel", lambda: None), \
            mock.patch.object(
                configuration, "load_structure_ckernel", lambda: None), \
            mock.patch.object(lfr, "load_structure_ckernel", lambda: None), \
            mock.patch.object(rmat, "load_structure_ckernel", lambda: None), \
            mock.patch.object(
                structure_ckernel, "load_structure_ckernel", lambda: None):
        yield


def both(call):
    """``(kernel result, Python result)`` of one zero-argument call."""
    compiled = call()
    with python_bodies():
        return compiled, call()


def assert_same_array(compiled, python):
    assert compiled.dtype == python.dtype
    assert compiled.shape == python.shape
    assert np.array_equal(compiled, python)


SEEDS = [0, 7, 2**63, 2**64 - 1]


@needs_kernel
def test_python_bodies_bypass_every_kernel_entry_point():
    """Otherwise the parity tests below would compare the kernel with
    itself."""
    tripwires = [
        mock.patch.object(type(kernel), name, side_effect=AssertionError)
        for kernel, names in [
            (load_prng_ckernel(), ["permutation"]),
            (load_structure_ckernel(),
             ["pair_stubs_with_repair", "lfr_intra", "lfr_assign",
              "csr_fill", "rmat_descend"]),
        ]
        for name in names
    ]
    with contextlib.ExitStack() as stack:
        for tripwire in tripwires:
            stack.enter_context(tripwire)
        with python_bodies():
            LFR(seed=1).run_with_labels(60)
            csr_arrays([0], [0], 1)
            RMat(seed=1).run(8)
        for call in (
            lambda: RandomStream(1).permutation(4),
            lambda: pair_stubs_with_repair(np.array([1, 1]), RandomStream(1)),
            lambda: LFR(seed=1).run_with_labels(60),
            lambda: csr_arrays([0], [0], 1),
            lambda: RMat(seed=1).run(8),
        ):
            with pytest.raises(AssertionError):
                call()


@needs_kernel
class TestPermutation:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 65_537])
    def test_equals_python_fisher_yates(self, seed, n):
        assert_same_array(
            *both(lambda: RandomStream(seed).permutation(n))
        )

    def test_negative_size_is_empty_on_both_paths(self):
        compiled, python = both(lambda: RandomStream(1).permutation(-3))
        assert compiled.size == python.size == 0


def degree_vectors():
    dense = st.integers(1, 80).flatmap(
        lambda n: st.lists(st.integers(0, n), min_size=n, max_size=n)
    )
    return st.one_of(
        st.lists(st.just(0), max_size=12),                   # all zero
        st.lists(st.integers(0, 1), max_size=3),             # sum < 2 ...
        st.lists(st.integers(0, 200), min_size=1, max_size=1),
        dense,                                               # odd or even
    )


@needs_kernel
class TestPairStubsWithRepair:
    @common_settings
    @given(
        degrees=degree_vectors(),
        seed=st.sampled_from(SEEDS) | st.integers(0, 2**64 - 1),
        rounds=st.sampled_from([1, 3]),
    )
    def test_equals_numpy_rounds(self, degrees, seed, rounds):
        compiled, python = both(lambda: pair_stubs_with_repair(
            np.array(degrees, dtype=np.int64), RandomStream(seed), rounds
        ))
        assert_same_array(compiled, python)
        assert compiled.shape[1:] == (2,)

    @pytest.mark.parametrize("rounds", [1, 3])
    def test_sparse_50000(self, rounds):
        degrees = Zipf(1.5, 12).sample(
            RandomStream(5), np.arange(50_000)
        )
        compiled, python = both(lambda: pair_stubs_with_repair(
            degrees, RandomStream(9), rounds
        ))
        assert len(compiled) > 10_000
        assert_same_array(compiled, python)

    def test_negative_degrees_take_the_python_body(self):
        """The kernel declines; the numpy rounds decide (here: raise)."""
        with pytest.raises(ValueError, match="nonnegative"):
            pair_stubs_with_repair(
                np.array([-1, 5]), RandomStream(3)
            )

    def test_no_rounds_is_empty(self):
        compiled, python = both(lambda: pair_stubs_with_repair(
            np.array([3, 3, 2]), RandomStream(3), rounds=0
        ))
        assert_same_array(compiled, python)
        assert compiled.shape == (0, 2)


@st.composite
def edge_lists(draw):
    """``(src, dst, n)``: ``m = 0`` included, ids from a few values (so
    self-loops and multi-edges are common) in node ranges on both
    sides of the twin's 16-bit radix digit, isolated nodes mostly."""
    n = draw(st.sampled_from([1, 2, 9, 65_536, 65_537, 2**20 + 3]))
    pool = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    m = draw(st.integers(0, 300))
    src, dst = (
        np.asarray(draw(st.lists(st.sampled_from(pool), min_size=m,
                                 max_size=m)), dtype=np.int64)
        for _ in range(2)
    )
    return src, dst, n


@needs_kernel
class TestCsrFill:
    @common_settings
    @given(case=edge_lists(), symmetric=st.booleans())
    def test_equals_twin_and_argsort(self, case, symmetric):
        src, dst, n = case
        compiled, twin = both(
            lambda: csr_arrays(src, dst, n, symmetric=symmetric)
        )
        reference = _argsort_csr(src, dst, n, symmetric)
        for got, python, expected in zip(compiled, twin, reference):
            assert_same_array(got, python)
            assert_same_array(got, expected)

    @pytest.mark.parametrize("bad", [3, -1, 2**63 - 1])
    def test_kernel_refuses_an_id_before_writing_a_neighbour(self, bad):
        """The C guard under :func:`csr_arrays`' own check: an error
        code, the neighbour buffer untouched."""
        lib = load_structure_ckernel()._lib
        src = np.array([0, 1, 2], dtype=np.int64)
        dst = np.array([1, bad, 0], dtype=np.int64)
        indptr = np.empty(4, dtype=np.int64)
        neighbors = np.full(6, -7, dtype=np.int64)
        assert lib.csr_fill(src, dst, 3, 3, 1, indptr, neighbors) == -1
        assert (neighbors == -7).all()
        with pytest.raises(ValueError, match=r"\[0, num_nodes\)"):
            load_structure_ckernel().csr_fill(dst, src, 3, False)


@st.composite
def rmat_plans(draw):
    """``(plan, scale)`` of :meth:`RMat._level_plan` over any quadrant
    probabilities (``a + b + c <= 1``, edges of the simplex included),
    with or without per-level noise."""
    a = draw(st.floats(0, 1))
    b = draw(st.floats(0, 1 - a))
    c = draw(st.floats(0, 1 - a - b))
    noise = draw(st.just(0.0) | st.floats(0, 1, exclude_min=True,
                                          exclude_max=True))
    scale = draw(st.integers(1, 31))
    generator = RMat(seed=0, a=a, b=b, c=c, noise=noise)
    stream = RandomStream(draw(st.sampled_from(SEEDS)
                               | st.integers(0, 2**64 - 1)))
    return generator._level_plan(scale, stream), scale


@needs_kernel
class TestRmatDescend:
    @common_settings
    @given(case=rmat_plans(), lo=st.integers(0, 2**40),
           count=st.integers(0, 300))
    def test_equals_numpy_descent(self, case, lo, count):
        plan, scale = case
        compiled = load_structure_ckernel().rmat_descend(
            plan, lo, lo + count)
        python = RMat._descend(
            plan, scale, np.arange(lo, lo + count, dtype=np.int64))
        for got, expected in zip(compiled, python):
            assert_same_array(got, expected)
            assert ((got >= 0) & (got < 1 << scale)).all()

    @pytest.mark.parametrize("simplify", [False, True])
    def test_run_on_both_paths(self, simplify):
        compiled, python = both(
            lambda: RMat(seed=5, noise=0.1, simplify=simplify).run(1 << 12)
        )
        assert_same_array(compiled.tails, python.tails)
        assert_same_array(compiled.heads, python.heads)


def scalar_community_sizes(generator, n, stream):
    """``LFR._community_sizes`` as it was: one draw per iteration."""
    cmin = generator.param("min_community", 10)
    cmax = min(generator.param("max_community", 50), n)
    if cmin > n:
        return np.array([n], dtype=np.int64)
    dist = PowerLaw(generator.param("tau2", 1.0), cmin, cmax)
    sizes, total, draw = [], 0, 0
    while total < n:
        size = int(dist.sample_values(stream, np.int64(draw)))
        sizes.append(size)
        total += size
        draw += 1
    sizes[-1] -= total - n
    if sizes[-1] < cmin and len(sizes) > 1:
        sizes[-2] += sizes[-1]
        sizes.pop()
    return np.array(sizes, dtype=np.int64)


class TestCommunitySizes:
    @pytest.mark.parametrize("seed", [7, 11, 2**63 + 1])
    @pytest.mark.parametrize("n", [1, 9, 10, 11, 300, 20_000])
    def test_batched_draws_equal_the_scalar_loop(self, n, seed):
        generator = LFR(seed=seed)
        stream = RandomStream(seed, "sizes")
        sizes = generator._community_sizes(n, stream)
        assert_same_array(
            sizes, scalar_community_sizes(generator, n, stream)
        )
        assert int(sizes.sum()) == n


@needs_kernel
class TestAssignCommunities:
    @staticmethod
    def assign(internal, sizes, seed=4):
        return both(lambda: LFR(seed=1)._assign_communities(
            np.asarray(internal, dtype=np.int64),
            np.asarray(sizes, dtype=np.int64),
            RandomStream(seed),
        ))

    @common_settings
    @given(
        sizes=st.lists(st.integers(2, 60), min_size=1, max_size=40),
        seed=st.integers(0, 2**64 - 1),
        data=st.data(),
    )
    def test_equals_python_fenwick_walk(self, sizes, seed, data):
        n = sum(sizes)
        internal = data.draw(st.lists(
            st.integers(0, max(sizes) - 1), min_size=n, max_size=n
        ))
        compiled, python = self.assign(internal, sizes, seed)
        assert_same_array(compiled, python)
        assert np.array_equal(
            np.bincount(compiled, minlength=len(sizes)), sizes
        )

    def test_relax_branch_opens_a_too_small_community(self):
        """No community is larger than the first node's internal
        degree, so nothing is eligible until one is forced open."""
        compiled, python = self.assign([9, 9, 1, 1, 0, 0], [3, 3])
        assert_same_array(compiled, python)
        assert np.array_equal(np.bincount(compiled), [3, 3])

    def test_exhaustion_is_the_python_error(self):
        with pytest.raises(RuntimeError, match="capacity exhausted"):
            LFR(seed=1)._assign_communities(
                np.zeros(5, dtype=np.int64),
                np.array([2, 2], dtype=np.int64),
                RandomStream(4),
            )


@needs_kernel
class TestLfrEndToEnd:
    @pytest.mark.parametrize("mu", [0.0, 0.1, 0.9])
    @pytest.mark.parametrize("n", [25, 300, 5_000])
    @pytest.mark.parametrize("seed", [7, 11, 2**63 + 12345])
    def test_tables_and_labels(self, seed, n, mu):
        compiled, python = both(
            lambda: LFR(seed=seed, mu=mu).run_with_labels(n)
        )
        assert_same_array(compiled.communities, python.communities)
        assert_same_array(compiled.table.tails, python.table.tails)
        assert_same_array(compiled.table.heads, python.table.heads)
        assert len(compiled.table) > n


@needs_kernel
class TestBipartiteConfiguration:
    PARAMS = {
        "tail_distribution": Zipf(1.2, 6),
        "head_distribution": Zipf(1.2, 6),
        "tail_offset": 1,
        "head_offset": 1,
    }

    def tables(self, n=4_000):
        generator = create_generator(
            "bipartite_configuration", seed=13, **self.PARAMS
        )
        return (
            generator.run(n),
            generator.run_chunked(n, 512).to_edge_table(),
        )

    def test_in_ram_and_chunked_on_both_paths(self):
        (ram, chunked), (py_ram, py_chunked) = both(self.tables)
        for table in (chunked, py_ram, py_chunked):
            assert_same_array(ram.tails, table.tails)
            assert_same_array(ram.heads, table.heads)


_ZOO_DIGEST = """
import hashlib, sys
from pathlib import Path
from repro.prng._ckernel import load_prng_ckernel
from repro.scenarios import compile_scenario, load_zoo, run_scenario
from repro.structure._ckernel import load_structure_ckernel
out = Path(sys.argv[1])
run_scenario(
    compile_scenario(load_zoo("social_network"), scale={"Person": 400},
                     seed=7),
    out_dir=out, formats=["csv"], validate=False,
)
digest = hashlib.sha256()
for path in sorted(out.iterdir()):
    digest.update(path.name.encode() + b"\\0" + path.read_bytes())
loaded = [load_prng_ckernel() is not None,
          load_structure_ckernel() is not None]
print(digest.hexdigest(), *loaded)
"""


def _zoo_digest(out, **env):
    done = subprocess.run(
        [sys.executable, "-c", _ZOO_DIGEST, str(out)],
        env={**os.environ, **env}, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    digest, *loaded = done.stdout.split()
    return digest, loaded


class TestKernelUnavailable:
    """The zoo ``social_network`` export (LFR, one-to-many, matching
    maps) when no compiler works; the differential oracle's
    ``no-ckernel`` leg covers the kernels switched off."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        return _zoo_digest(tmp_path_factory.mktemp("zoo-reference"))[0]

    def test_same_bytes_with_a_failing_compiler(self, tmp_path,
                                                reference):
        cache = tmp_path / "cold-cache"
        assert _zoo_digest(
            tmp_path / "out", CC="/bin/false",
            REPRO_CKERNEL_CACHE=str(cache),
        ) == (reference, ["False", "False"])
        assert not list(cache.glob("*.so"))

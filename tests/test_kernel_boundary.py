"""The one typed boundary into the embedded C kernels.

* :func:`repro.core.ccompile.bind` types every exported C function
  from its own prototype, and refuses a C type it has no ctypes type
  for (the loader then falls back to numpy);
* every kernel loads compiled where a compiler is present, so the
  kernel tests that skip without one cannot skip silently here;
* a caller's ``prep`` (and any ``order`` / sizes) is checked before
  the placement loop reads it: a bad one is a ``ValueError``, a good
  one places exactly as the numpy twin does.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core import ccompile
from repro.core.matching import sbm_part_assign
from repro.core.matching._ckernel import load_ckernel
from repro.core.matching.kernel import (
    MatchPrep,
    bipartite_stream,
    prepare_match_stream,
)
from repro.io._ckernel import load_text_ckernel
from repro.partitioning import ldg_partition
from repro.prng import RandomStream
from repro.prng._ckernel import load_prng_ckernel
from repro.properties._ckernel import load_property_ckernel
from repro.structure._ckernel import load_structure_ckernel
from repro.tables import EdgeTable

SRC = Path(repro.__file__).resolve().parents[1]

LOADERS = [
    load_ckernel, load_text_ckernel, load_property_ckernel,
    load_prng_ckernel, load_structure_ckernel,
]


def _fake_lib(*names):
    return SimpleNamespace(**{name: SimpleNamespace() for name in names})


class TestBind:
    def test_types_each_exported_function_from_its_prototype(self):
        source = r"""
        #include <stdint.h>
static int64_t helper(const int64_t *a) { return a[0]; }
/* int64_t commented_out(float x) { */
int64_t entry(
    int64_t n, uint64_t seed,  /* scalars */
    const int64_t *in, double *out, const char *text, char *buf,
    const void **cols, int32_t flag, char sep)
{
    return helper(in);
}

void fill(int64_t n, uint64_t *out)
{
}
"""
        lib = ccompile.bind(_fake_lib("entry", "fill"), source)
        assert lib.entry.restype is ctypes.c_int64
        i64, f64, u8, u64 = (
            np.ctypeslib.ndpointer(dtype=d, flags="C_CONTIGUOUS")
            for d in (np.int64, np.float64, np.uint8, np.uint64)
        )
        assert lib.entry.argtypes == [
            ctypes.c_int64, ctypes.c_uint64, i64, f64, ctypes.c_char_p,
            u8, ctypes.POINTER(ctypes.c_void_p), ctypes.c_int32,
            ctypes.c_char,
        ]
        assert lib.fill.restype is None
        assert lib.fill.argtypes == [ctypes.c_int64, u64]

    def test_unmapped_c_type_raises(self):
        source = "int64_t scale(int64_t n, float factor)\n{\n}\n"
        with pytest.raises(TypeError, match="scale.*'float'"):
            ccompile.bind(_fake_lib("scale"), source)

    def test_loader_falls_back_on_an_unmapped_type(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CKERNEL", raising=False)
        monkeypatch.setattr(
            ccompile, "compile_cached",
            lambda source, prefix: _fake_lib("scale"),
        )
        source = "void scale(float *values)\n{\n}\n"
        assert ccompile.load_once(source, "fake")() is None

    def test_a_wrong_array_stops_in_python(self):
        kernel = load_prng_ckernel()
        if kernel is None:
            pytest.skip("no compiled PRNG kernel on this host")
        lib = kernel._lib
        with pytest.raises(ctypes.ArgumentError):
            lib.stream_permutation(1, 4, np.zeros(4, dtype=np.int32))
        with pytest.raises(ctypes.ArgumentError):
            lib.stream_permutation(1, 4, np.zeros(8, dtype=np.int64)[::2])


@pytest.mark.skipif(
    not (os.environ.get("CC") or shutil.which("cc")),
    reason="no C compiler on PATH",
)
def test_every_kernel_loads_compiled(monkeypatch):
    """With a compiler and the switch unset, no kernel may fall back:
    the kernel tests compare C against numpy only when C loads."""
    monkeypatch.delenv("REPRO_NO_CKERNEL", raising=False)
    assert [loader() is not None for loader in LOADERS] == [True] * 5


# -- prep checks --------------------------------------------------------------


def _path_graph():
    table = EdgeTable(
        "e", [0, 1, 2], [1, 2, 3], num_tail_nodes=4, num_head_nodes=4
    )
    return table, prepare_match_stream(table)


@pytest.fixture(params=["c", "numpy"])
def impl(request, monkeypatch):
    if request.param == "numpy":
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    else:
        monkeypatch.delenv("REPRO_NO_CKERNEL", raising=False)
    return request.param


class TestPrepChecks:
    def test_out_of_range_neighbours_stop_before_the_loop(self):
        """Run apart: without the check this read out of bounds in C
        and killed the process (SIGSEGV)."""
        script = textwrap.dedent("""
            import numpy as np
            from repro.core.matching.kernel import (
                MatchPrep, ldg_partition, prepare_match_stream)
            from repro.tables import EdgeTable

            t = EdgeTable("e", [0, 1, 2], [1, 2, 3],
                          num_tail_nodes=4, num_head_nodes=4)
            p = prepare_match_stream(t)
            bad = MatchPrep(p.indptr, p.neighbors * 1000, np.arange(4))
            try:
                ldg_partition(t, [2, 2], prep=bad)
            except ValueError as error:
                print("ValueError:", error)
        """)
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        env.pop("REPRO_NO_CKERNEL", None)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("ValueError: prep.neighbors")

    def test_duplicate_arrival_raises(self, impl):
        """Was the silent wrong answer ``[1 -1 -1 -1]`` in C."""
        table, prep = _path_graph()
        bad = MatchPrep(prep.indptr, prep.neighbors, np.array([0, 0, 1, 2]))
        with pytest.raises(ValueError, match="permutation"):
            ldg_partition(table, [2, 2], prep=bad)

    @pytest.mark.parametrize("field, value, match", [
        ("indptr", lambda p: p.indptr[:-1], "indptr"),
        ("indptr", lambda p: p.indptr + 1, "indptr"),
        ("indptr", lambda p: p.indptr[[0, 2, 1, 3, 4]], "indptr"),
        ("indptr", lambda p: p.indptr - np.eye(5, dtype=int)[4], "indptr"),
        ("neighbors", lambda p: p.neighbors - 1, "neighbors"),
        ("neighbors", lambda p: p.neighbors.reshape(2, -1), "indptr"),
        ("order", lambda p: p.order[:3], "permutation"),
        ("order", lambda p: p.order + 1, "permutation"),
    ])
    def test_bad_prep_raises(self, impl, field, value, match):
        table, prep = _path_graph()
        bad = MatchPrep(**{**vars(prep), field: value(prep)})
        with pytest.raises(ValueError, match=match):
            sbm_part_assign(table, [2, 2], np.ones((2, 2)), prep=bad)

    def test_a_good_prep_of_any_dtype_and_stride_is_used(self, impl):
        table, prep = _path_graph()
        loose = MatchPrep(
            prep.indptr.astype(np.int32),
            prep.neighbors.astype(np.int16),
            np.array([3, 9, 1, 9, 0, 9, 2, 9])[::2],
        )
        order = [3, 1, 0, 2]
        assert np.array_equal(
            ldg_partition(table, [2, 2], order=order, prep=loose),
            ldg_partition(table, [2, 2], order=order),
        )


@pytest.mark.parametrize("tail_sizes, head_sizes, shape, match", [
    ([2, 2], [3, -1], (2, 2), "head group sizes must be nonnegative"),
    ([1, 2], [1, 1], (2, 2), "tail group sizes sum to 3 < n = 4"),
    ([2, 2], [1, 1], (2, 3), r"target must be \(2, 2\)"),
])
def test_bipartite_sizes_and_target_are_checked(
    tail_sizes, head_sizes, shape, match,
):
    table = EdgeTable(
        "b", [0, 1, 2, 3], [0, 1, 1, 0], num_tail_nodes=4, num_head_nodes=2
    )
    with pytest.raises(ValueError, match=match):
        bipartite_stream(table, tail_sizes, head_sizes, np.ones(shape))


# -- adversarial inputs against the numpy twin -------------------------------

MUTATIONS = {
    "none": lambda p, r: p,
    "order_duplicate": lambda p, r: p._replace(
        order=np.r_[p.order[1], p.order[1:]]),
    "order_out_of_range": lambda p, r: p._replace(
        order=np.r_[p.order[:-1], r.integers(p.n, 2**40)]),
    "order_short": lambda p, r: p._replace(order=p.order[:-1]),
    "order_strided": lambda p, r: p._replace(
        order=np.repeat(p.order, 2)[::2]),
    "order_mismatch": lambda p, r: p._replace(
        given=np.roll(p.order, 1)),
    "neighbour_high": lambda p, r: p._replace(
        neighbors=_poke(p.neighbors, r, r.integers(p.n, 2**40))),
    "neighbour_negative": lambda p, r: p._replace(
        neighbors=_poke(p.neighbors, r, -r.integers(1, 2**40))),
    "indptr_short": lambda p, r: p._replace(indptr=p.indptr[:-1]),
    "indptr_shifted": lambda p, r: p._replace(indptr=p.indptr + 1),
    "indptr_decreasing": lambda p, r: p._replace(
        indptr=_poke(p.indptr, r, -1)),
    "indptr_end": lambda p, r: p._replace(
        indptr=np.r_[p.indptr[:-1], p.indptr[-1] + 1]),
}


class _Case(SimpleNamespace):
    def _replace(self, **changes):
        return _Case(**{**vars(self), **changes})


def _poke(array, rng, value):
    array = array.copy()
    array[rng.integers(1, array.size)] = value
    return array


def _outcome(call, numpy_only):
    """``call()``'s result, or ``ValueError`` when it raised one."""
    with pytest.MonkeyPatch.context() as patch:
        if numpy_only:
            patch.setenv("REPRO_NO_CKERNEL", "1")
        else:
            patch.delenv("REPRO_NO_CKERNEL", raising=False)
        try:
            return call()
        except ValueError:
            return ValueError


def _assert_twins(call):
    """The compiled call raises ``ValueError`` exactly when the numpy
    twin does, and returns the same arrays otherwise."""
    got, twin = _outcome(call, False), _outcome(call, True)
    if twin is ValueError or got is ValueError:
        assert got is twin
    else:
        got, twin = (x if isinstance(x, tuple) else (x,) for x in (got, twin))
        assert len(got) == len(twin)
        assert all(map(np.array_equal, got, twin))


def _sizes(rng, n, k, slack):
    """``k`` group sizes summing to ``n + slack``, one of them moved by
    ``slack`` (so a few go negative or fall short of ``n``)."""
    sizes = rng.multinomial(n, np.full(k, 1.0 / k))
    sizes[rng.integers(k)] += slack
    return sizes


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(130, 400),
    k=st.integers(1, 6),
    slack=st.integers(-3, 3),
    mutation=st.sampled_from(sorted(MUTATIONS)),
    ties=st.booleans(),
)
def test_adversarial_inputs_raise_or_match_the_numpy_twin(
    seed, n, k, slack, mutation, ties,
):
    """Arrays above 1 KiB (``n >= 130`` int64 row pointers), so a
    stray access lands outside the allocator's small-object slack."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(n, 4 * n))
    table = EdgeTable(
        "e", rng.integers(0, n, m), rng.integers(0, n, m),
        num_tail_nodes=n, num_head_nodes=n,
    )
    order = rng.permutation(n)
    built = prepare_match_stream(table, order)
    case = MUTATIONS[mutation](
        _Case(n=n, given=order, indptr=built.indptr,
              neighbors=built.neighbors, order=built.order),
        rng,
    )
    prep = MatchPrep(case.indptr, case.neighbors, case.order)
    sizes = _sizes(rng, n, k, slack)
    tie_stream = RandomStream(seed, "ties") if ties else None
    # Integer-valued targets keep every score exact in both loops.
    target = rng.integers(0, m, (k, k)).astype(np.float64)
    _assert_twins(lambda: sbm_part_assign(
        table, sizes, target, order=case.given, tie_stream=tie_stream,
        prep=prep,
    ))
    _assert_twins(lambda: ldg_partition(
        table, sizes, order=case.given, tie_stream=tie_stream, prep=prep,
    ))

    nt, nh = n, int(rng.integers(130, 400))
    bipartite = EdgeTable(
        "b", rng.integers(0, nt, m), rng.integers(0, nh, m),
        num_tail_nodes=nt, num_head_nodes=nh,
    )
    mixed = _Case(n=nt + nh, order=rng.permutation(nt + nh))
    if mutation.startswith("order_"):
        mixed = MUTATIONS[mutation](mixed, rng)
    kh = int(rng.integers(1, 6))
    head_sizes = _sizes(rng, nh, kh, slack)
    target = rng.integers(0, m, (k, kh)).astype(np.float64)
    _assert_twins(lambda: bipartite_stream(
        bipartite, sizes, head_sizes, target, order=mixed.order,
    ))

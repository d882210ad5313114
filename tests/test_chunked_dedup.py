"""Out-of-core sort-merge dedup: primitives and chunked equivalence.

``repro.io.spool.SortedRuns`` / ``dedup_first_occurrence`` are the
one dedup of the globally-deduplicating structure stages (R-MAT
``simplify``, bipartite stub dedup, G(n, m) sampling), in memory and
in bounded memory alike.  The contract is exact: unique-mode merges
must reproduce ``np.unique``'s first-occurrence rule bit for bit,
whether the records fit one run or many, and a generator's stream must
be the same edge table for any run size — ``run(n)``'s single run and
degenerate multi-run splits included.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.structure.base as base_mod
from repro.io.spool import (
    IN_MEMORY,
    SortedRuns,
    TableSpool,
    dedup_first_occurrence,
)
from repro.stats import Zipf
from repro.structure import (
    BipartiteConfiguration,
    ErdosRenyiM,
    RMat,
    StochasticBlockModel,
)

#: Tiny run size (SortedRuns clamps to 1024) so a few thousand rows
#: split into several spilled runs and the k-way merge actually merges.
_SMALL_RUNS = 1024


@pytest.fixture
def spill(tmp_path):
    spool = TableSpool(tmp_path / "spool", 1024)
    yield spool.spiller("test")
    spool.cleanup()


class TestSortedRuns:
    def test_multi_run_merge_is_globally_sorted(self, spill):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 10_000, size=5_000)
        runs = SortedRuns(spill, "s", _SMALL_RUNS)
        for block in np.array_split(values, 7):
            runs.push(block)
        assert len(runs) >= 3  # genuinely multi-run
        merged = np.concatenate([p for p, _ in runs.merge()])
        np.testing.assert_array_equal(merged, np.sort(values))
        # Re-iterable: a second merge pass sees the same stream.
        again = np.concatenate([p for p, _ in runs.merge()])
        np.testing.assert_array_equal(again, merged)
        runs.cleanup()

    def test_unique_keeps_smallest_secondary(self, spill):
        rng = np.random.default_rng(1)
        primary = rng.integers(0, 500, size=4_000)
        secondary = np.arange(4_000, dtype=np.int64)
        runs = SortedRuns(spill, "u", _SMALL_RUNS, unique=True)
        for lo in range(0, 4_000, 611):
            runs.push(primary[lo:lo + 611], secondary[lo:lo + 611])
        got_p = []
        got_s = []
        for p, s in runs.merge():
            got_p.append(p)
            got_s.append(s)
        got_p = np.concatenate(got_p)
        got_s = np.concatenate(got_s)
        expect_p, first = np.unique(primary, return_index=True)
        np.testing.assert_array_equal(got_p, expect_p)
        np.testing.assert_array_equal(got_s, secondary[first])
        runs.cleanup()

    @pytest.mark.parametrize("unique", [False, True])
    @pytest.mark.parametrize("paired", [False, True])
    def test_single_run_is_paged_as_spilled(self, spill, paired, unique):
        """``run_rows`` >= rows: one run, paged without a merge
        re-sort, its duplicates dropped by the neighbour-difference
        mask — tied primaries carry shuffled secondaries, so keeping
        the smallest one is a real choice."""
        rng = np.random.default_rng(2)
        primary = rng.integers(0, 2_000, size=3_000)
        secondary = rng.permutation(3_000)
        runs = SortedRuns(spill, "one", 4_096, unique=unique)
        for lo in range(0, 3_000, 700):
            runs.push(
                primary[lo:lo + 700],
                secondary[lo:lo + 700] if paired else None,
            )
        blocks = list(runs.merge(block_rows=1_000))
        assert len(runs) == 1 and len(blocks) > 1
        got_p = np.concatenate([p for p, _ in blocks])
        # np.unique's first occurrence in secondary order is the
        # record with the smallest secondary.
        by_secondary = np.argsort(secondary)
        expect_p, first = np.unique(
            primary[by_secondary], return_index=True
        )
        if unique:
            np.testing.assert_array_equal(got_p, expect_p)
        else:
            np.testing.assert_array_equal(got_p, np.sort(primary))
        if paired:
            got_s = np.concatenate([s for _, s in blocks])
            if unique:
                np.testing.assert_array_equal(
                    got_s, secondary[by_secondary][first]
                )
            else:
                order = np.lexsort((secondary, primary))
                np.testing.assert_array_equal(got_s, secondary[order])
        else:
            assert all(s is None for _, s in blocks)
        runs.cleanup()

    @pytest.mark.parametrize("unique", [False, True])
    @pytest.mark.parametrize("num_runs", [2, 8, 32, 62])
    def test_block_count_is_linear_in_the_runs(self, num_runs, unique):
        """Every buffer is topped up to a block before each cut, so a
        step emits about a block per run: ``R`` random runs at
        ``run_rows // R`` rows a block merge in at most ``2R + 2``
        blocks (a buffer refilled only when empty made that ~``R²``),
        and the blocks still concatenate to the full sort."""
        rng = np.random.default_rng(num_runs)
        rows = 4_096 * num_runs
        primary = rng.integers(0, rows // 2, size=rows)
        secondary = rng.permutation(rows)
        runs = SortedRuns(IN_MEMORY, "r", 4_096, unique=unique)
        for lo in range(0, rows, 4_096):
            runs.push(primary[lo:lo + 4_096], secondary[lo:lo + 4_096])
        assert len(runs) == num_runs
        blocks = list(runs.merge(block_rows=4_096 // num_runs))
        assert len(blocks) <= 2 * num_runs + 2
        got_p = np.concatenate([p for p, _ in blocks])
        got_s = np.concatenate([s for _, s in blocks])
        order = np.lexsort((secondary, primary))
        if unique:
            # Sorted by (primary, secondary): the first record of each
            # primary holds its smallest secondary.
            order = order[np.unique(primary[order], return_index=True)[1]]
        np.testing.assert_array_equal(got_p, primary[order])
        np.testing.assert_array_equal(got_s, secondary[order])

    @pytest.mark.parametrize("unique", [False, True])
    @pytest.mark.parametrize("block", [377, 1_024, 1_600, 5_000])
    def test_no_run_exceeds_run_rows(self, spill, block, unique):
        """A pushed block is cut at the run boundary: every spilled run
        holds at most ``run_rows`` records (before, a run could hold
        ``run_rows`` plus a whole block), and every run but the last
        holds exactly ``run_rows`` when nothing is dropped."""
        rng = np.random.default_rng(block)
        primary = rng.integers(0, 10**9, size=7_000)
        secondary = np.arange(primary.size, dtype=np.int64)
        runs = SortedRuns(spill, "cut", _SMALL_RUNS, unique=unique)
        for lo in range(0, primary.size, block):
            runs.push(primary[lo:lo + block], secondary[lo:lo + block])
        runs.flush()
        sizes = [len(run_primary) for run_primary, _ in runs._runs]
        assert len(sizes) == -(-primary.size // _SMALL_RUNS)
        assert max(sizes) <= _SMALL_RUNS
        if not unique:
            assert sizes[:-1] == [_SMALL_RUNS] * (len(sizes) - 1)
            assert sum(sizes) == primary.size
        merged = [np.concatenate(column) for column in zip(*runs.merge())]
        order = np.lexsort((secondary, primary))
        np.testing.assert_array_equal(merged[0], primary[order])
        np.testing.assert_array_equal(merged[1], secondary[order])
        runs.cleanup()

    def test_cleanup_unlinks_spilled_runs(self, tmp_path):
        spool = TableSpool(tmp_path / "spool", 1024)
        spill = spool.spiller("scratch")
        runs = SortedRuns(spill, "c", _SMALL_RUNS)
        runs.push(np.arange(5_000, dtype=np.int64))
        runs.flush()
        spilled = [
            p for p in (tmp_path / "spool").rglob("*.npy")
            if ".run" in p.name
        ]
        assert spilled
        runs.cleanup()
        assert not [
            p for p in (tmp_path / "spool").rglob("*.npy")
            if ".run" in p.name
        ]
        assert runs.total() == 0  # buffers reset, not replayed
        spool.cleanup()


class TestDedupFirstOccurrence:
    @pytest.mark.parametrize("size,universe", [
        (5_000, 700),     # heavy duplication across runs
        (3_000, 10**9),   # essentially no duplicates
        (0, 10),          # empty input
    ])
    def test_matches_np_unique_first_occurrence(
        self, spill, size, universe
    ):
        rng = np.random.default_rng(size + 3)
        codes = rng.integers(0, universe, size=size)
        edge_ids = np.arange(size, dtype=np.int64)

        def blocks():
            for lo in range(0, size, 977):
                hi = min(lo + 977, size)
                yield codes[lo:hi], edge_ids[lo:hi]

        total, final = dedup_first_occurrence(
            spill, "dedup", blocks(), _SMALL_RUNS
        )
        _, first = np.unique(codes, return_index=True)
        first.sort()
        assert total == first.size
        np.testing.assert_array_equal(np.asarray(final), codes[first])

    def test_single_run_passes(self, spill):
        """Both passes fit one run (the in-memory ``run(n)`` case): the
        blocks land in by-code order and the result still follows
        first occurrence by edge id."""
        rng = np.random.default_rng(5)
        codes = rng.integers(0, 700, size=5_000)
        edge_ids = np.arange(5_000, dtype=np.int64)
        blocks = ((codes[lo:lo + 977], edge_ids[lo:lo + 977])
                  for lo in range(0, 5_000, 977))
        total, final = dedup_first_occurrence(spill, "one", blocks, 8_192)
        _, first = np.unique(codes, return_index=True)
        first.sort()
        assert total == first.size
        np.testing.assert_array_equal(np.asarray(final), codes[first])

    def test_in_ram_runs_are_freed_as_they_drain(self):
        """Each merge frees its runs as it reads past them, so the
        by-code runs shrink while the by-order runs grow: over 16
        in-RAM runs the traced peak stays below two copies of the
        records, which both passes' runs at once would take."""
        n = 1 << 18
        codes = np.random.default_rng(0).integers(0, 1 << 40, size=n)
        edge_ids = np.arange(n, dtype=np.int64)
        blocks = ((codes[lo:lo + 4096], edge_ids[lo:lo + 4096])
                  for lo in range(0, n, 4096))
        tracemalloc.start()
        try:
            total, final = dedup_first_occurrence(
                IN_MEMORY, "peak", blocks, n // 16
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _, first = np.unique(codes, return_index=True)
        first.sort()
        np.testing.assert_array_equal(final, codes[first])
        assert peak < 2 * (codes.nbytes + edge_ids.nbytes)

    def test_both_spills_dedup_alike(self, spill):
        """The in-RAM spill keeps runs and result as arrays, the
        spool's as memory-mapped views; the rows are the same."""
        codes = np.random.default_rng(7).integers(0, 900, size=4_000)
        edge_ids = np.arange(codes.size, dtype=np.int64)
        results = [
            dedup_first_occurrence(
                kept, "both", [(codes, edge_ids)], _SMALL_RUNS
            )
            for kept in (IN_MEMORY, spill)
        ]
        (ram_total, ram), (spool_total, spooled) = results
        assert isinstance(ram, np.ndarray)
        assert not isinstance(spooled, np.ndarray)
        assert ram_total == spool_total
        np.testing.assert_array_equal(ram, np.asarray(spooled))


@st.composite
def tied_records(draw):
    """``(codes, secondaries, run_rows)``: codes from a small universe,
    so most share their code with others, and distinct secondaries
    pushed in descending or shuffled order, fitting one run or many."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, 6_000))
    codes = rng.integers(0, draw(st.integers(1, 3_000)), size=size)
    ids = np.arange(size, dtype=np.int64) * draw(st.integers(1, 5))
    secondaries = draw(st.sampled_from([
        ids[::-1].copy(), rng.permutation(ids),
    ]))
    return codes, secondaries, draw(st.sampled_from([1_024, 8_192]))


def keep_first_by_lexsort(codes, secondaries):
    """The two-key reference: sort by ``(code, secondary)``, keep the
    first record of each code."""
    order = np.lexsort((secondaries, codes))
    ranked = codes[order]
    first = np.ones(ranked.size, dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    return ranked[first], secondaries[order][first]


class TestUniqueTies:
    """Unique mode over tied codes keeps each code's smallest secondary
    whatever order the secondaries arrive in, in one run or many."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=tied_records(), block=st.integers(1, 2_500))
    def test_sorted_runs_keep_the_smallest_secondary(self, case, block):
        codes, secondaries, run_rows = case
        runs = SortedRuns(IN_MEMORY, "ties", run_rows, unique=True)
        for lo in range(0, codes.size, block):
            runs.push(codes[lo:lo + block], secondaries[lo:lo + block])
        got = [np.concatenate(column) for column in zip(*runs.merge())]
        expected = keep_first_by_lexsort(codes, secondaries)
        by_secondary = np.argsort(secondaries)
        unique_codes, first = np.unique(codes[by_secondary],
                                        return_index=True)
        for column, reference in zip(got, expected):
            assert column.dtype == reference.dtype
            np.testing.assert_array_equal(column, reference)
        np.testing.assert_array_equal(got[0], unique_codes)
        np.testing.assert_array_equal(got[1],
                                      secondaries[by_secondary][first])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=tied_records())
    def test_dedup_first_occurrence(self, case):
        codes, edge_ids, run_rows = case
        blocks = ((codes[lo:lo + 999], edge_ids[lo:lo + 999])
                  for lo in range(0, codes.size, 999))
        total, final = dedup_first_occurrence(IN_MEMORY, "ties", blocks,
                                              run_rows)
        kept_codes, kept_ids = keep_first_by_lexsort(codes, edge_ids)
        by_id = np.argsort(edge_ids)
        _, first = np.unique(codes[by_id], return_index=True)
        first.sort()
        assert total == first.size
        np.testing.assert_array_equal(final, codes[by_id][first])
        np.testing.assert_array_equal(
            final, kept_codes[np.argsort(kept_ids)])


class TestChunkedEqualsSerial:
    """``run(n)`` — one run, in memory — equals a many-chunk stream
    forced through multi-run spills by shrinking the run-size floor."""

    @staticmethod
    def _materialise(stream, chunk_edges):
        tails, heads = [], []
        for _lo, t, h in stream.iter_chunks(chunk_edges):
            tails.append(t)
            heads.append(h)
        empty = np.empty(0, dtype=np.int64)
        return (
            np.concatenate(tails) if tails else empty,
            np.concatenate(heads) if heads else empty,
        )

    def _assert_equivalent(self, generator, n, spill, chunk_edges=500):
        serial = generator.run(n)
        stream = generator.run_chunked(n, chunk_edges, spill=spill)
        tails, heads = self._materialise(stream, chunk_edges)
        assert stream.num_edges == serial.num_edges
        np.testing.assert_array_equal(tails, serial.tails)
        np.testing.assert_array_equal(heads, serial.heads)

    def test_rmat_simplify(self, spill, monkeypatch):
        monkeypatch.setattr(base_mod, "_MIN_RUN_ROWS", 1)
        gen = RMat(seed=11, simplify=True, edge_factor=8)
        self._assert_equivalent(gen, 512, spill)

    def test_rmat_simplify_random_access_declined(self):
        assert RMat(seed=0, simplify=True).random_access(64) is False
        assert RMat(seed=0, simplify=False).random_access(64) is True

    def test_bipartite_configuration(self, spill, monkeypatch):
        monkeypatch.setattr(base_mod, "_MIN_RUN_ROWS", 1)
        gen = BipartiteConfiguration(
            seed=13,
            tail_distribution=Zipf(0.7, 12),
            head_distribution=Zipf(0.9, 8),
            tail_offset=1,
        )
        self._assert_equivalent(gen, 900, spill)

    def test_bipartite_truncated_head_side(self, spill, monkeypatch):
        # head_nodes pinned high: head stubs outnumber tail stubs, so
        # the chunked path must reproduce the serial truncation branch.
        monkeypatch.setattr(base_mod, "_MIN_RUN_ROWS", 1)
        gen = BipartiteConfiguration(
            seed=17,
            tail_distribution=Zipf(0.7, 6),
            head_distribution=Zipf(0.5, 10),
            head_offset=2,
            head_nodes=4_000,
        )
        self._assert_equivalent(gen, 300, spill)

    def test_erdos_renyi_m(self, spill, monkeypatch):
        monkeypatch.setattr(base_mod, "_MIN_RUN_ROWS", 1)
        gen = ErdosRenyiM(seed=19, edges_per_node=6)
        self._assert_equivalent(gen, 800, spill)

    def test_sbm(self, spill, monkeypatch):
        # Every block samples its codes through spilled sorted runs;
        # the big diagonal blocks split into several runs.
        monkeypatch.setattr(base_mod, "_MIN_RUN_ROWS", 1)
        gen = StochasticBlockModel(
            seed=23, sizes=[300, 200, 100],
            probabilities=[[0.08, 0.01, 0.0],
                           [0.01, 0.1, 0.02],
                           [0.0, 0.02, 0.3]],
        )
        self._assert_equivalent(gen, 600, spill)

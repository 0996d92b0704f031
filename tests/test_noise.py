import math
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtri

import shelab.noise
from shelab.noise import (GENERATOR_ID, NOISE_CHUNK_CELLS, NoiseSeed, coarsen_array,
                          coarsen_ladder, noise_reads, normal_rows, normals_from_raw,
                          path_streams, sample_block)


def stacked_normal_rows(gens, rows, n):
    """Each path's words mapped out of place and the blocks stacked: the
    direct form of normal_rows."""
    return np.stack([
        ndtri(((g.random_raw(rows * n) >> np.uint64(11)).astype(np.float64) + 0.5)
              * 2.0 ** -53).reshape(rows, n)
        for g in gens])


def per_path_normal_rows(gens, rows, n):
    """Each path's words read and mapped by one normals_from_raw call."""
    return np.stack([normals_from_raw(g.random_raw(rows * n)).reshape(rows, n)
                     for g in gens])


def read_peak(gens, rows, n):
    """tracemalloc peak of one normal_rows read, and its output's bytes."""
    tracemalloc.start()
    try:
        out = normal_rows(gens, rows, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, out.nbytes


class TestNoiseReads:
    @settings(max_examples=300, deadline=None)
    @given(units=st.integers(0, 3000), unit=st.integers(1, 64),
           unit_cells=st.one_of(st.integers(1, 4096), st.integers(1, 4 * NOISE_CHUNK_CELLS)))
    @example(units=0, unit=1, unit_cells=8)
    @example(units=5, unit=3, unit_cells=NOISE_CHUNK_CELLS)
    @example(units=5, unit=3, unit_cells=NOISE_CHUNK_CELLS + 1)
    def test_one_read_rule(self, units, unit, unit_cells):
        steps = units * unit
        reads = noise_reads(steps, unit_cells, unit)
        # the reads cover the steps exactly, in order, in whole units
        ends = [0] + [r.stop for r in reads]
        assert [r.start for r in reads] == ends[:-1] and ends[-1] == steps
        assert all(r.step == 1 and len(r) > 0 and len(r) % unit == 0 for r in reads)
        # as few reads as the budget allows: one read fewer cannot hold them
        most = NOISE_CHUNK_CELLS // unit_cells or 1  # units in one read
        assert (len(reads) - 1) * most < units or not reads
        # read sizes differ by at most one unit
        sizes = [len(r) for r in reads]
        assert not sizes or max(sizes) - min(sizes) <= unit
        # a read exceeds the budget only when one unit alone does
        for size in sizes:
            assert (size // unit * unit_cells <= NOISE_CHUNK_CELLS
                    or (size == unit and unit_cells > NOISE_CHUNK_CELLS))


class TestSampleBlock:
    def test_determinism(self):
        a = sample_block(NoiseSeed(42, path=3, purpose="x"), 50, 7)
        b = sample_block(NoiseSeed(42, path=3, purpose="x"), 50, 7)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = sample_block(NoiseSeed(42, path=0), 10, 4)
        b = sample_block(NoiseSeed(42, path=1), 10, 4)
        c = sample_block(NoiseSeed(42, path=0, purpose="other"), 10, 4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_moments_at_clt_tolerance(self):
        xi = sample_block(NoiseSeed(7), 1000, 1000)  # 1e6 draws
        assert -0.004 <= xi.mean() <= 0.004
        assert 0.995 <= xi.var() <= 1.005

    def test_cross_stream_correlation(self):
        a = sample_block(NoiseSeed(11, path=0), 100, 1000).ravel()
        b = sample_block(NoiseSeed(11, path=1), 100, 1000).ravel()
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 0.01

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            sample_block(NoiseSeed(0), 0, 4)

    def test_generator_id_documented(self):
        assert "philox" in GENERATOR_ID and "ndtri" in GENERATOR_ID


def seedseq_stream(master_seed, purpose, path):
    """The documented stream of (seed, path, purpose), built by numpy."""
    key = (path, zlib.crc32(purpose.encode()))
    return np.random.Philox(np.random.SeedSequence(master_seed, spawn_key=key))


def assert_same_stream(got, want):
    assert np.array_equal(got.state["state"]["key"], want.state["state"]["key"])
    assert np.array_equal(got.random_raw(64), want.random_raw(64))


class TestPathStreams:
    @given(seed=st.integers(min_value=0, max_value=2 ** 200),
           purpose=st.sampled_from(["", "mc", "strong", "sim", "bruit blanc \u03be"]),
           paths=st.lists(st.integers(min_value=0, max_value=2 ** 70), min_size=1, max_size=6))
    @example(seed=0, purpose="mc", paths=[0, 2 ** 32 - 1, 2 ** 32])
    @example(seed=2 ** 32 - 1, purpose="strong", paths=[2 ** 32, 1])
    @example(seed=2 ** 32, purpose="sim", paths=[2 ** 32 - 1])
    @example(seed=2 ** 128 + 1, purpose="", paths=[2 ** 32 - 1, 2 ** 32, 5])
    @settings(max_examples=150, deadline=None)
    def test_matches_seedseq_oracle(self, seed, purpose, paths):
        got = path_streams(seed, purpose, paths)
        assert len(got) == len(paths)
        for g, p in zip(got, paths):
            assert_same_stream(g, seedseq_stream(seed, purpose, p))

    def test_mixed_word_counts_keep_input_order(self):
        paths = [2 ** 40 + 3, 7, 2 ** 32, 0, 2 ** 70, 2 ** 32 - 1, 7]
        got = path_streams(19, "mc", paths)
        for g, p in zip(got, paths):
            assert_same_stream(g, seedseq_stream(19, "mc", p))

    def test_noise_seed_bit_generator_is_one_path(self):
        seed = NoiseSeed(2 ** 33 + 5, path=2 ** 32 + 1, purpose="strong")
        assert_same_stream(seed.bit_generator(), path_streams(2 ** 33 + 5, "strong",
                                                              [2 ** 32 + 1])[0])

    def test_numpy_ints_and_bools_are_accepted(self):
        assert_same_stream(path_streams(np.uint64(1), "mc", [np.int32(1)])[0],
                           seedseq_stream(1, "mc", 1))
        assert_same_stream(path_streams(True, "mc", [True])[0], seedseq_stream(True, "mc", True))

    @pytest.mark.parametrize("seed,paths,message", [
        (-1, [0], "seed must be a non-negative integer, got -1"),
        (1.5, [0], "seed must be a non-negative integer, got 1.5"),
        ("7", [0], "seed must be a non-negative integer, got '7'"),
        (3, [0, -2], "path must be a non-negative integer, got -2"),
        (3, [np.float64(2.0)], "path must be a non-negative integer"),
    ])
    def test_bad_seed_or_path_named(self, seed, paths, message):
        with pytest.raises(ValueError, match=message):
            path_streams(seed, "mc", paths)


class TestNormalRows:
    def test_chunked_reads_continue_the_stream(self):
        seeds = [NoiseSeed(17, path=p, purpose="mc") for p in range(3)]
        gens = [s.bit_generator() for s in seeds]
        chunks = np.concatenate([normal_rows(gens, 4, 5) for _ in range(3)], axis=1)
        whole = normal_rows([s.bit_generator() for s in seeds], 12, 5)
        assert whole.shape == (3, 12, 5)
        assert np.array_equal(chunks, whole)

    def test_row_p_is_the_block_of_path_p(self):
        seeds = [NoiseSeed(4, path=p, purpose="strong") for p in range(4)]
        rows = normal_rows([s.bit_generator() for s in seeds], 6, 3)
        for p, s in enumerate(seeds):
            assert np.array_equal(rows[p], sample_block(s, 6, 3))

    @given(paths=st.integers(min_value=1, max_value=5),
           chunks=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=4),
           n=st.integers(min_value=1, max_value=12),
           seed=st.integers(min_value=0, max_value=2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_matches_stacked_oracle_across_chunks(self, paths, chunks, n, seed):
        seeds = [NoiseSeed(seed, path=p, purpose="strong") for p in range(paths)]
        gens = [s.bit_generator() for s in seeds]
        oracle = [s.bit_generator() for s in seeds]
        for rows in chunks:
            got = normal_rows(gens, rows, n)
            assert got.shape == (paths, rows, n) and got.dtype == np.float64
            assert np.array_equal(got, stacked_normal_rows(oracle, rows, n))

    @pytest.mark.parametrize("rows,n", [(125, 8), (3, 5), (1, 1)])
    def test_groups_match_per_path_oracle(self, rows, n):
        k = shelab.noise._MAP_CELLS // (rows * n)  # paths per group
        assert k >= 2
        for paths in (1, k - 1, k, k + 1, 3 * k + 2):
            gens = path_streams(21, "mc", range(paths))
            oracle = path_streams(21, "mc", range(paths))
            for _ in range(2):  # the second read continues every stream
                got = normal_rows(gens, rows, n)
                assert np.array_equal(got, per_path_normal_rows(oracle, rows, n)), paths

    @pytest.mark.parametrize("rows,n", [(2 ** 11, 9), (3, 2 ** 14 + 3)])
    def test_paths_above_the_group_size_match_per_path_oracle(self, rows, n):
        assert rows * n > shelab.noise._MAP_CELLS
        gens = path_streams(5, "strong", range(3))
        oracle = path_streams(5, "strong", range(3))
        for chunk in (rows, 1, rows):
            got = normal_rows(gens, chunk, n)
            assert np.array_equal(got, per_path_normal_rows(oracle, chunk, n))

    def test_normals_from_raw_in_raw_memory(self):
        raw = NoiseSeed(8).bit_generator().random_raw(60).reshape(6, 10)
        separate = normals_from_raw(raw)
        got = normals_from_raw(raw, out=raw.view(np.float64))
        assert np.shares_memory(got, raw)
        assert np.array_equal(got, separate)

    def test_one_group_read_peaks_near_its_output(self):
        peak, size = read_peak(path_streams(2, "mc", range(1000)), 125, 8)
        assert peak <= size + 2 ** 19

    def test_one_path_read_peaks_at_twice_its_output(self):
        # beside the output: the path's raw words, then its shifted words
        peak, size = read_peak(path_streams(2, "sim", [0]), 2 ** 14, 64)
        assert size == 8 * NOISE_CHUNK_CELLS
        assert peak <= 2 * size + 2 ** 19

    def test_normals_from_raw_into_out_leaves_raw(self):
        raw = NoiseSeed(8).bit_generator().random_raw(60).reshape(6, 10)
        kept = raw.copy()
        out = np.full((6, 10), np.nan)
        got = normals_from_raw(raw, out=out)
        assert got is out
        assert np.array_equal(raw, kept)
        assert np.array_equal(out, normals_from_raw(raw))


def _ladders():
    """Rung factors (space, time) against a fine block, reference last: the
    factors of a ladder refining one axis, power-of-two or not."""
    one_axis = st.lists(st.sampled_from([1, 2, 3, 4, 6, 8]), min_size=1, max_size=5)
    return st.one_of(
        one_axis.map(lambda fs: [(1, f) for f in fs] + [(1, 1)]),
        one_axis.map(lambda fs: [(f, 1) for f in fs] + [(1, 1)]),
    )


class TestCoarsenLadder:
    @given(factors=_ladders(), seed=st.integers(min_value=0, max_value=2 ** 32))
    @example(factors=[(1, 64), (1, 32), (1, 16), (1, 8), (1, 4), (1, 1)], seed=13)
    @example(factors=[(8, 1), (4, 1), (2, 1), (1, 1)], seed=13)
    @settings(max_examples=60, deadline=None)
    def test_every_rung_matches_coarsen_array(self, factors, seed):
        m = math.lcm(*(tf for _, tf in factors)) * 2
        n = 4 * math.lcm(*(sf for sf, _ in factors))
        xi = normal_rows([NoiseSeed(seed, path=p).bit_generator() for p in range(2)], m, n)
        got = coarsen_ladder(xi, factors)
        assert len(got) == len(factors)
        for (sf, tf), rows in zip(factors, got):
            assert np.array_equal(rows, coarsen_array(xi, sf, tf)), (sf, tf)

    @pytest.mark.parametrize("factors", [[(4, 4), (2, 2), (1, 1)], [(2, 1), (1, 2), (1, 1)]])
    def test_two_axes_rejected(self, factors):
        with pytest.raises(ValueError, match="same single axis"):
            coarsen_ladder(sample_block(NoiseSeed(5), 8, 8), factors)

    def test_one_axis_ladder_is_one_chain(self, monkeypatch):
        calls = []
        inner = shelab.noise.coarsen_array

        def counted(xi, sf, tf):
            calls.append((xi.shape, sf, tf))
            return inner(xi, sf, tf)

        monkeypatch.setattr(shelab.noise, "coarsen_array", counted)
        xi = sample_block(NoiseSeed(3), 64, 8)
        coarsen_ladder(xi, [(1, 64), (1, 32), (1, 16), (1, 8), (1, 4), (1, 1)])
        assert calls == [((64, 8), 1, 4), ((16, 8), 1, 2), ((8, 8), 1, 2),
                         ((4, 8), 1, 2), ((2, 8), 1, 2)]

    def test_reference_rung_is_the_fine_block(self):
        xi = sample_block(NoiseSeed(4), 8, 8)
        assert coarsen_ladder(xi, [(2, 1), (1, 1)])[1] is xi


class TestCoarsen:
    def test_identity_factors(self):
        fine = sample_block(NoiseSeed(1), 8, 8)
        out = coarsen_array(fine, 1, 1)
        assert np.array_equal(out, fine)

    def test_variance_preserved(self):
        fine = sample_block(NoiseSeed(3), 400, 1000)  # 4e5 draws
        out = coarsen_array(fine, 4, 2)
        assert 0.99 <= out.var() <= 1.01
        assert out.shape == (200, 250)

    def test_composition_bit_exact(self):
        fine = sample_block(NoiseSeed(5), 16, 16)
        twice = coarsen_array(coarsen_array(fine, 2, 2), 2, 2)
        once = coarsen_array(fine, 4, 4)
        assert np.array_equal(twice, once)

    def test_halving_tree_matches_pair_sums(self):
        fine = sample_block(NoiseSeed(6), 4, 6)
        out = coarsen_array(fine, 2, 2)
        c = 1.0 / np.sqrt(2.0)  # time halving first, then space
        pairs = (fine[0::2] + fine[1::2]) * c
        assert np.array_equal(out, (pairs[:, 0::2] + pairs[:, 1::2]) * c)

    def test_non_divisible_factors(self):
        fine = sample_block(NoiseSeed(5), 6, 6)
        with pytest.raises(ValueError):
            coarsen_array(fine, 4, 1)

    def test_non_power_of_two_sum(self):
        xi = np.arange(18.0).reshape(6, 3)
        out = coarsen_array(xi, 3, 2)
        expected = xi.reshape(3, 2, 1, 3).sum(axis=(1, 3)) / np.sqrt(6.0)
        assert np.allclose(out, expected, rtol=1e-15)

    def test_batched_leading_axes(self):
        xi = sample_block(NoiseSeed(9), 8, 8)
        stacked = np.stack([xi, 2 * xi])
        out = coarsen_array(stacked, 2, 2)
        assert out.shape == (2, 4, 4)
        assert np.array_equal(out[0] * 2, out[1])

import numpy as np
import pytest

from shelab.noise import (GENERATOR_ID, NoiseSeed, coarsen_array, normal_rows,
                          sample_block)


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

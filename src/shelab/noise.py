"""Reproducible space-time white-noise increments.

Variates are produced by the counter-based Philox generator keyed through
``numpy.random.SeedSequence(master_seed, spawn_key=(path, purpose))`` so a
(path, purpose) stream can be materialized independently of every other
stream, and by the inverse-CDF normal transform
``ndtri((raw >> 11 + 0.5) * 2**-53)`` applied to raw 64-bit Philox output.
Both choices are recorded in :data:`GENERATOR_ID` and embedded in every
output header; the same (seed, stream) always reproduces the same bits.
Every path reads its stream through :func:`normal_rows`, one row per fine
time step, so chunk and batch sizes never change a bit of a path's noise.

The scheme's stochastic increment at (t_i, x_j) is realized downstream as
lambda * sqrt(n tau) * sigma(u) * xi[i, j]: the Brownian-sheet cell
increment has variance tau/n, so the rescaled cell average n/tau * (cell
increment) times tau equals sqrt(n tau) * xi in distribution.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

__all__ = ["GENERATOR_ID", "NoiseSeed", "normal_rows", "sample_block", "coarsen_array"]

GENERATOR_ID = "philox4x64/seedseq+ndtri-v1"

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class NoiseSeed:
    """Master seed plus a (path, purpose) stream identifier."""

    master_seed: int
    path: int = 0
    purpose: str = "sim"

    def spawn_key(self) -> tuple:
        return (self.path, zlib.crc32(self.purpose.encode()))

    def bit_generator(self) -> np.random.Philox:
        ss = np.random.SeedSequence(self.master_seed, spawn_key=self.spawn_key())
        return np.random.Philox(ss)


def normals_from_raw(raw: np.ndarray) -> np.ndarray:
    """Fixed raw-bits -> standard normal map (documented in GENERATOR_ID)."""
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    return ndtri(u)


def normal_rows(gens, rows: int, n: int) -> np.ndarray:
    """The next (rows, n) block of each generator's stream, shape
    (paths, rows, n).  Later calls continue every stream, so reading in
    chunks gives the bits of one long read.  Each path's words are mapped
    on their own, so the map's temporaries stay path-sized."""
    return np.stack([normals_from_raw(g.random_raw(rows * n)).reshape(rows, n)
                     for g in gens])


def sample_block(seed: NoiseSeed, m: int, n: int) -> np.ndarray:
    """The (m, n) block of one stream: rows are time steps, columns grid
    cells; the same seed gives identical bits."""
    if m < 1 or n < 1:
        raise ValueError("block dimensions must be >= 1")
    return normal_rows([seed.bit_generator()], m, n)[0]


def _halve(xi: np.ndarray, axis: int) -> np.ndarray:
    """Unit-variance pair sums along axis -1 or -2."""
    if xi.shape[axis] % 2:
        raise ValueError("halving needs an even extent")
    tail = (slice(None),) * (-1 - axis)
    even, odd = (..., slice(0, None, 2)) + tail, (..., slice(1, None, 2)) + tail
    return (xi[even] + xi[odd]) * _INV_SQRT2


def coarsen_array(xi: np.ndarray, space_factor: int, time_factor: int) -> np.ndarray:
    """Aggregate fine unit-variance cell variates to coarse ones.

    The coarse variate is the block sum scaled back to unit variance.  For
    power-of-two factors the sum is taken as a canonical interleaved
    halving tree (time, space, time, space, ...), which makes composition
    bit-exact: coarsening by (2,2) twice equals coarsening by (4,4).
    """
    m, n = xi.shape[-2], xi.shape[-1]
    if m % time_factor or n % space_factor:
        raise ValueError(
            f"factors ({time_factor}, {space_factor}) do not divide block ({m}, {n})")
    tf, sf = int(time_factor), int(space_factor)
    if tf >= 1 and sf >= 1 and (tf & (tf - 1)) == 0 and (sf & (sf - 1)) == 0:
        out = xi
        while tf > 1 or sf > 1:
            if tf > 1:
                out = _halve(out, -2)
                tf //= 2
            if sf > 1:
                out = _halve(out, -1)
                sf //= 2
        return out
    shape = xi.shape[:-2] + (m // tf, tf, n // sf, sf)
    return xi.reshape(shape).sum(axis=(-3, -1)) / np.sqrt(tf * sf)


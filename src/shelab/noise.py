"""Reproducible space-time white-noise increments.

Variates are produced by the counter-based Philox generator keyed through
``numpy.random.SeedSequence(master_seed, spawn_key=(path, crc32(purpose)))``,
so a (path, purpose) stream can be materialized independently of every
other, and by the inverse-CDF normal transform ``ndtri((raw >> 11 + 0.5) *
2**-53)`` of raw 64-bit Philox output; both are recorded in
:data:`GENERATOR_ID` and embedded in every output header, and the same
(seed, stream) always reproduces the same bits.  The keys of a batch of
paths come from one vectorised pass of SeedSequence's fixed hash (NEP 19,
:func:`path_streams`), bit for bit.  Every path reads its stream
through :func:`normal_rows`, one row per fine time step, so chunk and batch
sizes never change a bit of a path's noise; :func:`noise_reads` is the one
rule for how many rows a Monte Carlo driver reads at a time.  Coarse noise
for the grids of a ladder is aggregated from the fine block through one
shared halving tree (:func:`coarsen_ladder`).

The scheme's stochastic increment at (t_i, x_j) is realized downstream as
lambda * sqrt(n tau) * sigma(u) * xi[i, j]: the Brownian-sheet cell
increment has variance tau/n, so the rescaled cell average n/tau * (cell
increment) times tau equals sqrt(n tau) * xi in distribution.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy.special import ndtri

__all__ = ["GENERATOR_ID", "NOISE_CHUNK_CELLS", "NoiseSeed", "path_streams", "noise_reads",
           "normal_rows", "sample_block", "coarsen_array", "coarsen_ladder"]

GENERATOR_ID = "philox4x64/seedseq+ndtri-v1"

# Noise cells (float64) that a Monte Carlo driver holds at a time: 8 MiB.
NOISE_CHUNK_CELLS = 2 ** 20

# Cells of the paths that normal_rows maps in one normals_from_raw call
# (at least one path): the call's shifted-word temporary is 128 KiB.
_MAP_CELLS = 2 ** 14

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# numpy's SeedSequence (NEP 19): a pool of four 32-bit words, filled by
# hashmix (INIT_A, MULT_A) and mix, read out by generate_state (INIT_B, MULT_B).
_MASK, _INIT_A, _MULT_A, _INIT_B, _MULT_B, _MIX_L, _MIX_R = (
    0xFFFFFFFF, 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED, 0xCA01F9DD, 0x4973F715)


def _hash(value, const: int, mult: int = _MULT_A):
    """hashmix of an int or a uint32 array at hash constant `const`: (hash,
    next constant).  The constants depend only on how many hashes came before."""
    nxt = const * mult & _MASK
    value = (value ^ const) * nxt & _MASK
    return value ^ value >> 16, nxt


def _absorb(pool: list, word, const: int, skip: int | None = None) -> int:
    """Mix the hash of `word` into every pool word but `skip`."""
    for dst in range(4):
        if dst != skip:
            h, const = _hash(word, const)
            r = (_MIX_L * pool[dst] - _MIX_R * h) & _MASK
            pool[dst] = r ^ r >> 16
    return const


def _words(value, name: str) -> list[int]:
    """Little-endian 32-bit words of a non-negative int; [0] for 0."""
    if not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    value = int(value)
    return [value >> shift & _MASK for shift in range(0, max(value.bit_length(), 1), 32)]


class _Key(ISeedSequence):
    """A seed whose state is one Philox key, already derived."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def path_streams(master_seed: int, purpose: str, paths) -> list[np.random.Philox]:
    """One Philox per path; the i-th is bit for bit
    ``Philox(SeedSequence(master_seed, spawn_key=(paths[i], crc32(purpose))))``.
    The run words are mixed once, then the spawn words (the path's 32-bit
    words and the crc) of all paths of one word count together, in uint32."""
    run = _words(master_seed, "seed")
    spawn = [_words(p, "path") + [zlib.crc32(purpose.encode())] for p in paths]
    pool, const = [], _INIT_A
    for word in (run + [0] * 4)[:4]:  # padded to the pool size, as with a spawn key
        h, const = _hash(word, const)
        pool.append(h)
    for src in range(4):
        const = _absorb(pool, pool[src], const, skip=src)
    for word in run[4:]:
        const = _absorb(pool, word, const)
    keys = np.empty((len(spawn), 2), dtype=np.uint64)
    for width in {len(words) for words in spawn}:
        rows = [i for i, words in enumerate(spawn) if len(words) == width]
        mixed, c = [np.full(len(rows), w, dtype=np.uint32) for w in pool], const
        for word in np.array([spawn[i] for i in rows], dtype=np.uint32).T:
            c = _absorb(mixed, word, c)
        c = _INIT_B  # generate_state(2, uint64): four words, little-endian pairs
        for k, word in enumerate(mixed):
            mixed[k], c = _hash(word, c, _MULT_B)
        keys[rows] = np.stack(mixed, axis=1).astype("<u4").view("<u8")
    return [np.random.Philox(_Key(key)) for key in keys]


@dataclass(frozen=True)
class NoiseSeed:
    """Master seed plus a (path, purpose) stream identifier."""

    master_seed: int
    path: int = 0
    purpose: str = "sim"

    def bit_generator(self) -> np.random.Philox:
        return path_streams(self.master_seed, self.purpose, [self.path])[0]


def normals_from_raw(raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Fixed raw-bits -> standard normal map (documented in GENERATOR_ID),
    written into `out` (float64, raw's shape) when given.  `raw` stays
    unchanged unless `out` is raw's own memory: the shifted words are a new
    array, formed before `out` is written."""
    if out is None:
        out = np.empty(raw.shape)
    np.add(raw >> np.uint64(11), 0.5, out=out)
    out *= 2.0 ** -53
    return ndtri(out, out=out)


def noise_reads(steps: int, unit_cells: int, unit: int = 1) -> list[range]:
    """The row ranges, in order, of the reads that cover rows 0..steps-1 of
    noise (`steps` a multiple of `unit`): the fewest reads of whole units of
    `unit_cells` cells each that hold at most NOISE_CHUNK_CELLS cells (one
    unit per read when a unit alone holds more), their sizes differing by at
    most one unit."""
    units = steps // unit
    count = -(-units // max(1, NOISE_CHUNK_CELLS // max(unit_cells, 1)))
    ends = [unit * (units * k // max(count, 1)) for k in range(count + 1)]
    return [range(a, b) for a, b in zip(ends, ends[1:])]


def normal_rows(gens, rows: int, n: int) -> np.ndarray:
    """The next (rows, n) block of each generator's stream, shape
    (paths, rows, n).  Later calls continue every stream, so reading in
    chunks gives the bits of one long read.  Each path's raw words are
    copied into its slice of the one output array, viewed as uint64, and
    mapped there in place, one call per group of paths holding at most
    _MAP_CELLS cells (at least one path), so the temporaries are one path's
    raw words and one group's shifted words."""
    out = np.empty((len(gens), rows, n))
    raw = out.view(np.uint64)
    for g, block in zip(gens, raw):
        block[...] = g.random_raw(rows * n).reshape(rows, n)
    group = max(1, _MAP_CELLS // max(rows * n, 1))
    for k in range(0, len(gens), group):
        normals_from_raw(raw[k:k + group], out=out[k:k + group])
    return out


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


def _power_of_two(f: int) -> bool:
    return f >= 1 and (f & (f - 1)) == 0


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
    if _power_of_two(tf) and _power_of_two(sf):
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


def coarsen_ladder(xi: np.ndarray, factors) -> list:
    """coarsen_array(xi, sf, tf) for each (sf, tf) in `factors`, bit for bit,
    with the rungs sharing one halving tree.  All factors must coarsen the
    same single axis (ValueError otherwise), as the rungs of a ladder that
    refines one of (n, tau) do.

    Power-of-two rungs form one chain: in increasing order of factor, each
    is coarsened from the previous one.  Other factors are coarsened from
    `xi` directly.
    """
    if any(sf > 1 for sf, _ in factors) and any(tf > 1 for _, tf in factors):
        raise ValueError(f"factors {list(factors)} do not all coarsen the same single axis")
    prev = (1, 1)
    tree = {prev: xi}
    for f in sorted({f for f in factors if _power_of_two(f[0]) and _power_of_two(f[1])}
                    - {prev}):
        tree[f] = coarsen_array(tree[prev], f[0] // prev[0], f[1] // prev[1])
        prev = f
    return [tree[f] if f in tree else coarsen_array(xi, *f) for f in factors]

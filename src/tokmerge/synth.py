"""Synthetic token streams with planted temporal redundancy.

Randomness comes from SplitMix64 run in counter mode: draw ``i`` mixes the
64-bit state ``seed + (i + 1) * 0x9E3779B97F4A7C15`` through

    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9;
    z ^= z >> 27; z *= 0x94D049BB133111EB;
    z ^= z >> 31

(all mod 2^64). Uniforms map the top 53 bits to (0, 1]; gaussians come from
Box-Muller over consecutive counter blocks. Every generated corpus is a pure
function of its spec, so identical specs give bit-identical streams on a
platform.

Draw layout for generate(): first one base matrix of shape (N_v, d) per
planted segment (consumed in segment order), then one noise block of shape
(B, N_v, d); counters advance by 2*ceil(n/2) per n-sample gaussian draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataError, VideoTokenStream

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(seed: int, start: int, count: int) -> np.ndarray:
    """SplitMix64 outputs for counters [start, start + count)."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * _GOLDEN
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms in (0, 1]: top 53 bits of the mix, never exactly zero."""
    bits = _splitmix64(seed, start, count) >> np.uint64(11)
    return (bits.astype(np.float64) + 1.0) * 2.0**-53


def gaussians(seed: int, start: int, count: int) -> tuple[np.ndarray, int]:
    """``count`` standard normals via Box-Muller; returns (values, next counter)."""
    pairs = (count + 1) // 2
    u1 = _uniforms(seed, start, pairs)
    u2 = _uniforms(seed, start + pairs, pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.empty(2 * pairs, dtype=np.float64)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:count], start + 2 * pairs


@dataclass(frozen=True)
class SynthSpec:
    """Plan for a synthetic corpus.

    ``segments`` is a list of (length, redundant_fraction) pairs whose
    lengths sum to ``frames``; within each segment the first
    round(fraction * N_v) slots repeat a per-segment base vector plus
    Gaussian noise of scale ``noise_sigma``, and all other slots are i.i.d.
    standard normal.
    """

    frames: int
    grid: tuple[int, int]
    dim: int
    segments: tuple[tuple[int, float], ...]
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        h, w = self.grid
        if self.frames < 1 or h < 1 or w < 1 or self.dim < 1:
            raise DataError("frames, grid, and dim must be positive")
        lengths = [s[0] for s in self.segments]
        if not lengths or any(l < 1 for l in lengths) or sum(lengths) != self.frames:
            raise DataError(
                f"segment lengths {lengths} must be positive and sum to {self.frames}")
        if any(not 0.0 <= f <= 1.0 for _, f in self.segments):
            raise DataError("redundant fractions must lie in [0, 1]")
        if self.noise_sigma < 0:
            raise DataError("noise_sigma must be >= 0")
        object.__setattr__(self, "segments",
                           tuple((int(l), float(f)) for l, f in self.segments))
        object.__setattr__(self, "grid", (int(h), int(w)))

    @property
    def tokens_per_frame(self) -> int:
        return self.grid[0] * self.grid[1]

    def planted_counts(self) -> tuple[int, ...]:
        n_v = self.tokens_per_frame
        return tuple(int(round(f * n_v)) for _, f in self.segments)

    def planted_boundaries(self) -> tuple[int, ...]:
        bounds = [1]
        for length, _ in self.segments:
            bounds.append(bounds[-1] + length)
        return tuple(bounds)

    def planted_gain(self) -> int:
        return sum(n_p * (length - 1)
                   for (length, _), n_p in zip(self.segments, self.planted_counts()))


def generate(spec: SynthSpec) -> tuple[VideoTokenStream, np.ndarray]:
    """Build the stream plus the ground-truth (B-1, N_v) bool redundancy
    mask of planted slots, laid out as ``pairwise_redundancy`` returns it."""
    b, n_v, d = spec.frames, spec.tokens_per_frame, spec.dim
    n_seg = len(spec.segments)

    counter = 0
    base_vals, counter = gaussians(spec.seed, counter, n_seg * n_v * d)
    bases = base_vals.reshape(n_seg, n_v, d)
    noise_vals, counter = gaussians(spec.seed, counter, b * n_v * d)
    noise = noise_vals.reshape(b, n_v, d)

    data = noise.copy()
    truth = np.zeros((max(b - 1, 0), n_v), dtype=bool)
    frame = 1
    for s, ((length, _), n_p) in enumerate(zip(spec.segments, spec.planted_counts())):
        if n_p:
            rows = slice(frame - 1, frame - 1 + length)
            data[rows, :n_p, :] = bases[s, :n_p, :] \
                + spec.noise_sigma * noise[rows, :n_p, :]
            truth[frame - 1 : frame + length - 2, :n_p] = True
        frame += length

    stream = VideoTokenStream(data.astype(np.float32), spec.grid)
    return stream, truth

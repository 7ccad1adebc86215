"""Seeded problem instances, generated without the library's own sampler.

The solve workloads must not change when the library's `sample_instance`,
`spike_fourier` or `synth_noise` change, so this module draws and measures
the spikes itself and hands the solver only a `Spectrum`:

- positions: an exact sampler of K points on the circle with minimum
  separation d. The spacings are d + (1 - K d) * Dirichlet(1, ..., 1), which
  is the uniform law of spacings conditioned on each being at least d; a
  uniform rotation places the first point.
- amplitudes: N(0, 1/N) with N = 2 f_c + 1.
- noise: Hermitian complex Gaussian coefficients rescaled to energy N nu^2.

Every instance is checked for separation, Hermitian symmetry and noise
energy, and `digest` fingerprints a pool so two commits can be shown to have
solved the same inputs.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass

import numpy as np

from superres import Spectrum


@dataclass(frozen=True)
class Instance:
    positions: np.ndarray
    amplitudes: np.ndarray
    y: Spectrum


def _circular_gaps(positions: np.ndarray) -> np.ndarray:
    srt = np.sort(positions)
    return np.diff(srt, append=srt[0] + 1.0)


def make_instance(rng: np.random.Generator, f_c: int, k: int, sep: float, nu: float) -> Instance:
    n = 2 * f_c + 1
    gaps = sep + (1.0 - k * sep) * rng.dirichlet(np.ones(k))
    positions = np.mod(rng.random() + np.concatenate(([0.0], np.cumsum(gaps[:-1]))), 1.0)
    amplitudes = rng.standard_normal(k) / np.sqrt(n)

    # Coefficients for l >= 1, mirrored so the spectrum is exactly Hermitian.
    upper = np.exp(-2j * np.pi * np.outer(np.arange(1, f_c + 1), positions)) @ amplitudes
    coeffs = np.concatenate([np.conj(upper[::-1]), [amplitudes.sum()], upper])
    if nu > 0.0:
        w = rng.standard_normal(f_c) + 1j * rng.standard_normal(f_c)
        noise = np.concatenate([np.conj(w[::-1]), [rng.standard_normal()], w])
        noise *= np.sqrt(n * nu**2 / np.sum(np.abs(noise) ** 2))
        energy = np.sum(np.abs(noise) ** 2)
        if abs(energy - n * nu**2) > 1e-9 * n * nu**2:
            raise RuntimeError("noise energy differs from N nu^2")
        coeffs = coeffs + noise

    if _circular_gaps(positions).min() < sep - 1e-12:
        raise RuntimeError("sampled positions violate the minimum separation")
    if not np.array_equal(coeffs, np.conj(coeffs[::-1])):
        raise RuntimeError("sampled spectrum is not Hermitian")
    return Instance(positions, amplitudes, Spectrum(f_c, coeffs, real_signal=True))


def make_pool(workload: str, seed: int, size: int, f_c: int, k: int, sep: float,
              nu: float) -> list[Instance]:
    """`size` instances from one stream keyed by the seed and the workload name."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    return [make_instance(rng, f_c, k, sep, nu) for _ in range(size)]


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def pool_digest(pool: list[Instance]) -> str:
    return digest(a for inst in pool for a in (inst.positions, inst.amplitudes, inst.y.coeffs))

"""Calibration kernels: fixed work, independent of the program, timed just
before each op to gauge how fast the machine runs at that moment.

On a shared machine the speed of the same code drifts by up to 2x over
minutes.  Each workload has a kernel with the same kind of work as its
ops: many calls on short arrays (`interp`), transcendental functions on
long arrays (`vector`), or a dense complex phase matrix and its product
(`dense`).  An op's time divided by the kernel's time next to it cancels
the drift; multiplied by the kernel's reference time, it gives the op's
time on the machine at its reference speed.  On five 30 s runs per
workload, this cut the run-to-run spread of ops/s from up to 11 % of the
median to about 2 %.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_RNG = np.random.default_rng(20260823)
_SHORT = [_RNG.uniform(0.0, 2.0, 64) for _ in range(16)]
_LONG = _RNG.uniform(0.0, 2.0, 1 << 17)
_THETA = 2 * np.pi * np.arange(2048) / 2048
_BAND = np.arange(-128, 129)
_COEFFS = _RNG.uniform(-1, 1, _BAND.size) + 1j * _RNG.uniform(-1, 1, _BAND.size)


def interp() -> float:
    """Short-array numpy calls, the shape of a Luxemburg bisection step."""
    total = 0.0
    for _ in range(250):
        for a in _SHORT:
            x = np.asarray(a, dtype=float)
            if np.any(x < 0):
                raise ValueError
            y = np.abs(x) * (np.arange(1, 65) + 1.0) ** 0.7 / 3.0
            total += float(np.sum(y ** 1.6 * np.log1p(y)))
    return total


def vector() -> float:
    """Powers and logarithms over one long array."""
    y = _LONG * (np.arange(_LONG.size) + 1.0) ** 0.3 / 40.0
    return float(np.sum(y ** 1.7 * np.log1p(y)) + np.sum(np.expm1(y / 8.0) * np.log(np.e + y)))


def dense() -> complex:
    """A 2048-point dense trigonometric sum and an FFT, in row blocks so
    that the kernel never holds more than 1 MB and leaves peak memory to
    the program."""
    vals = np.concatenate([np.exp(1j * np.multiply.outer(rows, _BAND)) @ _COEFFS
                           for rows in np.split(_THETA, 8)])
    return complex(np.fft.fft(vals)[3])


# Each kernel and its reference time, close to its median time on the
# machine of the README's reference figures.
KERNELS = {"interp": (interp, 0.053), "vector": (vector, 0.0055), "dense": (dense, 0.016)}


def speed(name: str, repeats: int = 3) -> float:
    """The kernel's reference time over its median time now: above 1 when
    the machine runs faster than at reference speed."""
    kernel, ref = KERNELS[name]
    kernel()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return ref / statistics.median(times)

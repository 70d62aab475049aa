"""Independent reference checks for the benchmark's correctness gates.

These use numpy only, never ktcy, so a change that breaks the program's
operator or its rotated pullback in a self-consistent way still trips the
gate.
"""
from __future__ import annotations

import math

import numpy as np


def read_dump(path) -> tuple[np.ndarray, tuple[float, float, float]]:
    """Values and periods of a field dump (header ``nx ny nt Lx Ly Lt``, x fastest)."""
    with open(path) as fh:
        header = fh.readline().split()
        values = np.loadtxt(fh, dtype=np.float64, ndmin=1)
    shape = tuple(int(w) for w in header[:3])
    periods = tuple(float(w) for w in header[3:6])
    return values.reshape(shape, order="F"), periods


def _wavenumbers(n: int, period: float, half: bool):
    """Second- and first-order wavenumbers; the first-order Nyquist is zeroed."""
    m = np.fft.rfftfreq(n, d=1.0 / n) if half else np.fft.fftfreq(n, d=1.0 / n)
    k = 2.0 * np.pi * m / period
    k_odd = np.where(np.abs(m) == n // 2, 0.0, k)
    return k, k_odd


def residual_sup(u: np.ndarray, F: np.ndarray, periods) -> float:
    """sup |(u_xx + 1)(u_yy + u_tt + u_t + 1) - u_xy^2 - u_xt^2 - e^F|."""
    shape = u.shape
    kx, kx1 = _wavenumbers(shape[0], periods[0], half=False)
    ky, ky1 = _wavenumbers(shape[1], periods[1], half=False)
    kt, kt1 = _wavenumbers(shape[2], periods[2], half=True)
    kx, kx1 = kx[:, None, None], kx1[:, None, None]
    ky, ky1 = ky[None, :, None], ky1[None, :, None]
    kt, kt1 = kt[None, None, :], kt1[None, None, :]
    spec = np.fft.rfftn(u)

    def back(symbol):
        return np.fft.irfftn(spec * symbol, s=shape, axes=(0, 1, 2))

    q = back(-(kx * kx)) + 1.0
    p = back(-(ky * ky)) + back(-(kt * kt)) + back(1j * kt1) + 1.0
    r = back(-(kx1 * ky1))
    s = back(-(kx1 * kt1))
    return float(np.max(np.abs(q * p - r * r - s * s - np.exp(F))))


def solution_tolerance(F: np.ndarray) -> float:
    """The solution test of the package README: 1e-10 * max(1, sup e^F)."""
    return 1e-10 * max(1.0, float(np.max(np.exp(F))))


def pullback(F: np.ndarray, m: int, n: int, cell_shape, max_mode: int) -> np.ndarray:
    """G(p, q, t) = F(x, y, t) with x = (m p + n q)/L, y = (-n p + m q)/L.

    F lives on the unit box and must be band-limited to |k| <= max_mode per
    axis.  Each Fourier mode (kx, ky, kt) of F becomes the cell mode
    (m kx - n ky, n kx + m ky, kt) on the (L, L, 1) cell, so the samples are
    exact up to rounding.
    """
    spec = np.fft.fftn(F) / F.size
    ks = [np.fft.fftfreq(s, d=1.0 / s).astype(int) for s in F.shape]
    keep = [np.abs(k) <= max_mode for k in ks]
    band = spec[np.ix_(*keep)]
    outside = np.sum(np.abs(spec)) - np.sum(np.abs(band))
    if outside > 1e-12 * max(1.0, np.sum(np.abs(band))):
        raise ValueError(f"datum is not band-limited to |k| <= {max_mode}")
    kx, ky, kt = (k[w] for k, w in zip(ks, keep))
    KX, KY = np.meshgrid(kx, ky, indexing="ij")
    a = (m * KX - n * KY).ravel()
    b = (n * KX + m * KY).ravel()
    L = math.sqrt(m * m + n * n)
    n_p, n_q, n_t = cell_shape
    Ep = np.exp((2j * np.pi / n_p) * np.outer(np.arange(n_p), a))
    Eq = np.exp((2j * np.pi / n_q) * np.outer(np.arange(n_q), b))
    t = np.arange(n_t) / n_t
    G = np.zeros(cell_shape)
    for j, k in enumerate(kt):
        plane = (Ep * band[:, :, j].ravel()) @ Eq.T
        G += (plane[:, :, None] * np.exp(2j * np.pi * k * t)[None, None, :]).real
    return G

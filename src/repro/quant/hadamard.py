"""Hadamard matrix construction and fast Hadamard transforms.

The rotation-assisted quantization of the paper multiplies activations and
weights by (normalised) Hadamard matrices.  Two sizes matter for Mamba2-2.7B:
a 128-point transform executed with the fast Walsh-Hadamard (FWHT) butterfly
(the paper's 128-point HTU, Fig. 5d) and a 40-point transform executed as a
small matrix multiplication (the 40-point HTU, Fig. 5e); their Kronecker
product covers the 5120-wide output-projection input (``5120 = 128 x 40``).

This module provides:

- :func:`sylvester` -- power-of-two Hadamard matrices;
- :func:`paley_construction` -- Paley type-I and type-II matrices for
  non-power-of-two orders (e.g. 12, 20, 28);
- :func:`hadamard_matrix` -- arbitrary supported order via Kronecker
  composition (raises for orders with no known construction here);
- :func:`fast_hadamard_transform` -- O(n log n) FWHT along the last axis;
- :func:`apply_hadamard` -- applies the (normalised) Hadamard rotation to an
  activation, using the FWHT for the power-of-two factor and a dense matmul
  for the residual factor, mirroring the hardware decomposition;
- :func:`random_hadamard_matrix` -- randomised Hadamard rotation
  ``diag(sign) . H / sqrt(n)`` as used by QuaRot-style methods.
"""

from __future__ import annotations

import ctypes
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.quant import native

__all__ = [
    "sylvester",
    "paley_construction",
    "hadamard_matrix",
    "is_hadamard",
    "fast_hadamard_transform",
    "apply_hadamard",
    "random_hadamard_matrix",
    "randomized_hadamard",
    "decompose_hadamard_order",
]


# ----------------------------------------------------------------------
# Basic constructions
# ----------------------------------------------------------------------
def sylvester(order: int) -> np.ndarray:
    """Sylvester (power-of-two) Hadamard matrix of the given order."""
    if order < 1 or order & (order - 1):
        raise ValueError(f"Sylvester construction needs a power-of-two order, got {order}")
    h = np.array([[1.0]])
    while h.shape[0] < order:
        h = np.block([[h, h], [h, -h]])
    return h


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol chi(a) in {-1, 0, +1} for an odd prime p."""
    a %= p
    if a == 0:
        return 0
    result = pow(a, (p - 1) // 2, p)
    return 1 if result == 1 else -1


def _jacobsthal(q: int) -> np.ndarray:
    """Jacobsthal matrix Q with Q[i, j] = chi(i - j) over GF(q)."""
    idx = np.arange(q)
    diff = (idx[:, None] - idx[None, :]) % q
    chi = np.array([_legendre_symbol(int(d), q) for d in range(q)], dtype=np.float64)
    return chi[diff]


def paley_construction(order: int) -> np.ndarray:
    """Paley Hadamard matrix of the given order.

    Type I applies when ``order - 1`` is a prime congruent to 3 (mod 4);
    type II applies when ``order / 2 - 1`` is a prime congruent to 1 (mod 4).
    """
    q = order - 1
    if _is_prime(q) and q % 4 == 3:
        jac = _jacobsthal(q)
        s = np.zeros((order, order))
        s[0, 1:] = 1.0
        s[1:, 0] = -1.0
        s[1:, 1:] = jac
        return s + np.eye(order)
    if order % 2 == 0:
        q = order // 2 - 1
        if _is_prime(q) and q % 4 == 1:
            n = q + 1
            s = np.zeros((n, n))
            s[0, 1:] = 1.0
            s[1:, 0] = 1.0
            s[1:, 1:] = _jacobsthal(q)
            block_diag = np.array([[1.0, -1.0], [-1.0, -1.0]])
            block_off = np.array([[1.0, 1.0], [1.0, -1.0]])
            return np.kron(np.eye(n), block_diag) + np.kron(s, block_off)
    raise ValueError(f"no Paley construction available for order {order}")


def decompose_hadamard_order(order: int) -> tuple[int, int]:
    """Split ``order`` into ``(pow2, base)`` with ``order == pow2 * base``.

    ``pow2`` is a power of two (handled by the FWHT / Sylvester factor) and
    ``base`` is either 1 or an order with a Paley construction.  Raises
    ``ValueError`` when no such decomposition exists.
    """
    if order < 1:
        raise ValueError("order must be positive")
    odd = order
    pow2 = 1
    while odd % 2 == 0:
        odd //= 2
        pow2 *= 2
    if odd == 1:
        return order, 1
    # Fold factors of two back into the base until a Paley order is found.
    base = odd
    while base <= order:
        if base >= 4:
            try:
                paley_construction(base)
                return order // base, base
            except ValueError:
                pass
        if order % (base * 2) != 0:
            break
        base *= 2
    raise ValueError(
        f"no Hadamard construction available for order {order} "
        "(odd part has no Paley-constructible multiple dividing the order)"
    )


@lru_cache(maxsize=64)
def _hadamard_matrix_cached(order: int) -> np.ndarray:
    pow2, base = decompose_hadamard_order(order)
    h = sylvester(pow2)
    if base > 1:
        h = np.kron(h, paley_construction(base))
    return h


def hadamard_matrix(order: int, normalized: bool = False) -> np.ndarray:
    """Return a Hadamard matrix of the given order.

    Parameters
    ----------
    order:
        Matrix order; must decompose as a power of two times a
        Paley-constructible order (covers every dimension in the Mamba2
        family: 12, 20, 40, 64, 128, ..., 2560, 5120).
    normalized:
        If ``True`` the matrix is scaled by ``1/sqrt(order)`` so it is
        orthogonal (``H H^T = I``).
    """
    h = _hadamard_matrix_cached(order).copy()
    if normalized:
        h /= np.sqrt(order)
    return h


def is_hadamard(matrix: np.ndarray, tol: float = 1e-9) -> bool:
    """Check that ``matrix`` has +-1 entries and orthogonal rows."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    n = matrix.shape[0]
    if not np.allclose(np.abs(matrix), 1.0, atol=tol):
        return False
    return np.allclose(matrix @ matrix.T, n * np.eye(n), atol=tol * n)


# ----------------------------------------------------------------------
# Transforms
# ----------------------------------------------------------------------
def fast_hadamard_transform(x: np.ndarray, normalized: bool = True) -> np.ndarray:
    """Fast Walsh-Hadamard transform along the last axis.

    Equivalent to ``x @ sylvester(n)`` (optionally normalised by
    ``1/sqrt(n)``) but computed with the O(n log n) butterfly network -- the
    algorithm the paper's 128-point HTU implements in seven pipeline stages.
    The butterflies pair and order as the textbook in-place network (span 1,
    2, 4, ...), and the normalisation is one divide by ``sqrt(n)`` at the end,
    so every output is the same sequence of roundings, to the bit, whichever
    executor runs it: the compiled ``fwht`` of :mod:`repro.quant.native`
    (one C call, row by row) when this machine built one, the numpy
    :func:`_fwht_numpy` otherwise.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    if n & (n - 1):
        raise ValueError(f"FWHT length must be a power of two, got {n}")
    library = native.kernel()
    return library.fwht(x, normalized) if library is not None else _fwht_numpy(x, normalized)


def _fwht_numpy(x: np.ndarray, normalized: bool) -> np.ndarray:
    """The textbook FWHT of float64 ``x``: reference of the compiled one and no-compiler fallback.

    For span 1, 2, 4, ... each pair ``(upper, lower)`` of points ``span``
    apart becomes ``(upper + lower, upper - lower)``; the output is fresh.
    """
    n = x.shape[-1]
    out, span = np.array(x), 1
    while span < n:
        pairs = out.reshape(-1, n // (2 * span), 2, span)
        upper, lower = pairs[:, :, 0], pairs[:, :, 1]
        out = np.stack((upper + lower, upper - lower), axis=2)
        span *= 2
    out = out.reshape(x.shape)
    return out / np.sqrt(n) if normalized else out


def _compiled_fwht(entry: Callable) -> Callable:
    """``native.c``'s ``fwht`` behind :func:`_fwht_numpy`'s signature.

    The input is made C-contiguous (a copy only when it is not), the output
    is fresh; one call transforms every row.
    """
    entry.restype = None
    entry.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_int32,
                      ctypes.c_void_p]

    def fwht(x: np.ndarray, normalized: bool) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float64)
        out = np.empty(x.shape)
        if out.size:
            n = x.shape[-1]
            entry(native.pointer(x), out.size // n, n, 1 if normalized else 0,
                  native.pointer(out))
        return out

    return fwht


def apply_hadamard(x: np.ndarray, order: int | None = None, normalized: bool = True) -> np.ndarray:
    """Apply the Hadamard rotation ``x -> x H`` along the last axis.

    Uses the same decomposition as the hardware: the power-of-two factor is
    executed with the FWHT and the non-power-of-two factor (if any) with a
    dense matrix multiplication.  ``order`` defaults to the last-axis length.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1] if order is None else order
    if x.shape[-1] != n:
        raise ValueError(f"last axis ({x.shape[-1]}) does not match order ({n})")
    pow2, base = decompose_hadamard_order(n)
    lead = x.shape[:-1]
    if base == 1:
        return fast_hadamard_transform(x, normalized=normalized)
    # x viewed as (..., pow2, base):  (H_pow2 (x) H_base) applied via
    # FWHT over the pow2 axis and a dense matmul over the base axis.
    reshaped = x.reshape(*lead, pow2, base)
    h_base = hadamard_matrix(base, normalized=False)
    out = reshaped @ h_base
    out = np.swapaxes(out, -1, -2)
    out = fast_hadamard_transform(out, normalized=False)
    out = np.swapaxes(out, -1, -2)
    out = out.reshape(*lead, n)
    if normalized:
        out /= np.sqrt(n)
    return out


def random_hadamard_matrix(order: int, seed: int = 0, normalized: bool = True) -> np.ndarray:
    """Randomised Hadamard rotation ``diag(sign) H`` (QuaRot-style).

    The random per-row sign flip keeps the matrix Hadamard (rows stay
    orthogonal with +-1 entries) while decorrelating it from any fixed weight
    structure; with ``normalized=True`` the result is orthogonal.
    """
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=order)
    h = hadamard_matrix(order, normalized=False)
    out = signs[:, None] * h
    if normalized:
        out /= np.sqrt(order)
    return out


def randomized_hadamard(x: np.ndarray, seed: int = 0) -> np.ndarray:
    """Apply a randomised (sign-flipped) normalised Hadamard rotation to ``x``."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=n)
    return apply_hadamard(x * signs, order=n, normalized=True)

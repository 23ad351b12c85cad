"""The Karlin–Upfal universal hash family H of §2.1.

    H = { h : h(x) = ((Σ_{0≤i<S} a_i x^i) mod P) mod N }

with P prime, P >= M (the PRAM address-space size), coefficients a_i drawn
uniformly from Z_P, and degree parameter S = cL where L is the diameter of
the emulating network.  Each member needs only O(L log M) bits to describe
— the property the paper highlights as making the scheme practical.

Evaluation is NumPy-vectorized (Horner with a reduction mod P at every
step keeps intermediates below 2**63 whenever P < 2**31; larger address
spaces fall back to exact Python integers).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.util.primes import next_prime
from repro.util.rng import as_generator

_VECTOR_P_LIMIT = 1 << 31


class PolynomialHash:
    """One member h ∈ H: a degree-(S-1) polynomial over Z_P, reduced mod N."""

    def __init__(self, coeffs: Sequence[int], p: int, n_modules: int) -> None:
        if not coeffs:
            raise ValueError("need at least one coefficient")
        if n_modules < 1:
            raise ValueError("need at least one memory module")
        self.coeffs = [int(c) % p for c in coeffs]
        self.p = int(p)
        self.n_modules = int(n_modules)
        self._vec_coeffs = (
            np.asarray(self.coeffs, dtype=np.int64) if p < _VECTOR_P_LIMIT else None
        )
        #: the coefficients below the leading one, highest first: the
        #: vectorized Horner loop's operands, as int64 scalars
        self._horner_tail = (
            tuple(self._vec_coeffs[-2::-1]) if self._vec_coeffs is not None else ()
        )

    @property
    def degree_param(self) -> int:
        """S: the number of coefficients (polynomial degree + 1)."""
        return len(self.coeffs)

    def __call__(self, x: int) -> int:
        """h(x) for a single address."""
        acc = 0
        for a in reversed(self.coeffs):
            acc = (acc * x + a) % self.p
        return acc % self.n_modules

    def map(self, xs: np.ndarray | Sequence[int]) -> np.ndarray:
        """Vectorized h over an address array (Horner, mod at each step).

        Exactly equal to ``[h(x) for x in xs]`` — the vectorized path
        reduces mod P at every Horner step, so with P < 2**31 every
        intermediate fits int64.  This is the one-call-per-step form the
        emulation layer uses; evaluating addresses one at a time through
        ``__call__`` costs an O(S) Python loop per address.
        """
        if self._vec_coeffs is not None:
            p = self.p
            vals = np.asarray(xs, dtype=np.int64) % p
            # Horner in place; its first step, (0 * x + a) % P, is the
            # leading coefficient itself (already reduced mod P)
            acc = np.empty_like(vals)
            acc.fill(self.coeffs[-1])
            for a in self._horner_tail:
                acc *= vals
                acc += a
                acc %= p
            acc %= self.n_modules
            return acc
        return np.array([self(int(x)) for x in np.asarray(xs)], dtype=np.int64)

    def description_bits(self) -> int:
        """Bits to broadcast this hash function: S * ceil(log2 P).

        The paper: "each hash function in H needs only O(L log M) bits to
        describe. This makes our scheme practical."
        """
        return self.degree_param * max(1, math.ceil(math.log2(self.p)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PolynomialHash(S={self.degree_param}, P={self.p}, "
            f"N={self.n_modules})"
        )


class HashFamily:
    """The family H for a given (M, N, S); draws random members.

    Parameters
    ----------
    address_space:
        M — number of shared-memory cells of the emulated PRAM.
    n_modules:
        N — memory modules of the emulating network.
    degree_param:
        S — number of coefficients; the paper picks S = cL for network
        diameter L (use :func:`degree_for_diameter`).
    """

    def __init__(self, address_space: int, n_modules: int, degree_param: int) -> None:
        if address_space < 1:
            raise ValueError("address space must be positive")
        if n_modules < 1:
            raise ValueError("need at least one module")
        if degree_param < 1:
            raise ValueError("degree parameter S must be >= 1")
        self.address_space = address_space
        self.n_modules = n_modules
        self.degree_param = degree_param
        self.p = next_prime(max(address_space, n_modules, 2))

    def sample(self, seed=None) -> PolynomialHash:
        """Draw h uniformly from H (one batched draw for all S coefficients)."""
        rng = as_generator(seed)
        coeffs = rng.integers(self.p, size=self.degree_param)
        return PolynomialHash(coeffs.tolist(), self.p, self.n_modules)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HashFamily(M={self.address_space}, N={self.n_modules}, "
            f"S={self.degree_param}, P={self.p})"
        )


def degree_for_diameter(diameter: int, c: float = 1.0) -> int:
    """S = cL (the paper's choice 'S = cL for some constant c')."""
    return max(1, round(c * diameter))

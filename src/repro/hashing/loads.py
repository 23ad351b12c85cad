"""Bucket-load measurement and the paper's load bounds.

Lemma 2.2 (Karlin–Upfal) bounds the probability that a random h ∈ H maps
≥ γ of the ≤ N live addresses S to one module; the paper instantiates
γ = cℓ to conclude that, w.h.p., the request routing problem is a partial
cℓ-relation (so Theorem 2.4 applies).  §3.3's Fact and Corollaries 3.1-3.3
give the mesh-specific load facts.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def bucket_loads(h, addresses: Sequence[int] | np.ndarray, n_buckets: int | None = None) -> np.ndarray:
    """Histogram of module loads for the given live address set."""
    if n_buckets is None:
        n_buckets = h.n_modules
    mapped = h.map(np.asarray(addresses))
    return np.bincount(mapped, minlength=n_buckets)


def max_load(h, addresses) -> int:
    """Largest number of live addresses mapped to one module."""
    loads = bucket_loads(h, addresses)
    return int(loads.max()) if loads.size else 0


def _log_comb(n: float, k: float) -> float:
    """log C(n, k) via lgamma (n may be large; 0 <= k <= n)."""
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )


def lemma22_bound(
    s_size: int, n_modules: int, delta: int, gamma: int, p: int
) -> float:
    """Upper bound on Pr[some module gets >= gamma of the s_size requests].

    Following the proof of Lemma 2.2: every h mapping γ ≥ δ elements of S
    to module L is pinned down by each of its C(γ, δ) δ-subsets (a degree-
    (δ-1) polynomial is determined by δ points), and there are at most
    C(|S|, δ) · ceil(P/N)^δ admissible point sets, out of P^δ polynomials:

        Pr[one module] ≤ C(|S|, δ) · ceil(P/N)^δ / (C(γ, δ) · P^δ)

    multiplied by N for the union over modules.
    """
    if gamma < delta:
        return 1.0  # the counting argument needs γ ≥ δ
    if s_size < gamma:
        return 0.0  # cannot map more elements than exist
    log_num = _log_comb(s_size, delta) + delta * math.log(math.ceil(p / n_modules))
    log_den = _log_comb(gamma, delta) + delta * math.log(p)
    log_pr = math.log(n_modules) + log_num - log_den
    return min(1.0, math.exp(log_pr))


def empirical_overflow_rate(
    family, s_size: int, gamma: int, trials: int, seed=None
) -> float:
    """Fraction of sampled hash functions with some module load >= gamma.

    The live set S is taken as addresses 0..s_size-1 (the bound is uniform
    over S, so a fixed S is a fair test).
    """
    from repro.util.rng import spawn_generators

    addresses = np.arange(s_size)
    hits = 0
    for rng in spawn_generators(seed, trials):
        h = family.sample(rng)
        if max_load(h, addresses) >= gamma:
            hits += 1
    return hits / trials


# ---- §3.3 Fact and corollaries ------------------------------------------

def corollary31_reference(n_items: int) -> float:
    """Corollary 3.1: N items into N buckets → max load O(log N / log log N)."""
    ln_n = math.log(max(3, n_items))
    return ln_n / math.log(ln_n)


def corollary32_reference(n: int, beta: float) -> float:
    """Corollary 3.2: n² items into βn buckets → max ≤ n/β + O(n^{3/4})."""
    return n / beta + n**0.75


def corollary33_reference(n_items: int) -> float:
    """Corollary 3.3: any fixed collection of log N buckets receives
    O(log N) items w.h.p."""
    return math.log(max(2, n_items))


def collection_load(h, addresses, buckets: Sequence[int]) -> int:
    """Total items hashed into the given collection of buckets."""
    mapped = h.map(np.asarray(addresses))
    mask = np.isin(mapped, np.asarray(list(buckets)))
    return int(mask.sum())

"""Shared-memory address hashing (§2.1, Lemma 2.2, §3.3)."""

from repro.hashing.family import (
    HashFamily,
    PolynomialHash,
    degree_for_diameter,
)
from repro.hashing.loads import (
    bucket_loads,
    collection_load,
    corollary31_reference,
    corollary32_reference,
    corollary33_reference,
    empirical_overflow_rate,
    lemma22_bound,
    max_load,
)

__all__ = [
    "HashFamily",
    "PolynomialHash",
    "bucket_loads",
    "collection_load",
    "corollary31_reference",
    "corollary32_reference",
    "corollary33_reference",
    "degree_for_diameter",
    "empirical_overflow_rate",
    "lemma22_bound",
    "max_load",
]

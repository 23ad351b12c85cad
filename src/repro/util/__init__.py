"""Shared utilities: seeded RNG plumbing, number theory, statistics, tables."""

from repro.util.rng import as_generator, spawn_generators
from repro.util.primes import is_prime, next_prime
from repro.util.stats import (
    binomial_tail,
    chernoff_upper,
    hoeffding_poisson_tail,
)
from repro.util.tables import Table

__all__ = [
    "Table",
    "as_generator",
    "binomial_tail",
    "chernoff_upper",
    "hoeffding_poisson_tail",
    "is_prime",
    "next_prime",
    "spawn_generators",
]

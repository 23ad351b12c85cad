"""Randomness plumbing.

Every randomized component in the library accepts either a seed (int), a
``numpy.random.Generator``, or ``None`` (fresh entropy).  Routing algorithms
and emulators draw *all* of their coins from the resulting generator, so any
experiment is reproducible from a single integer seed.
"""

from __future__ import annotations

import numpy as np

SeedLike = "int | np.random.Generator | np.random.SeedSequence | None"


def as_generator(seed=None) -> np.random.Generator:
    """Coerce *seed* into a ``numpy.random.Generator``.

    Accepts ``None`` (OS entropy), an integer seed, a ``SeedSequence``, or an
    existing ``Generator`` (returned unchanged so callers can thread one
    generator through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_generators(seed, n: int) -> list[np.random.Generator]:
    """Derive *n* independent child generators from *seed*.

    Used when an experiment fans out over trials: each trial gets its own
    stream so trials are independent yet the whole sweep replays from one
    seed (an int, ``None`` or a ``SeedSequence``).
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]


def random_partial_permutation(
    rng: np.random.Generator, n: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """A random *partial* permutation: k distinct sources -> k distinct dests.

    Returns ``(sources, dests)`` arrays of length ``k``.  Used for partial
    routing problems (§2.2.1 of the paper).
    """
    if not 0 <= k <= n:
        raise ValueError(f"k={k} must be in [0, {n}]")
    sources = rng.choice(n, size=k, replace=False)
    dests = rng.choice(n, size=k, replace=False)
    return sources, dests


def random_h_relation(
    rng: np.random.Generator, n: int, h: int
) -> tuple[np.ndarray, np.ndarray]:
    """A random h-relation on ``n`` nodes (§2.2.1).

    Every node originates exactly ``h`` packets and ``h`` packets share
    each destination: ``h`` random permutations superposed.  Returns
    ``(sources, dests)``.
    """
    if h < 1:
        raise ValueError("h must be >= 1")
    srcs, dsts = zip(*(random_partial_permutation(rng, n, n) for _ in range(h)))
    return np.concatenate(srcs), np.concatenate(dsts)

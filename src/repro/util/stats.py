"""Probability bounds and summary statistics used throughout the paper.

Implements the tools of §2.2.2: binomial tails B(m, N, P), the Hoeffding
fact reducing Poisson trials to Bernoulli trials, and Chernoff bounds — plus
the least-squares fit the experiments read leading constants from.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def binomial_tail(m: int, n: int, p: float) -> float:
    """B(m, n, p): probability of at least *m* successes in n Bernoulli(p).

    Computed with a numerically careful log-space sum; exact enough for the
    moderate n used in the analysis module.
    """
    if m <= 0:
        return 1.0
    if m > n:
        return 0.0
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    logp, log1p = math.log(p), math.log1p(-p)
    total = 0.0
    for k in range(m, n + 1):
        logterm = (
            math.lgamma(n + 1)
            - math.lgamma(k + 1)
            - math.lgamma(n - k + 1)
            + k * logp
            + (n - k) * log1p
        )
        total += math.exp(logterm)
    return min(total, 1.0)


def chernoff_upper(m: int, n: int, p: float) -> float:
    """Chernoff bound (Fact 2.3): B(m, n, p) <= (np/m)^m * e^(m - np) for m >= np.

    This is the classic form used in the paper's delay analysis.
    """
    if m <= 0:
        return 1.0
    mu = n * p
    if m < mu:
        return 1.0
    if mu == 0:
        return 0.0
    return math.exp(m * math.log(mu / m) + m - mu)


def hoeffding_poisson_tail(m: int, probs: Sequence[float]) -> float:
    """Fact 2.2 (Hoeffding): tail of a sum of independent Poisson trials.

    With success probabilities ``probs`` and mean p̄ = mean(probs), the
    probability of >= m successes is at most B(m, N, p̄) whenever
    m >= N p̄ + 1.  Returns that Bernoulli bound (or 1.0 when the premise
    fails, which keeps the bound valid though weak).
    """
    probs = list(probs)
    n = len(probs)
    if n == 0:
        return 0.0 if m > 0 else 1.0
    pbar = sum(probs) / n
    if m < n * pbar + 1:
        return 1.0
    return binomial_tail(m, n, pbar)


def poisson_tail(m: int, lam: float) -> float:
    """P(X >= m) for X ~ Poisson(lam); the limit law behind Theorem 2.4."""
    if m <= 0:
        return 1.0
    # 1 - CDF(m-1), summed in log space.
    total = 0.0
    for k in range(0, m):
        total += math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1)) if lam > 0 else (
            1.0 if k == 0 else 0.0
        )
    return max(0.0, 1.0 - total)


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Least-squares fit y ≈ a*x + b; returns (a, b).

    Experiments use this to extract the leading constant of time-vs-diameter
    curves (e.g. the "4" of 4n + o(n)).
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two points for a linear fit")
    a, b = np.polyfit(x, y, 1)
    return float(a), float(b)

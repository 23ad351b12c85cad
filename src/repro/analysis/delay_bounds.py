"""The paper's delay analysis, executable (§2.2.2, Theorem 2.4's proof).

Two artifacts:

* the generating-function tail bound on a packet's total queueing delay
  in the universal routing algorithm — the heart of Theorem 2.4;
* the queue-line lemma (Fact 2.1) as a *checker* that can audit an actual
  routing run: for a nonrepeating scheme, no packet's delay may exceed
  the number of packets whose paths overlap its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.routing.packet import Packet


def per_level_delay_pgf_coeff(levels: int, degree: int, p: int) -> float:
    """Upper bound on Prob(d_i = p): (1/p!) (ℓ/d)^p  (proof of Thm 2.4).

    d_i is the number of packets delaying a given packet for the first
    time at level i; the bound is uniform over levels.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    ratio = levels / degree
    return math.exp(p * math.log(ratio) - math.lgamma(p + 1)) if ratio > 0 else (
        1.0 if p == 0 else 0.0
    )


def total_delay_tail(levels: int, degree: int, delta: int) -> float:
    """Upper bound on Prob(total delay >= δ) for one packet.

    The per-level generating function is e^{(ℓ/d) x}; over ℓ levels the
    total-delay PGF is e^{s x} with s = ℓ²/d, so
    Prob(delay = p) <= s^p / p! and the tail is bounded by the classic
    Poisson-style estimate (e s / δ)^δ for δ > s.
    """
    if delta <= 0:
        return 1.0
    s = levels * levels / degree
    if delta <= s:
        return 1.0
    return min(1.0, math.exp(delta * (1.0 + math.log(s / delta))))


class TailBoundError(RuntimeError):
    """:func:`routing_time_bound` found no δ below 10,000 at which the
    union-bounded tail drops under *failure_prob* (ℓ²/d ≥ 10,000 bounds
    every such tail by 1).  Carries the arguments."""

    def __init__(self, levels: int, degree: int, failure_prob: float) -> None:
        super().__init__(
            f"tail bound did not converge for levels={levels}, "
            f"degree={degree}, failure_prob={failure_prob}"
        )
        self.levels = levels
        self.degree = degree
        self.failure_prob = failure_prob


def routing_time_bound(levels: int, degree: int, failure_prob: float) -> float:
    """Smallest T = 2ℓ + δ with total_delay_tail(δ) * (packets) <= target.

    A direct, computable version of "Õ(ℓ) steps with probability
    >= 1 - N^{-α}": path length 2ℓ plus the δ at which the union-bounded
    tail drops below *failure_prob* (union over the N = column packets).
    """
    if not 0 < failure_prob < 1:
        raise ValueError("failure_prob must be in (0,1)")
    n_packets = degree**levels if degree > 1 else levels
    delta = 1
    while delta < 10_000:
        if total_delay_tail(levels, degree, delta) * n_packets <= failure_prob:
            return 2 * levels + delta
        delta += 1
    raise TailBoundError(levels, degree, failure_prob)


# ---------------------------------------------------------------------------
# Queue-line lemma (Fact 2.1)
# ---------------------------------------------------------------------------

@dataclass
class QueueLineViolation:
    pid: int
    delay: int
    overlaps: int


def _links_of(trace: Sequence) -> set[tuple]:
    return {(a, b) for a, b in zip(trace, trace[1:])}


def _delivered_traces(packets: Sequence[Packet]) -> list[tuple[Packet, list]]:
    """``(packet, trace)`` of every delivered packet.  Every packet a
    reference run delivers has its trace, so one without was never
    routed (a hand-built list): ``ValueError`` naming it, rather than a
    smaller population audited in silence."""
    out = []
    for p in packets:
        if not p.delivered:
            continue
        if p.trace is None:
            raise ValueError(
                f"packet {p.pid} is delivered but has no trace: "
                "it did not come out of an engine run"
            )
        out.append((p, p.trace))
    return out


def queue_line_check(packets: Sequence[Packet]) -> list[QueueLineViolation]:
    """Audit Fact 2.1 on a finished run.

    For every delivered packet x, its delay must be <= the number of other
    packets whose paths share at least one (directed) link with x's path —
    provided the routing scheme is nonrepeating.  Returns the violations
    (empty list = lemma holds on this run).  A delivered packet without a
    trace is a ``ValueError``.
    """
    infos = [(p, _links_of(trace)) for p, trace in _delivered_traces(packets)]
    violations = []
    for p, links in infos:
        if not links:
            continue
        overlaps = sum(
            1 for q, qlinks in infos if q is not p and links & qlinks
        )
        if p.delay > overlaps:
            violations.append(QueueLineViolation(p.pid, p.delay, overlaps))
    return violations


def is_nonrepeating(packets: Sequence[Packet]) -> bool:
    """Check Definition 2.1 on a run: once two paths diverge after sharing
    a link, they never share a link again.  A delivered packet without a
    trace is a ``ValueError``."""
    infos = [(p, trace) for p, trace in _delivered_traces(packets) if len(trace) > 1]
    for i, (p, tp) in enumerate(infos):
        lp = list(zip(tp, tp[1:]))
        set_p = set(lp)
        index_p = {link: idx for idx, link in enumerate(lp)}
        for q, tq in infos[i + 1 :]:
            lq = list(zip(tq, tq[1:]))
            shared = [link for link in lq if link in set_p]
            if len(shared) <= 1:
                continue
            # positions of shared links must be contiguous *and* order-
            # preserving in both paths for the pair to be nonrepeating
            pos_p = [index_p[link] for link in shared]
            pos_q = [idx for idx, link in enumerate(lq) if link in set_p]
            if pos_p != list(range(pos_p[0], pos_p[0] + len(shared))):
                return False
            if pos_q != list(range(pos_q[0], pos_q[0] + len(shared))):
                return False
            if sorted(pos_p) != pos_p:
                return False
    return True

"""Tests for the analysis module: delay bounds, queue-line lemma, claims."""

import math

import pytest

from repro.analysis import (
    LINEAR_ARRAY_CLAIM,
    MESH_EMULATION_CLAIM,
    MESH_ROUTING_CLAIM,
    fitted_constant,
    flatness,
    is_nonrepeating,
    karlin_upfal_phase_ratio,
    per_level_delay_pgf_coeff,
    queue_line_check,
    ranade_mesh_constant,
    routing_time_bound,
    star_diameter,
    star_nodes,
    sublogarithmic_gap,
    total_delay_tail,
)
from repro.routing import SynchronousEngine, make_packets
from repro.topology import LinearArray


class TestDelayBounds:
    def test_pgf_coeff_decreasing_in_p(self):
        vals = [per_level_delay_pgf_coeff(8, 8, p) for p in range(6)]
        assert vals[0] == 1.0
        assert all(a >= b for a, b in zip(vals[2:], vals[3:]))

    def test_pgf_coeff_rejects_negative(self):
        with pytest.raises(ValueError):
            per_level_delay_pgf_coeff(4, 4, -1)

    def test_total_delay_tail_trivial_below_mean(self):
        assert total_delay_tail(8, 8, 2) == 1.0

    def test_total_delay_tail_geometric_decay(self):
        # ℓ = d (the paper's regime): s = ℓ; tail decays past s.
        l = 10
        tails = [total_delay_tail(l, l, delta) for delta in (20, 40, 80)]
        assert tails[0] > tails[1] > tails[2]
        assert tails[2] < 1e-10

    def test_routing_time_bound_linear_in_levels(self):
        t1 = routing_time_bound(6, 6, failure_prob=0.01)
        t2 = routing_time_bound(12, 12, failure_prob=0.01)
        assert t1 < t2 < 6 * 2 * 12  # Õ(ℓ) with modest constant

    def test_routing_time_bound_validates(self):
        with pytest.raises(ValueError):
            routing_time_bound(4, 4, failure_prob=0.0)


class TestQueueLineLemma:
    def _run_line(self, origins, dests):
        array = LinearArray(12)

        def next_hop(p):
            if p.node == p.dest:
                return None
            return array.route_next(p.node, p.dest)

        packets = make_packets(origins, dests)
        engine = SynchronousEngine()
        stats = engine.run(packets, next_hop, max_steps=200)
        assert stats.completed
        return packets

    def test_lemma_holds_on_shared_path(self):
        packets = self._run_line([0, 0, 0], [8, 8, 8])
        assert queue_line_check(packets) == []

    def test_lemma_holds_on_disjoint_paths(self):
        packets = self._run_line([0, 6], [4, 11])
        assert queue_line_check(packets) == []
        # disjoint paths, zero delay
        assert all(p.delay == 0 for p in packets)

    def test_nonrepeating_on_greedy_line(self):
        packets = self._run_line([0, 2, 4], [9, 10, 11])
        assert is_nonrepeating(packets)

    def test_a_delivered_packet_without_a_trace_is_refused(self):
        """Every packet a reference run delivers has its trace, so a
        delivered one without came from no engine run: both audits name
        it instead of auditing a smaller population."""
        packets = self._run_line([0, 2], [6, 9])
        hand_built = make_packets([1], [5])[0]
        hand_built.pid, hand_built.hops, hand_built.arrived_at = 7, 4, 4
        for audit in (queue_line_check, is_nonrepeating):
            with pytest.raises(ValueError, match="packet 7 is delivered but has no trace"):
                audit([*packets, hand_built])

    def test_violation_detection(self):
        # Fabricate a delivered packet with delay exceeding overlaps.
        packets = make_packets([0], [3])
        p = packets[0]
        p.trace = [0, 1, 2, 3]
        p.hops = 3
        p.arrived_at = 50  # absurd delay with no overlapping packets
        violations = queue_line_check(packets)
        assert len(violations) == 1
        assert violations[0].delay == 47


class TestClaims:
    def test_mesh_claims_bound_values(self):
        assert MESH_ROUTING_CLAIM.bound(16) > 32
        assert 4 * 16 + 5 <= MESH_EMULATION_CLAIM.bound(16)
        assert 12 * 16 > MESH_EMULATION_CLAIM.bound(16)

    def test_linear_claim(self):
        assert 40 <= LINEAR_ARRAY_CLAIM.bound(38)

    def test_constants(self):
        assert ranade_mesh_constant() == 100.0
        assert karlin_upfal_phase_ratio() == 2.0

    def test_star_facts(self):
        assert star_diameter(7) == 9
        assert star_nodes(7) == 5040

    def test_sublogarithmic_gap_shrinks(self):
        g5 = sublogarithmic_gap(5)
        g9 = sublogarithmic_gap(9)
        assert g9 < g5 < 1.0

    def test_flatness(self):
        assert flatness([2.0, 2.1, 2.05])
        assert not flatness([2.0, 3.0, 4.5])
        with pytest.raises(ValueError):
            flatness([0.0, 1.0])

    def test_fitted_constant(self):
        scales = [8, 16, 24]
        times = [4 * s + 7 for s in scales]
        assert math.isclose(fitted_constant(scales, times), 4.0, abs_tol=1e-9)

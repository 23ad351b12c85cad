"""The Karlin–Upfal 4-phase emulation scheme (§3.3), our ≈2× baseline.

Karlin and Upfal route every request through a *random* processor before
its true target, and every reply through another random processor — two
extra phases that "are there only to simplify the analysis, and can indeed
be eliminated" (§3.3).  On the mesh this costs ≈ 8n + o(n) per step versus
our algorithm's 4n + o(n); experiment E10 measures the factor-2 gap.

    1. processor i's request is sent to a random processor k;
    2. from k the request is sent to processor h(j);
    3. if the request was 'read', h(j) sends the packet to a random
       processor;
    4. finally the packet is sent to processor i.
"""

from __future__ import annotations

from repro.emulation.base import AttemptLog, StepCost, check_addresses
from repro.emulation.mesh import MeshEmulator
from repro.pram.trace import RequestColumns


class KarlinUpfalMeshEmulator(MeshEmulator):
    """4-phase variant of the mesh emulator (EREW workloads)."""

    def __init__(self, mesh, address_space, **kwargs) -> None:
        kwargs.setdefault("mode", "erew")
        if kwargs["mode"] != "erew":
            raise ValueError("the Karlin–Upfal baseline is measured on EREW traces")
        super().__init__(mesh, address_space, **kwargs)

    def _route_leg(self, sources, dests):
        router = self._make_router()
        n = self.mesh.rows + self.mesh.cols
        stats = router.route(sources, dests, max_steps=500 * n + 2000)
        if not stats.completed:  # the baseline has no rehash / retry loop
            raise self._failure(
                "Karlin–Upfal leg did not complete",
                AttemptLog(run_modes=[stats.run_mode]),
                stats.steps,
            )
        return stats

    def emulate_step(self, step: RequestColumns) -> StepCost:
        check_addresses(step.addrs, self.memory.size)
        as_given = step
        # reads first: the random intermediates are drawn in this row order
        step = step.reads_first()
        if not step.is_erew():
            raise ValueError("Karlin–Upfal baseline requires EREW steps")

        n_nodes = self.mesh.num_nodes
        sources = step.pids.tolist()
        module_col = self.serving_modules(step.addrs)
        modules = module_col.tolist()
        meta = list(zip(step.is_read.tolist(), step.addrs.tolist(), step.values.tolist()))

        # Phase 1: to a random processor each.
        rand1 = self.rng.integers(0, n_nodes, size=step.num_requests).tolist()
        legs = [self._route_leg(sources, rand1)]
        # Phase 2: random processor -> memory module h(addr).
        legs.append(self._route_leg(rand1, modules))
        request_steps = legs[0].steps + legs[1].steps

        self._apply_memory(
            (addr, i, val) for i, (is_read, addr, val) in enumerate(meta) if not is_read
        )

        read_idx = [i for i, (is_read, _, _) in enumerate(meta) if is_read]
        if read_idx:
            r_modules = [modules[i] for i in read_idx]
            r_sources = [sources[i] for i in read_idx]
            # Phase 3: module -> another random processor.
            rand2 = self.rng.integers(0, n_nodes, size=len(read_idx)).tolist()
            legs.append(self._route_leg(r_modules, rand2))
            # Phase 4: random processor -> original requester.
            legs.append(self._route_leg(rand2, r_sources))

        return StepCost(
            request_steps=request_steps,
            reply_steps=sum(leg.steps for leg in legs[2:]),
            max_queue=max(leg.max_queue for leg in legs),
            requests=step.num_requests,
            run_modes=tuple(leg.run_mode for leg in legs),
            modules=as_given.from_reads_first(module_col),
        )

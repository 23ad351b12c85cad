"""A Ranade-style butterfly emulation baseline ([13], §1, §3).

Ranade's algorithm routes PRAM requests through a butterfly with
*sorted merge forwarding*: every node holds one FIFO per input link and
may only forward the smallest-keyed packet — and only once **all** of its
input streams are "ready" (nonempty, or closed by an end-of-stream
marker).  Equal-key packets combine when their stream heads meet.  This
conservative synchronization is what guarantees Ranade's O(log N) bound
with FIFO queues, and it is also why the hidden constant is large: nodes
spend most steps stalled waiting for slower input streams, and the step
serves request + reply passes.

The paper's point (§1, §3): applied to a mesh this machinery gives O(n)
with a constant around 100, so a direct 4n + o(n) algorithm wins by a
wide margin.  We reproduce the *mechanism* on its native butterfly and
compare normalized constants (time / diameter) against the paper's
emulators; see EXPERIMENTS.md (E10) for the substitution notes.

Only EREW traces are measured through this baseline: a step's keys
are distinct, so no two stream heads ever share one and combining is
not modeled here.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.emulation.base import (
    AttemptLog,
    Emulator,
    RequestRoutingError,
    StepCost,
    check_addresses,
)
from repro.hashing.family import HashFamily
from repro.pram.memory import SharedMemory
from repro.pram.trace import RequestColumns
from repro.pram.variants import WritePolicy
from repro.util.rng import as_generator

_EOS = object()  # end-of-stream marker


class _MergePacket:
    __slots__ = ("key", "dest_row", "payload", "delivered_at")

    def __init__(self, key, dest_row: int, payload) -> None:
        self.key = key
        self.dest_row = dest_row
        self.payload = payload
        self.delivered_at: int | None = None


class RanadeEmulator(Emulator):
    """Merge-forwarding butterfly emulation of an EREW PRAM."""

    def __init__(
        self,
        k: int,
        address_space: int,
        *,
        buffer_size: int = 2,
        write_policy: WritePolicy = WritePolicy.ARBITRARY,
        combine_op: str = "sum",
        seed=None,
        max_pass_steps: int | None = None,
    ) -> None:
        if k < 1:
            raise ValueError("butterfly order k must be >= 1")
        if buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        self.k = k
        self.rows = 1 << k
        self.buffer_size = buffer_size
        self.write_policy = write_policy
        self.combine_op = combine_op
        self.rng = as_generator(seed)
        self.memory = SharedMemory(address_space)
        self.family = HashFamily(address_space, self.rows, max(2, k))
        self.hash = self.family.sample(self.rng)
        self.max_pass_steps = max_pass_steps or (4000 * k + 4000)

    @property
    def scale(self) -> float:
        """2k: a request pass plus a reply pass through the butterfly."""
        return 2.0 * self.k

    @property
    def n_processors(self) -> int:
        return self.rows

    # ------------------------------------------------------------------
    def _merge_pass(
        self,
        injections: dict[int, list[_MergePacket]],
        bit_at_stage: Callable[[int], int],
    ) -> int:
        """Run one sorted-merge pass through k stages; returns step count.

        ``injections[row]`` is that first-stage node's (pre-sorted) stream.
        Each stage-s node (s, r) forwards toward stage s+1, rewriting bit
        ``bit_at_stage(s)`` of the row to the packet destination's bit.

        Ranade's *ghost* mechanism is modeled as per-port key watermarks:
        an empty input port does not block the merge once its upstream has
        promised (via a ghost) that no key below the candidate will ever
        arrive on it.  Ghosts and EOS markers travel regardless of buffer
        capacity; real packets respect ``buffer_size``.
        """
        k, rows, cap = self.k, self.rows, self.buffer_size
        INF = (float("inf"),)
        NEG = (float("-inf"),)

        def in_ports(s: int, r: int) -> list[int]:
            b = 1 << bit_at_stage(s - 1)
            return sorted({r, r ^ b})

        buffers: dict[tuple[int, int], dict[int, deque]] = {}
        # watermark[(s, r, port)]: lower bound on all future keys from port
        watermark: dict[tuple[int, int, int], tuple] = {}
        total = 0
        for r in range(rows):
            stream = sorted(injections.get(r, []), key=lambda p: p.key)
            buffers[(0, r)] = {-1: deque(stream)}
            watermark[(0, r, -1)] = INF  # injection stream is complete
            total += len(stream)
        for s in range(1, k + 1):
            for r in range(rows):
                buffers[(s, r)] = {port: deque() for port in in_ports(s, r)}
                for port in in_ports(s, r):
                    watermark[(s, r, port)] = NEG

        delivered = 0
        t = 0

        while delivered < total:
            if t >= self.max_pass_steps:
                # terminal: the baseline has no rehash / retry loop
                raise RequestRoutingError(
                    f"Ranade pass exceeded {self.max_pass_steps} steps "
                    f"({delivered}/{total} delivered)",
                    AttemptLog(),  # no engine runs: the merge is its own
                    burned=t,
                )
            # per-port occupancy snapshot: a full sibling port must never
            # block the (smaller-key) packet another port is waiting for
            occupancy = {
                (node, port): len(q)
                for node, ports in buffers.items()
                for port, q in ports.items()
            }
            moves: list[tuple[_MergePacket, tuple[int, int], int]] = []
            ghost_moves: list[tuple[tuple[int, int], int, tuple]] = []
            for s in range(k):
                b = 1 << bit_at_stage(s)
                for r in range(rows):
                    node = (s, r)
                    ports = buffers[node]
                    # the strongest promise this node can make downstream:
                    # min over ports of (head key | watermark when empty)
                    bounds = [
                        q[0].key if q else watermark[(s, r, port)]
                        for port, q in ports.items()
                    ]
                    promise = min(bounds)
                    emitted = False
                    nonempty = [(q[0].key, port) for port, q in ports.items() if q]
                    if nonempty and min(nonempty)[0] == promise:
                        key, port = min(nonempty)
                        pkt = ports[port][0]
                        nxt_r = (r & ~b) | (pkt.dest_row & b)
                        target = (s + 1, nxt_r)
                        if s + 1 > k - 1 or occupancy[(target, r)] < cap:
                            ports[port].popleft()
                            moves.append((pkt, target, r))
                            # the emitted key is also a promise to BOTH
                            # successors (the ghost to the other side)
                            for nr in (r, r ^ b):
                                ghost_moves.append(((s + 1, nr), r, key))
                            emitted = True
                    if not emitted:
                        # stalled or drained: propagate the promise as a
                        # ghost (EOS when promise is INF and queues empty)
                        for nr in (r, r ^ b):
                            ghost_moves.append(((s + 1, nr), r, promise))
            t += 1
            for pkt, target, from_row in moves:
                s_t, _r_t = target
                if s_t == k:
                    pkt.delivered_at = t
                    delivered += 1
                else:
                    buffers[target][from_row].append(pkt)
            for target, from_row, key in ghost_moves:
                s_t, r_t = target
                if s_t <= k - 1:
                    wkey = (s_t, r_t, from_row)
                    if watermark[wkey] < key:
                        watermark[wkey] = key
        return t

    # ------------------------------------------------------------------
    def emulate_step(self, step: RequestColumns) -> StepCost:
        # Row order is free: an EREW step's keys are distinct and every
        # injection stream is sorted by key before the pass.
        if not step.is_erew():
            raise ValueError("the Ranade baseline is measured on EREW traces")
        check_addresses(step.addrs, self.memory.size)
        modules = self.serving_modules(step.addrs)

        # Forward pass: requests keyed by (module row, address).
        injections: dict[int, list[_MergePacket]] = {}
        reads = []
        writes = []
        for pid, addr, module, is_read, value in zip(
            step.pids.tolist(),
            step.addrs.tolist(),
            modules.tolist(),
            step.is_read.tolist(),
            step.values.tolist(),
        ):
            if is_read:
                pkt = _MergePacket((module, addr, "r"), module, (pid, addr, None))
                reads.append(pkt)
            else:
                pkt = _MergePacket((module, addr, "w"), module, (pid, addr, value))
                writes.append(pkt)
            injections.setdefault(pid % self.rows, []).append(pkt)

        request_steps = self._merge_pass(injections, lambda s: s)

        self._apply_memory(
            (addr, pid, val) for pid, addr, val in (p.payload for p in writes)
        )

        # Reply pass (reads only): mirrored butterfly, keyed by requester.
        reply_steps = 0
        if reads:
            reply_inj: dict[int, list[_MergePacket]] = {}
            for pkt in reads:
                pid, addr, _ = pkt.payload
                module = pkt.dest_row
                reply = _MergePacket((pid % self.rows, addr, "v"), pid % self.rows, None)
                reply_inj.setdefault(module, []).append(reply)
            reply_steps = self._merge_pass(
                reply_inj, lambda s: self.k - 1 - s
            )

        return StepCost(
            request_steps=request_steps,
            reply_steps=reply_steps,
            rehashes=0,
            combines=0,
            max_queue=self.buffer_size,
            requests=step.num_requests,
            modules=modules,
        )

"""Real PRAM applications: connected components and bisimulation.

The first workloads in the repo whose memory traffic is *data
dependent* — which cells a processor touches next round depends on
values other processors wrote last round — and the first whose
correctness is pinned by external sequential oracles
(:mod:`repro.apps.oracles`) rather than engine-vs-engine agreement.

**Connected components** (:func:`connected_components`) follows the
min-label hooking + shortcutting scheme of Liu–Tarjan–Zhong: every
round, each edge tries to *hook* the larger of its endpoints' labels
down to the smaller (a CRCW combining-``min`` write resolves concurrent
hooks on the same label cell), then every vertex *shortcuts* one level
(``f(v) ← f(f(v))``).  The label array is monotone nonincreasing with
``f(x) ≤ x`` invariant, so the fixpoint labels every vertex with the
minimum vertex id of its component.

**Bisimulation** (:func:`bisimulation`) is the signature-refinement
coarsest-partition scheme of Martens et al., specialized to
deterministic total LTSs: each round every state folds (own block,
successor blocks) into an exact base-(n+1) key, elects the minimum
state id per key through one combining-``min`` write into a
direct-addressed signature table, and adopts the winner as its new
block.  Each round computes exactly the sequential refinement map, so
the fixpoint is strong bisimilarity with min-member block names.

Both detect convergence with a pair of *toggling* flag cells — round k
clears flag ``(k+1) % 2`` for the next round while changers combine
into flag ``k % 2`` — so the unbounded round loop needs no separate
reset step and every processor leaves in lockstep.

:func:`matching_components` is the EREW-clean specialization (disjoint
edges make every access exclusive), and
:func:`broken_erew_components` deliberately mis-declares the CRCW
program as EREW for the race-detector tests.
"""

from __future__ import annotations

import dataclasses

from repro.apps.graphs import LTS, Graph
from repro.apps.oracles import bisimulation_oracle, connected_components_oracle
from repro.pram.machine import PRAM, Read, Write
from repro.pram.variants import AccessMode, WritePolicy

# NOTE: ProgramSpec is imported inside each builder, not at module top —
# repro.pram.programs merges APP_PROGRAM_BUILDERS into its registry at
# import time, so a top-level import here would be circular.


def connected_components(graph: Graph) -> "ProgramSpec":
    """CRCW-COMBINE(min) connected components; labels = component minima.

    Memory layout: ``[0, n)`` labels f (init ``f(v) = v``); ``[n, n+m)``
    edge sources; ``[n+m, n+2m)`` edge targets; two toggling flag cells
    at ``n+2m``.  ``max(n, m)`` processors: processor p plays edge p in
    the hook phase and vertex p in the shortcut phase.  Each round is 10
    lockstep steps (4 hook + 3 shortcut + 3 flag).
    """
    from repro.pram.programs import ProgramSpec, check_oracle

    n, m = graph.n, graph.m
    flag = n + 2 * m
    expected = connected_components_oracle(graph)

    def program(pid: int, nprocs: int):
        if pid < m:
            eu = yield Read(n + pid)
            ev = yield Read(n + m + pid)
        else:
            yield None
            yield None
        rnd = 0
        while True:
            changed = False
            # hook: pull the larger label down to the smaller one; the
            # guard lo < fhi keeps f monotone nonincreasing (combine-min
            # resolves concurrent hooks on the same cell)
            if pid < m:
                fu = yield Read(eu)
                fv = yield Read(ev)
                if fu != fv:
                    lo, hi = (fu, fv) if fu < fv else (fv, fu)
                    fhi = yield Read(hi)
                    if lo < fhi:
                        yield Write(hi, lo)
                        changed = True
                    else:
                        yield None
                else:
                    yield None
                    yield None
            else:
                for _ in range(4):
                    yield None
            # shortcut: f(v) <- f(f(v)) halves pointer chains
            if pid < n:
                c = yield Read(pid)
                root = yield Read(c)
                if root != c:
                    yield Write(pid, root)
                    changed = True
                else:
                    yield None
            else:
                for _ in range(3):
                    yield None
            # toggling convergence flags: clear next round's cell, then
            # changers combine into this round's cell, then all read it
            # and leave together on a quiet round
            if pid == 0:
                yield Write(flag + (rnd + 1) % 2, 0)
            else:
                yield None
            if changed:
                yield Write(flag + rnd % 2, 1)
            else:
                yield None
            done = yield Read(flag + rnd % 2)
            if not done:
                return
            rnd += 1

    def verify(pram: PRAM) -> None:
        got = [pram.memory.read(v) for v in range(n)]
        check_oracle("connected-components", got, expected)

    init: dict[int, object] = {v: v for v in range(n)}
    for i, (u, v) in enumerate(graph.edges):
        init[n + i] = u
        init[n + m + i] = v
    init[flag] = 0
    init[flag + 1] = 0

    return ProgramSpec(
        name="connected-components",
        n_procs=max(n, m),
        memory_size=flag + 2,
        mode=AccessMode.CRCW,
        write_policy=WritePolicy.COMBINE,
        combine_op="min",
        program=program,
        init=init,
        verify=verify,
    )


def matching_components(graph: Graph) -> "ProgramSpec":
    """EREW connected components for graphs with pairwise-disjoint edges.

    With every vertex in at most one edge, hooks touch pairwise-distinct
    cells and the shortcut read is skipped when a vertex already holds
    its own label — every access is exclusive, so the CRCW machinery of
    :func:`connected_components` is unnecessary.  Two fixed hook +
    shortcut rounds (a matching converges after one; the second is the
    quiet read-only pass), no flag phase.
    """
    from repro.pram.programs import ProgramSpec, check_oracle

    n, m = graph.n, graph.m
    degree = [0] * n
    for u, v in graph.edges:
        degree[u] += 1
        degree[v] += 1
    if any(d > 1 for d in degree):
        raise ValueError("matching_components needs pairwise-disjoint edges")
    expected = connected_components_oracle(graph)

    def program(pid: int, nprocs: int):
        if pid < m:
            eu = yield Read(n + pid)
            ev = yield Read(n + m + pid)
        else:
            yield None
            yield None
        for _ in range(2):
            if pid < m:
                fu = yield Read(eu)
                fv = yield Read(ev)
                if fu != fv:
                    # in a matching hi is still its own root, so the
                    # hook's check read always passes and the hook writes
                    lo, hi = (fu, fv) if fu < fv else (fv, fu)
                    yield Read(hi)
                    yield Write(hi, lo)
                else:
                    yield None
                    yield None
            else:
                for _ in range(4):
                    yield None
            # every pid is a vertex (m <= n / 2 in a matching)
            c = yield Read(pid)
            # skipping the root lookup when c == pid is what keeps this
            # EREW: matched partners would otherwise read the same parent
            # cell concurrently.  A hooked vertex's parent is a root
            # (trees have depth 1), so the lookup never writes.
            if c != pid:
                yield Read(c)
            else:
                yield None
            yield None

    def verify(pram: PRAM) -> None:
        got = [pram.memory.read(v) for v in range(n)]
        check_oracle("matching-components", got, expected)

    init: dict[int, object] = {v: v for v in range(n)}
    for i, (u, v) in enumerate(graph.edges):
        init[n + i] = u
        init[n + m + i] = v

    return ProgramSpec(
        name="matching-components",
        n_procs=max(n, m),
        memory_size=n + 2 * m,
        mode=AccessMode.EREW,
        program=program,
        init=init,
        verify=verify,
    )


def broken_erew_components(graph: Graph) -> "ProgramSpec":
    """:func:`connected_components` mis-declared as EREW.

    Deliberately broken — the hook phase reads endpoint labels
    concurrently and the flag phase write-combines — so the race
    sanitizer (``PRAM.run(check_races=True)``) must reject it.  Not
    registered in the program library.
    """
    spec = connected_components(graph)
    return dataclasses.replace(
        spec,
        name="broken-erew-components",
        mode=AccessMode.EREW,
        write_policy=WritePolicy.COMMON,
    )


def bisimulation(lts: LTS) -> "ProgramSpec":
    """CRCW-COMBINE(min) coarsest partition; labels = class minima.

    Memory layout: ``[0, n)`` block labels (init observations);
    ``[n, n + nL)`` the transition table row-major; a direct-addressed
    signature table of ``(n+1)**(L+1)`` cells; two toggling flag cells.
    One processor per state; each round is L+7 lockstep steps.

    The signature key ``fold(b, successor blocks)`` in radix n+1 is
    exact (injective), so there are no collisions to resolve, and a
    state always reads a table cell written *this* round (it wrote the
    cell itself one step earlier) — stale entries from prior rounds are
    never consulted and the table needs no reset phase.
    """
    from repro.pram.programs import ProgramSpec, check_oracle

    n, n_labels = lts.n_states, lts.n_labels
    radix = n + 1
    table = n + n * n_labels
    flag = table + radix ** (n_labels + 1)
    expected = bisimulation_oracle(lts)

    def program(pid: int, nprocs: int):
        succ = []
        for a in range(n_labels):
            succ.append((yield Read(n + pid * n_labels + a)))
        rnd = 0
        while True:
            b = yield Read(pid)
            key = b
            for t in succ:
                tb = yield Read(t)
                key = key * radix + tb
            # elect the minimum state id of this signature class
            yield Write(table + key, pid)
            winner = yield Read(table + key)
            changed = winner != b
            if changed:
                yield Write(pid, winner)
            else:
                yield None
            if pid == 0:
                yield Write(flag + (rnd + 1) % 2, 0)
            else:
                yield None
            if changed:
                yield Write(flag + rnd % 2, 1)
            else:
                yield None
            done = yield Read(flag + rnd % 2)
            if not done:
                return
            rnd += 1

    def verify(pram: PRAM) -> None:
        got = [pram.memory.read(s) for s in range(n)]
        check_oracle("bisimulation", got, expected)

    init: dict[int, object] = {s: lts.obs[s] for s in range(n)}
    for s in range(n):
        for a in range(n_labels):
            init[n + s * n_labels + a] = lts.delta[s][a]
    init[flag] = 0
    init[flag + 1] = 0

    return ProgramSpec(
        name="bisimulation",
        n_procs=n,
        memory_size=flag + 2,
        mode=AccessMode.CRCW,
        write_policy=WritePolicy.COMBINE,
        combine_op="min",
        program=program,
        init=init,
        verify=verify,
    )


def _default_connected_components() -> "ProgramSpec":
    from repro.apps.graphs import gnp_graph

    return connected_components(gnp_graph(12, 0.25, seed=7))


def _default_matching_components() -> "ProgramSpec":
    from repro.apps.graphs import matching_graph

    return matching_components(matching_graph(12, seed=5))


def _default_bisimulation() -> "ProgramSpec":
    from repro.apps.graphs import random_lts

    return bisimulation(random_lts(8, 2, seed=11))


#: merged into repro.pram.programs.ALL_PROGRAM_BUILDERS — the defaults
#: must classify "exact" like every library program (pinned by tests)
APP_PROGRAM_BUILDERS = {
    "connected-components": _default_connected_components,
    "matching-components": _default_matching_components,
    "bisimulation": _default_bisimulation,
}

"""Seeded graph and labeled-transition-system families for the app layer.

Every family is a pure function of its parameters and an integer seed
(:func:`repro.util.rng.as_generator`), so an application benchmark row —
graph, PRAM trace, emulated cost — replays bit for bit.  Families cover
the access-pattern extremes the synthetic generators never produce:

* :func:`gnp_graph` — Erdős–Rényi G(n, p): irregular, data-dependent
  hook targets;
* :func:`bounded_degree_graph` — a random graph with a degree cap:
  sparse, long components;
* :func:`star_graph` / :func:`path_graph` — the adversarial shapes for
  label propagation (maximum fan-in, maximum diameter);
* :func:`matching_graph` — a random perfect matching, the one family
  whose connected-components pass is EREW-clean (disjoint accesses);
* :func:`random_lts` / :func:`cycle_lts` — deterministic labeled
  transition systems (every state has one successor per label) for the
  coarsest-partition / bisimulation workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.rng import as_generator


@dataclass(frozen=True)
class Graph:
    """An undirected graph on vertices [0, n); edges are (u, v), u < v."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge {(u, v)!r} invalid for n={self.n}")

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class LTS:
    """A deterministic labeled transition system.

    ``delta[s][a]`` is the unique a-successor of state s (total: every
    state has exactly one transition per label), and ``obs[s]`` is the
    initial observation partition (the bisimulation's base blocks).
    Observations must fit the block-id range [0, n_states].
    """

    n_states: int
    n_labels: int
    delta: tuple[tuple[int, ...], ...]
    obs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.delta) != self.n_states or len(self.obs) != self.n_states:
            raise ValueError("delta/obs length must equal n_states")
        for s, row in enumerate(self.delta):
            if len(row) != self.n_labels:
                raise ValueError(f"state {s}: need {self.n_labels} successors")
            for t in row:
                if not 0 <= t < self.n_states:
                    raise ValueError(f"state {s}: successor {t} out of range")
        for s, o in enumerate(self.obs):
            if not 0 <= o <= self.n_states:
                raise ValueError(f"state {s}: observation {o} out of range")


# ---------------------------------------------------------------------------
# graph families
# ---------------------------------------------------------------------------

def gnp_graph(n: int, p: float, seed=None) -> Graph:
    """Erdős–Rényi G(n, p)."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("need 0 <= p <= 1")
    rng = as_generator(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    coins = rng.random(len(pairs))
    edges = [pair for pair, c in zip(pairs, coins) if c < p]
    return Graph(n, tuple(edges))


def bounded_degree_graph(n: int, degree: int, seed=None) -> Graph:
    """A random graph where every vertex has at most *degree* neighbors."""
    if degree < 1:
        raise ValueError("need degree >= 1")
    rng = as_generator(seed)
    deg = [0] * n
    edges: set[tuple[int, int]] = set()
    # n * degree proposal rounds: enough attempts to fill most slots
    # while staying a pure function of the seed.
    for _ in range(n * degree):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v:
            continue
        u, v = (u, v) if u < v else (v, u)
        if (u, v) in edges or deg[u] >= degree or deg[v] >= degree:
            continue
        edges.add((u, v))
        deg[u] += 1
        deg[v] += 1
    return Graph(n, tuple(sorted(edges)))


def star_graph(n: int) -> Graph:
    """K_{1,n-1}: every hook round funnels into vertex 0 (maximum fan-in)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return Graph(n, tuple((0, v) for v in range(1, n)))


def path_graph(n: int) -> Graph:
    """The n-vertex path: label propagation needs Θ(log n) doubling rounds."""
    if n < 1:
        raise ValueError("need n >= 1")
    return Graph(n, tuple((v, v + 1) for v in range(n - 1)))


def matching_graph(n: int, seed=None) -> Graph:
    """A random perfect matching on n vertices (n even): the disjoint
    access pattern that keeps connected components EREW-legal."""
    if n < 2 or n % 2:
        raise ValueError("need an even n >= 2")
    rng = as_generator(seed)
    order = rng.permutation(n).tolist()
    pairs = [
        (min(order[i], order[i + 1]), max(order[i], order[i + 1]))
        for i in range(0, n, 2)
    ]
    return Graph(n, tuple(sorted(pairs)))


# ---------------------------------------------------------------------------
# LTS families
# ---------------------------------------------------------------------------

def random_lts(
    n_states: int, n_labels: int, seed=None, *, n_obs: int = 2
) -> LTS:
    """Uniform deterministic LTS: random successors, random observations.

    Random transition structure produces rich bisimulation classes —
    many states collapse, some stay singletons — which is exactly the
    irregular signature-table traffic the workload exists to create.
    """
    if n_states < 1 or n_labels < 1:
        raise ValueError("need n_states >= 1 and n_labels >= 1")
    if not 1 <= n_obs <= n_states + 1:
        raise ValueError("need 1 <= n_obs <= n_states + 1")
    rng = as_generator(seed)
    delta = tuple(
        tuple(int(t) for t in rng.integers(n_states, size=n_labels))
        for _ in range(n_states)
    )
    obs = tuple(int(o) for o in rng.integers(n_obs, size=n_states))
    return LTS(n_states, n_labels, delta, obs)


def cycle_lts(n_states: int, n_labels: int = 1, *, marked: int = 1) -> LTS:
    """A single cycle with *marked* observation-1 states: the refinement
    chain runs Θ(n) rounds on one marked state — the worst case for the
    round loop, mirroring the path graph for connected components."""
    if n_states < 1 or n_labels < 1:
        raise ValueError("need n_states >= 1 and n_labels >= 1")
    if not 0 <= marked <= n_states:
        raise ValueError("need 0 <= marked <= n_states")
    delta = tuple(
        tuple((s + 1) % n_states for _ in range(n_labels))
        for s in range(n_states)
    )
    obs = tuple(1 if s < marked else 0 for s in range(n_states))
    return LTS(n_states, n_labels, delta, obs)

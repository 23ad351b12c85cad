"""Interconnection-network topologies (the paper's §2.3.1, §2.3.4, §2.3.5, §3.1).

Every topology exposes dense integer node ids, neighbor enumeration,
deterministic greedy routing, and exact distances, so the routing engine
can stay topology-agnostic.
"""

from repro.topology.base import RouteStalledError, Topology
from repro.topology.star import StarGraph
from repro.topology.shuffle import DWayShuffle
from repro.topology.hypercube import Hypercube
from repro.topology.mesh import LinearArray, Mesh2D
from repro.topology.leveled import (
    DAryButterflyLeveled,
    LeveledNetwork,
    ShuffleLeveled,
    StarLogicalLeveled,
)
from repro.topology.compiled import (
    CompiledLeveledTopology,
    CompiledMesh2D,
    FlatPaths,
    compact_paths,
    compile_leveled,
    compile_mesh,
    hypercube_paths,
    linear_paths,
    shuffle_unique_paths,
)

__all__ = [
    "CompiledLeveledTopology",
    "CompiledMesh2D",
    "DAryButterflyLeveled",
    "DWayShuffle",
    "FlatPaths",
    "Hypercube",
    "LeveledNetwork",
    "LinearArray",
    "Mesh2D",
    "RouteStalledError",
    "ShuffleLeveled",
    "StarGraph",
    "StarLogicalLeveled",
    "Topology",
    "compact_paths",
    "compile_leveled",
    "compile_mesh",
    "hypercube_paths",
    "linear_paths",
    "shuffle_unique_paths",
]

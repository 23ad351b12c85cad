"""The paper's headline (§1): PRAM emulation in *sub-logarithmic* time.

Ranade's classical result emulates a PRAM step in O(log N) on butterflies
and hypercubes — and log N is also those networks' diameter, so that is
optimal *for them*.  The star graph and the n-way shuffle have diameter
o(log N); Theorem 2.6 shows one PRAM step costs only Õ(diameter) there,
beating every logarithmic-time emulation as machines grow.

This example measures, for growing star graphs and shuffles:

* diameter vs log2(N) (the structural gap), and
* measured emulation time per PRAM step vs the log2(N) yardstick.

Run:  python examples/sublogarithmic_emulation.py
"""

import math

from repro.analysis import star_diameter, star_nodes, sublogarithmic_gap
from repro.emulation import LeveledEmulator
from repro.pram import permutation_step
from repro.topology import ShuffleLeveled, StarLogicalLeveled
from repro.util.tables import Table

print("Structural gap: diameter / log2(N) shrinks for star graphs\n")
t = Table(["n", "N = n!", "diameter", "log2(N)", "diam/log2(N)"])
for n in range(4, 10):
    t.add_row(
        [n, star_nodes(n), star_diameter(n),
         round(math.log2(star_nodes(n)), 1), round(sublogarithmic_gap(n), 3)]
    )
print(t.render())

print("\nMeasured emulation cost per PRAM step (EREW permutation steps)\n")
t2 = Table(["network", "N", "2L (scale)", "steps/PRAM op", "log2(N)"])
for label, net, mode in [
    ("star n=4", StarLogicalLeveled(4), "node"),
    ("star n=5", StarLogicalLeveled(5), "node"),
    ("shuffle n=3", ShuffleLeveled.n_way(3), "coin"),
]:
    m = 8 * net.column_size
    emu = LeveledEmulator(net, address_space=m, intermediate=mode, seed=7)
    step = permutation_step(net.column_size, m, seed=8)
    cost = emu.emulate_step(step)
    t2.add_row(
        [label, net.column_size, emu.scale, cost.total_steps,
         round(math.log2(net.column_size), 1)]
    )
print(t2.render())
print(
    "\nThe per-step cost tracks the (sub-logarithmic) diameter, not log N:"
    "\nas n grows, diameter/log2(N) keeps falling — the paper's point."
)

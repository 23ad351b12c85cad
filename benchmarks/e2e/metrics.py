"""The benchmark's metric declarations: the one place names, units,
directions and bounds are written down.

`run.py` prints exactly these, `BENCHMARK.json` lists exactly these
(`run.py --manifest` writes it from here), and `test_harness.py` holds
the three to each other.

Every metric is labelled with its clock.  **virtual** metrics count
network steps: they are a pure function of `--seed` and compare exactly
between commits.  **host** metrics are seconds of this machine, rescaled
to the benchmark's reference machine speed (see `calibrate.py`), and are
reported as medians over the identical units of one run.
"""

from __future__ import annotations

from dataclasses import dataclass

HOST = "host"
VIRTUAL = "virtual"


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may worsen
    bound: float
    clock: str
    what: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    clock: str
    #: the end-to-end metric this one should move, and where
    moves: str


#: A virtual-clock metric repeats exactly under one seed, so between two
#: commits any difference is a behaviour change (`compare.py` demands
#: equality).  The bound below only has to cover how far the metric
#: moves *between seeds*, which is what the driver's spread check sees.
END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25, HOST,
        "import + topology build/compile + emulator, hash and key-CDF build + warm-up",
    ),
    EndToEnd(
        "requests_per_s", "1/s", "higher", 0.25, HOST,
        "delivered requests per host second of the timed region (the headline)",
    ),
    EndToEnd(
        "cpu_s_per_kreq", "s", "lower", 0.25, HOST,
        "process + children CPU seconds (user+sys) per 1000 delivered requests",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.15, HOST,
        "ru_maxrss of the benchmark process when the run ends",
    ),
    EndToEnd(
        "norm_slowdown", "x", "lower", 0.10, VIRTUAL,
        "mean network steps per emulated PRAM step / emulator.scale",
    ),
    EndToEnd(
        "delivered_per_net_step", "1/step", "higher", 0.25, VIRTUAL,
        "delivered requests / total network steps",
    ),
    EndToEnd(
        "sojourn_steps_mean", "steps", "lower", 0.25, VIRTUAL,
        "mean request arrival-to-reply latency in network steps, past the first quarter of the run",
    ),
)

_RPS = "requests_per_s"

PER_LAYER: tuple[PerLayer, ...] = (
    PerLayer("traffic.generators.stream_s", "s", "lower", HOST,
             f"{_RPS} on every online workload, 2-8% (moving the pre-draw out shows in setup_s)"),
    PerLayer("traffic.generators.requests", "count", "higher", VIRTUAL, "work count for stream_s"),
    PerLayer("traffic.driver.self_s", "s", "lower", HOST,
             f"{_RPS} on mesh_erew_hot, star_crcw_zipf, sharded_tenants (8-9%); ~4% of mesh_crcw_zipf"),
    PerLayer("traffic.driver.epochs", "count", "higher", VIRTUAL, "work count for driver.self_s"),
    PerLayer("traffic.driver.admitted", "count", "higher", VIRTUAL, "work count for driver.self_s"),
    PerLayer("traffic.driver.dropped", "count", "lower", VIRTUAL, "must stay 0: no workload drops"),
    PerLayer("traffic.driver.mean_backlog", "count", "lower", VIRTUAL,
             "sojourn_steps_mean on mesh_erew_hot and sharded_tenants"),
    PerLayer("traffic.driver.final_backlog", "count", "lower", VIRTUAL,
             "sojourn_steps_mean on mesh_erew_hot and sharded_tenants"),
    PerLayer("traffic.sojourn_steps_p50", "steps", "lower", VIRTUAL,
             "median behind sojourn_steps_mean"),
    PerLayer("traffic.sojourn_steps_p99", "steps", "lower", VIRTUAL,
             "tail behind sojourn_steps_mean; large on mesh_erew_hot and sharded_tenants only"),
    PerLayer("traffic.sojourn_samples", "count", "higher", VIRTUAL,
             "sample count of the sojourn statistics"),
    PerLayer("traffic.telemetry.report_s", "s", "lower", HOST,
             f"{_RPS} on sharded_tenants (per-tenant sections)"),
    PerLayer("sharding.self_s", "s", "lower", HOST, f"{_RPS} on sharded_tenants only; 0 elsewhere"),
    PerLayer("sharding.shard_steps", "count", "higher", VIRTUAL, "work count for sharding.self_s"),
    PerLayer("emulation.self_s", "s", "lower", HOST,
             f"{_RPS} on star_crcw_zipf (~13%, per-packet build); 6-9% elsewhere"),
    PerLayer("emulation.steps", "count", "higher", VIRTUAL, "work count for emulation.self_s"),
    PerLayer("emulation.step_ms_p50", "ms", "lower", HOST, f"{_RPS}: host time of one emulated step"),
    PerLayer("emulation.step_ms_tail", "ms", "lower", HOST,
             "host-time tail of one emulated step, at step_tail_pct"),
    PerLayer("emulation.step_tail_pct", "%", "higher", VIRTUAL,
             "highest percentile with >= 10 steps beyond it"),
    PerLayer("emulation.rehashes", "count", "lower", VIRTUAL, "norm_slowdown: retried request phases"),
    PerLayer("emulation.combining_hit_rate", "ratio", "higher", VIRTUAL,
             "norm_slowdown on CRCW workloads; 0 on mesh_erew_hot"),
    PerLayer("emulation.replay.verify_s", "s", "lower", HOST,
             f"{_RPS} on apps_replay only (cell-by-cell memory check); 0 elsewhere"),
    PerLayer("emulation.replay.cells_checked", "count", "higher", VIRTUAL, "work count for verify_s"),
    PerLayer("pram.run_s", "s", "lower", HOST, f"{_RPS} on apps_replay only; 0 elsewhere"),
    PerLayer("pram.steps", "count", "higher", VIRTUAL, "work count for pram.run_s"),
    PerLayer("apps.build_s", "s", "lower", HOST,
             f"{_RPS} on apps_replay only (inputs, oracles, emulator build)"),
    PerLayer("hashing.map_s", "s", "lower", HOST, f"{_RPS}: 1-3% everywhere, expected not to matter"),
    PerLayer("hashing.map_calls", "count", "higher", VIRTUAL, "work count for hashing.map_s"),
    PerLayer("routing.router.self_s", "s", "lower", HOST,
             f"{_RPS} on bfly_small_steps and mesh_erew_hot (8-9%); ~4% of mesh_crcw_zipf"),
    PerLayer("routing.router.calls", "count", "higher", VIRTUAL, "work count for router.self_s"),
    PerLayer("routing.fast_engine.run_s", "s", "lower", HOST,
             f"{_RPS} and cpu_s_per_kreq everywhere: 65-80% of every workload"),
    PerLayer("routing.fast_engine.runs", "count", "higher", VIRTUAL, "work count for run_s"),
    PerLayer("routing.fast_engine.net_steps", "count", "lower", VIRTUAL, "norm_slowdown"),
    PerLayer("routing.fast_engine.packets", "count", "higher", VIRTUAL, "work count for run_s"),
    PerLayer("routing.fast_engine.packet_hops", "count", "higher", VIRTUAL, "work count for run_s"),
    PerLayer("routing.fast_engine.us_per_net_step", "us", "lower", HOST,
             f"{_RPS} on bfly_small_steps and mesh_crcw_zipf (per-step overhead)"),
    PerLayer("routing.fast_engine.ns_per_packet_hop", "ns", "lower", HOST,
             f"{_RPS} on star_crcw_zipf (per-packet work)"),
    PerLayer("routing.fast_engine.arrival_s", "s", "lower", HOST, f"{_RPS}: engine arrival phase"),
    PerLayer("routing.fast_engine.transmission_s", "s", "lower", HOST,
             f"{_RPS}: engine transmission phase"),
    PerLayer("routing.fast_engine.combining_s", "s", "lower", HOST,
             f"{_RPS} on CRCW workloads; must read 0 on mesh_erew_hot"),
    PerLayer("routing.fast_engine.escape_s", "s", "lower", HOST,
             f"{_RPS} on bfly_credit_bursty only; must read 0 elsewhere"),
    PerLayer("routing.fast_engine.batch_constrained_share", "ratio", "higher", VIRTUAL,
             "share of engine runs in batch-constrained; non-zero on bfly_credit_bursty only"),
    PerLayer("routing.fast_engine.credits_stalled", "count", "lower", VIRTUAL,
             "norm_slowdown on bfly_credit_bursty"),
    PerLayer("routing.fast_engine.fallback_runs", "count", "lower", VIRTUAL,
             "must stay 0: runs that left the vectorised engine modes"),
    PerLayer("topology.compiled.compile_s", "s", "lower", HOST,
             "setup_s and peak_rss_mb on star_crcw_zipf"),
    PerLayer("host.raw_requests_per_s", "1/s", "higher", HOST,
             "diagnostic: requests_per_s before rescaling to reference machine speed"),
    PerLayer("host.speed_factor", "ratio", "lower", HOST,
             "diagnostic: calibration-kernel time / its nominal time (1 = reference speed)"),
    PerLayer("obs.trace_overhead_ratio", "ratio", "lower", HOST,
             "diagnostic: traced unit time / untraced unit time"),
    PerLayer("budget.unattributed_share", "ratio", "lower", HOST,
             "diagnostic, must stay <= 0.05: share of the timed region no layer span covers"),
)

END_TO_END_BY_NAME = {m.name: m for m in END_TO_END}
PER_LAYER_BY_NAME = {m.name: m for m in PER_LAYER}

#!/usr/bin/env python3
"""Beyond uniform traffic: pattern-aware model vs. simulation.

The paper's closed-form model assumes uniformly random destinations
(assumption 1), but its Section 2 framework only needs per-channel rates
and routing probabilities — which ``repro.traffic`` derives for any
destination pattern by propagating a :class:`TrafficSpec` through the
fat-tree's routing.  This example drives a 64-processor fat-tree with six
patterns at the same offered load and compares each *pattern-aware*
analytical prediction against simulation (plus the uniform-model
prediction, to show what assuming uniformity would get wrong):

* ``uniform``      — the paper's assumption; all three columns agree;
* ``quad-local``   — all traffic stays under one level-1 switch (2-hop
  paths, no upper-level contention -> the uniform model overestimates);
* ``permutation``  — one fixed partner per source;
* ``transpose``    — swap address-bit halves (silent fixed points);
* ``bit-reversal`` — reverse address bits;
* ``hotspot``      — 20% of traffic to one node: the hot ejection channel
  runs ~13x its fair share, latency explodes, and only the pattern-aware
  model sees it coming.

Run:  python examples/traffic_patterns.py
"""

from __future__ import annotations

import math

from repro import (
    BitReversalSpec,
    ButterflyFatTree,
    ButterflyFatTreeModel,
    HotspotSpec,
    PermutationSpec,
    PoissonTraffic,
    QuadLocalSpec,
    SimConfig,
    TransposeSpec,
    UniformSpec,
    Workload,
    simulate,
)
from repro.traffic import bft_channel_flows, stage_graph_from_flows
from repro.util.tables import format_table


def main() -> None:
    n = 64
    flits = 16
    load = 0.08  # flits/cycle/PE, ~half of uniform saturation
    topo = ButterflyFatTree(n)
    model = ButterflyFatTreeModel(n)
    wl = Workload.from_flit_load(load, flits)
    uniform_prediction = model.latency(wl)

    rows = []
    for spec in (
        UniformSpec(),
        QuadLocalSpec(),
        PermutationSpec(seed=99),
        TransposeSpec(),
        BitReversalSpec(),
        HotspotSpec(fraction=0.2, target=0),
    ):
        # The same spec drives both sides: the analytical per-channel model
        # (the Section 2 stage graph of the traced flows, solved at wl)...
        pattern_model = stage_graph_from_flows(bft_channel_flows(topo, spec), wl)
        predicted = pattern_model.latency()
        # ...and the simulator's traffic source.
        traffic = PoissonTraffic(n, wl, seed=99, spec=spec)
        cfg = SimConfig(
            warmup_cycles=2_000, measure_cycles=8_000, seed=99, drain_factor=2.0
        )
        res = simulate(topo, wl, cfg, traffic=traffic)
        latency = res.latency_mean if res.stable else math.inf
        err = (
            (predicted - latency) / latency
            if math.isfinite(latency) and math.isfinite(predicted)
            else math.nan
        )
        rows.append(
            (
                spec.name,
                predicted,
                latency,
                f"{err:+.1%}" if math.isfinite(err) else "-",
                "yes" if res.stable else "no (saturated)",
            )
        )

    print(
        format_table(
            ["pattern", "pattern model", "sim latency", "err", "steady state"],
            rows,
            title=(
                f"N={n}, {flits}-flit, offered {load} flits/cycle/PE "
                f"(uniform-model prediction: {uniform_prediction:.2f} cycles)"
            ),
        )
    )
    print(
        "\nThe pattern-aware model tracks every scenario the uniform model\n"
        "cannot: quad-local's 2-hop paths, the lighter ejection contention\n"
        "of fixed permutations (transpose/bit-reversal keep their fixed\n"
        "points silent), and the 20% hotspot, whose hot ejection channel\n"
        "runs ~13x its fair share at utilization ~1 — the pattern model\n"
        "reports outright saturation while the simulator limps along at\n"
        "~10x the uniform latency on the very edge of stability.\n"
        "Each pattern's prediction comes from propagating the destination\n"
        "distribution through the fat-tree's routing into per-channel rates\n"
        "(repro.traffic), then solving the paper's Section 2 recursion on\n"
        "the resulting channel graph in one batched pass."
    )


if __name__ == "__main__":
    main()

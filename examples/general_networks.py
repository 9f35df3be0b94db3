#!/usr/bin/env python3
"""Apply the general wormhole model to other networks (Section 2's framework).

The paper's abstract: "These ideas can also be applied to other networks."
This example asks the binary hypercube family for the general channel-graph
model, compares it with the Draper–Ghosh-style prior-art baseline and with
simulation, and prints the Dally k-ary n-cube baseline for reference.  Every
answer is one declarative ``Scenario`` run through the facade.

Run:  python examples/general_networks.py
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import Scenario, run
from repro.util.tables import format_table


def main() -> None:
    flits = 32
    hypercube = Scenario(
        topology="hypercube", num_processors=64, message_flits=flits, sweep_points=0
    )
    sat = run(hypercube).metrics["saturation"]["flit_load"]
    rows = []
    for load in np.linspace(0.1 * sat, 0.85 * sat, 6):
        point = dataclasses.replace(hypercube, flit_load=float(load))
        simulated = run(
            dataclasses.replace(
                point,
                backend="simulate",
                replications=1,
                warmup_cycles=2_000,
                measure_cycles=8_000,
                seed=11,
            )
        ).metrics["point"]
        baseline = run(point.with_backend("baseline")).metrics["point"]
        rows.append(
            (
                float(load),
                simulated["latency"],
                simulated["model_prediction"],
                baseline["latency"],
            )
        )
    print(
        format_table(
            ["load (fl/cyc/PE)", "simulation", "general model", "DG-style baseline"],
            rows,
            title=f"64-node hypercube, {flits}-flit messages",
        )
    )
    print(
        "\nThe general model (with the paper's blocking correction) stays\n"
        "within a few percent of simulation; the uncorrected prior-art\n"
        "recursion charges every hop the full queueing delay and drifts\n"
        "upward, eventually predicting saturation where none exists.\n"
    )

    loads = (0.01, 0.05, 0.1, 0.2)
    torus = run(
        Scenario(
            topology="kary-ncube",
            num_processors=64,
            radix=8,
            message_flits=flits,
            flit_loads=loads,
        )
    ).metrics
    params = ", ".join(f"{k}={v}" for k, v in torus["family"]["params"].items())
    print(f"{torus['family']['name']} ({params}): {torus['variant']} model")
    print(
        format_table(
            ["load (fl/cyc/PE)", "Dally model latency"],
            list(zip(loads, torus["curve"]["latencies"])),
            title="Dally baseline on the unidirectional 8-ary 2-cube",
        )
    )
    print(
        "\n(Wormhole tori need virtual channels for deadlock freedom — one of\n"
        "the fat-tree's selling points is that it needs none; see\n"
        "repro.baselines.dally for the simulation caveat.)"
    )


if __name__ == "__main__":
    main()

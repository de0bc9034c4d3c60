"""Microbenchmark of the policy network's learning passes.

    python3 tools/bench_nn.py [--repeats N]

Times `ActorCritic.forward_batch` and `backward_batch` on fixed-seed
inputs for two cases: the reduced net on 512 rows with empty graphs, the
minibatch of the `ppo-desk` workload; and the full `PolicyConfig()` on 256
rows with 3-node graphs. Each pass runs N times after one warm-up call; a
backward is timed after its own untimed forward, on freshly zeroed grads.
Prints one JSON object: the host block of `perfbench/run.py` and, per
case, the median and quartiles of each pass in raw ms per call. The host
speed factor of `perfbench/hostspeed.py` (below 1 on a host slower than
its reference) is measured after each call pair; the output gives its
median and each pass's median of ms times that factor, which reads as ms
on the reference host. BLAS is pinned
to one thread before numpy loads, as in `perfbench/run.py`. The package is
imported from this tree's `src`, so running the script in two checkouts
compares them.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from statistics import median, quantiles
from time import perf_counter

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

# name: (reduced config?, rows, nodes per graph)
CASES = {
    "reduced_512x0": (True, 512, 0),
    "full_256x3": (False, 256, 3),
}


def load_perfbench_run():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def summary(ms: list[float], speed: list[float]) -> dict:
    if len(ms) == 1:
        q1 = q3 = ms[0]
    else:
        q1, _, q3 = quantiles(ms, n=4, method="inclusive")
    return {"median_ms": median(ms), "q1_ms": q1, "q3_ms": q3,
            "scaled_median_ms": median(t * f for t, f in zip(ms, speed))}


def time_case(reduced: bool, rows: int, nodes: int, repeats: int) -> dict:
    import hostspeed
    import numpy as np

    from multinav.lidar import MAX_RANGE
    from multinav.observations import NeighborGraph, ObservationBundle
    from multinav.policy import ActorCritic, PolicyConfig, batch_obs

    cfg = PolicyConfig.reduced() if reduced else PolicyConfig()
    net = ActorCritic(cfg, seed=0)
    rng = np.random.default_rng(0)

    def bundle():
        o_z = rng.uniform(0.1, 1.0, (3, cfg.n_beams)) * MAX_RANGE
        extras = rng.uniform(-1.0, 1.0, cfg.extras_dim)
        graph = NeighborGraph(
            nodes=rng.uniform(-1.0, 1.0, (nodes, cfg.node_features)))
        return ObservationBundle(o_z=o_z, o_g=extras[:2], o_v=extras[2:4],
                                 o_gp=extras[4:], o_c=graph, world_diameter=1.0)

    batch = batch_obs([bundle() for _ in range(rows)])
    gmean, gstd = rng.normal(size=(2, rows, 2))
    gvalue = rng.normal(size=rows)
    forward, backward, speed = [], [], []
    for i in range(repeats + 1):
        t0 = perf_counter()
        net.forward_batch(batch)
        t1 = perf_counter()
        net.zero_grad()
        t2 = perf_counter()
        net.backward_batch(gmean, gstd, gvalue)
        t3 = perf_counter()
        if i:                                   # the first call warms up
            forward.append((t1 - t0) * 1e3)
            backward.append((t3 - t2) * 1e3)
            speed.append(hostspeed.REFERENCE_S / hostspeed.kernel())
    return {"config": "reduced" if reduced else "full", "rows": rows,
            "nodes": nodes, "repeats": repeats,
            "host_speed_factor": median(speed),
            "forward_batch": summary(forward, speed),
            "backward_batch": summary(backward, speed)}


def main(perfbench_run, argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeats", type=int, default=50,
                   help="timed calls per pass and case (default 50)")
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    doc = {"host": perfbench_run.host_block(),
           "cases": {name: time_case(*case, args.repeats)
                     for name, case in CASES.items()}}
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    perfbench_run = load_perfbench_run()
    perfbench_run.pin_blas()
    perfbench_run.use_checkout_source()
    sys.exit(main(perfbench_run))

"""Span tracer for the traced run.

The tracer replaces each public function of the program at the name its
caller looks it up by (a module global such as `multinav.tracker.
icp_translation`, or a method on its class such as `multinav.sim.World.step`)
with a wrapper that records a span: name, start, end, parent and the phase
the benchmark was in. Spans and counters stay in memory until the run writes
them out. Self time is a span's duration minus the time its child spans
cover. `install` and `uninstall` swap the wrappers in and out, so untraced
code runs the program's own functions with no wrapper at all.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

# (module, attribute path) for every call site the benchmark traces.
TARGETS = [
    ("multinav.scenarios", "generate"),
    ("multinav.scenarios", "rasterize"),
    ("multinav.scenarios", "astar"),
    ("multinav.planner", "OccupancyGrid.occupied_near"),
    ("multinav.rollout", "generate"),
    ("multinav.rollout", "rasterize"),
    ("multinav.rollout", "astar"),
    ("multinav.rollout", "running_target"),
    ("multinav.rollout", "raycast"),
    ("multinav.rollout", "apply_lidar_noise"),
    ("multinav.rollout", "build_observation"),
    ("multinav.rollout", "normalize"),
    ("multinav.rollout", "reward_terms"),
    ("multinav.rollout", "NavEnv.reset"),
    ("multinav.rollout", "NavEnv.step"),
    ("multinav.rollout", "NavEnv.observations"),
    ("multinav.rollout", "NavEnv.noisy_neighbor_states"),
    ("multinav.sim", "World.step"),
    ("multinav.tracker", "Tracker.update"),
    ("multinav.tracker", "cluster_scan"),
    ("multinav.tracker", "associate"),
    ("multinav.tracker", "icp_translation"),
    ("multinav.bench", "PolicyController.act"),
    ("multinav.bench", "OrcaController.act"),
    ("multinav.bench", "orca_velocity"),
    ("multinav.bench", "nh_track"),
    ("multinav.bench", "batch_obs"),
    ("multinav.policy", "batch_obs"),
    ("multinav.policy", "ActorCritic.forward_batch"),
    ("multinav.policy", "ActorCritic.backward_batch"),
    ("multinav.policy", "ActorCritic.forward_one"),
    ("multinav.ppo", "ppo_update"),
    ("multinav.ppo", "compute_gae"),
    ("multinav.ppo", "evaluate_policy"),
    ("multinav.ppo", "batch_obs"),
    ("multinav.nn", "Adam.step"),
]


def span_name(fn) -> str:
    """Layer-qualified name: defining module without the package, then the
    qualified function name, e.g. `planner.OccupancyGrid.occupied_near`."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


# Counters recorded at span boundaries: span name -> fn(args, result) giving
# (counter, amount) pairs.
def _count_cluster_scan(args, result):
    scan = args[0]
    margin = args[3] if len(args) > 3 else 1e-6
    yield "clusters", len(result)
    yield "hit_beams", int((scan.ranges < scan.max_range - margin).sum())


def _count_tracker_update(args, result):
    live = new = 0
    for t in result:
        if t.classification.value == "dynamic" and t.misses == 0:
            live += 1
        if t.age == 1:                 # spawned by this update
            new += 1
    yield "live_tracks", live
    yield "new_tracks", new


COUNTERS = {
    "tracker.cluster_scan": _count_cluster_scan,
    "tracker.Tracker.update": _count_tracker_update,
    "observations.build_observation":
        lambda args, result: [("nodes", result.o_c.node_count)],
    "policy.ActorCritic.forward_batch":
        lambda args, result: [("rows", len(args[1].z3))],
    "orca.orca_velocity":
        lambda args, result: [("fallbacks", 0 if result[1] else 1)],
}


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.spans: list = []            # (name, phase, start, end, parent)
        self.calls = defaultdict(int)    # (phase, name) -> calls
        self.total = defaultdict(float)  # (phase, name) -> seconds
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)   # (phase, counter) -> amount
        self._stack: list = []           # [child seconds, span index]
        self._saved: list = []           # (owner, attribute, original)
        self.origin = perf_counter()

    # ---- patching ----------------------------------------------------------------

    @staticmethod
    def _resolve(module: str, path: str):
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for p in parents:
            owner = getattr(owner, p)
        return owner, attr

    def install(self) -> None:
        if self._saved:
            return
        for module, path in TARGETS:
            owner, attr = self._resolve(module, path)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _wrap(self, fn):
        name = span_name(getattr(fn, "__wrapped__", fn))
        count = COUNTERS.get(name)
        spans, stack = self.spans, self._stack
        calls, total, self_time = self.calls, self.total, self.self_time
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][1] if stack else -1
            frame = [0.0, index]
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                key = (tracer.phase, name)
                spans[index] = (name, tracer.phase, start, end, parent)
                calls[key] += 1
                total[key] += duration
                self_time[key] += duration - frame[0]
            if count is not None:
                for counter, amount in count(args, result):
                    tracer.counters[(tracer.phase, counter)] += amount
            return result

        return traced

    # ---- reading -----------------------------------------------------------------

    def n(self, phase: str, name: str) -> int:
        return self.calls.get((phase, name), 0)

    def seconds(self, phase: str, name: str, own: bool = False) -> float:
        table = self.self_time if own else self.total
        return table.get((phase, name), 0.0)

    def counter(self, phase: str, name: str) -> float:
        return self.counters.get((phase, name), 0.0)

    def dump(self, path: str) -> None:
        """Write every span and counter; times are seconds since the tracer
        was created."""
        names = sorted({s[0] for s in self.spans if s is not None})
        ids = {n: k for k, n in enumerate(names)}
        doc = {
            "span_fields": ["name", "phase", "start_s", "end_s", "parent"],
            "names": names,
            "spans": [[ids[s[0]], s[1], round(s[2] - self.origin, 7),
                       round(s[3] - self.origin, 7), s[4]]
                      for s in self.spans if s is not None],
            "counters": {f"{p}:{c}": v for (p, c), v in self.counters.items()},
        }
        with open(path, "w") as f:
            json.dump(doc, f)

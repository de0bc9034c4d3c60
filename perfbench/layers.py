"""Per-layer metrics of the traced run.

Every metric is read from the spans and counters a `Tracer` recorded, plus
the benchmark's own inspection of tracker state. The normalizing bases:

- per step: one `NavEnv.step` call, i.e. one tick of one world;
- per trial: one `NavEnv.reset` call; per agent: per trial and robot;
- per call: one call of the named function;
- per round: one traced round of the workload.

Set-up work (`generate`, `NavEnv.reset`) is read from the set-up phase and
stepping work from the stepping phase; on `ppo-desk` both are the single
training phase. Times are scaled to the reference host by the run's median
host-speed factor. A layer that does not run on a workload reads 0.
"""

from __future__ import annotations

# name, unit, better
PER_LAYER = [
    ("scenarios.generate.ms", "ms/call", "lower"),
    ("planner.rasterize.calls_per_trial", "calls/trial", "lower"),
    ("planner.astar.calls_per_agent", "calls/agent", "lower"),
    ("planner.astar.ms_per_trial", "ms/trial", "lower"),
    ("planner.occupied_near.calls_per_step", "calls/step", "lower"),
    ("planner.occupied_near.ms_per_step", "ms/step", "lower"),
    ("planner.running_target.ms_per_step", "ms/step", "lower"),
    ("lidar.raycast.ms_per_step", "ms/step", "lower"),
    ("lidar.apply_lidar_noise.ms_per_step", "ms/step", "lower"),
    ("lidar.hit_beams_per_scan", "beams/scan", "lower"),
    ("tracker.Tracker.update.ms_per_step", "ms/step", "lower"),
    ("tracker.cluster_scan.ms_per_step", "ms/step", "lower"),
    ("tracker.cluster_scan.clusters_per_scan", "clusters/scan", "lower"),
    ("tracker.associate.self_ms_per_step", "ms/step", "lower"),
    ("tracker.icp_translation.calls_per_step", "calls/step", "lower"),
    ("tracker.icp_translation.ms_per_step", "ms/step", "lower"),
    ("tracker.live_tracks_per_observer", "tracks/observer", "lower"),
    ("tracker.new_tracks_per_step", "tracks/step", "lower"),
    ("tracker.true_dynamic_share", "share", "higher"),
    ("observations.build_observation.ms_per_step", "ms/step", "lower"),
    ("observations.normalize.ms_per_step", "ms/step", "lower"),
    ("observations.nodes_per_obs", "nodes/obs", "lower"),
    ("policy.batch_obs.ms_per_call", "ms/call", "lower"),
    ("policy.ActorCritic.forward_batch.ms_per_call", "ms/call", "lower"),
    ("policy.ActorCritic.forward_batch.rows_per_call", "rows/call", "higher"),
    ("policy.ActorCritic.backward_batch.ms_per_call", "ms/call", "lower"),
    ("policy.ActorCritic.forward_one.calls", "calls/round", "lower"),
    ("nn.Adam.step.ms_per_call", "ms/call", "lower"),
    ("orca.orca_velocity.ms_per_call", "ms/call", "lower"),
    ("orca.orca_velocity.calls_per_step", "calls/step", "lower"),
    ("orca.orca_velocity.fallback_share", "share", "lower"),
    ("orca.nh_track.ms_per_step", "ms/step", "lower"),
    ("rollout.NavEnv.reset.ms", "ms/call", "lower"),
    ("rollout.NavEnv.step.self_ms_per_step", "ms/step", "lower"),
    ("rollout.NavEnv.observations.ms_per_step", "ms/step", "lower"),
    ("rollout.NavEnv.noisy_neighbor_states.ms_per_step", "ms/step", "lower"),
    ("sim.World.step.ms_per_step", "ms/step", "lower"),
    ("reward.reward_terms.ms_per_step", "ms/step", "lower"),
    ("bench.PolicyController.act.ms_per_step", "ms/step", "lower"),
    ("bench.OrcaController.act.ms_per_step", "ms/step", "lower"),
    ("ppo.ppo_update.s_per_call", "s/call", "lower"),
    ("ppo.ppo_update.minibatches_per_call", "minibatches/call", "lower"),
    ("ppo.compute_gae.ms_per_update", "ms/update", "lower"),
    ("ppo.evaluate_policy.s_per_call", "s/call", "lower"),
    ("trace.step_ms_untraced", "ms", "lower"),
    ("trace.step_ms_traced", "ms", "lower"),
    ("trace.overhead_share", "share", "lower"),
]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tr, trial_phase: str, step_phase: str, agents_per_trial: int,
              traced_rounds: int, truth: tuple[int, int],
              time_scale: float) -> dict[str, float]:
    """Per-layer values from one tracer. `truth` is the benchmark's own
    (on another robot, all) count of live dynamic tracks; `time_scale`
    converts the run's wall time to reference-host time."""
    T, S = trial_phase, step_phase
    trials = tr.n(T, "rollout.NavEnv.reset")
    steps = tr.n(S, "rollout.NavEnv.step")
    updates = tr.n(S, "ppo.ppo_update")

    def sec(phase, name, own=False):
        return time_scale * tr.seconds(phase, name, own)

    def ms_step(name, own=False):
        return 1000.0 * _ratio(sec(S, name, own), steps)

    def ms_call(phase, name):
        return 1000.0 * _ratio(sec(phase, name), tr.n(phase, name))

    def per_step_calls(name):
        return _ratio(tr.n(S, name), steps)

    # spans carry the defining module's name, so `policy.batch_obs` covers
    # its call sites in bench, policy and ppo alike
    return {
        "scenarios.generate.ms": ms_call(T, "scenarios.generate"),
        "planner.rasterize.calls_per_trial":
            _ratio(tr.n(T, "planner.rasterize"), trials),
        "planner.astar.calls_per_agent":
            _ratio(tr.n(T, "planner.astar"), trials * agents_per_trial),
        "planner.astar.ms_per_trial":
            1000.0 * _ratio(sec(T, "planner.astar"), trials),
        "planner.occupied_near.calls_per_step":
            per_step_calls("planner.OccupancyGrid.occupied_near"),
        "planner.occupied_near.ms_per_step":
            ms_step("planner.OccupancyGrid.occupied_near"),
        "planner.running_target.ms_per_step": ms_step("planner.running_target"),
        "lidar.raycast.ms_per_step": ms_step("lidar.raycast"),
        "lidar.apply_lidar_noise.ms_per_step": ms_step("lidar.apply_lidar_noise"),
        "lidar.hit_beams_per_scan": _ratio(tr.counter(S, "hit_beams"),
                                           tr.n(S, "tracker.cluster_scan")),
        "tracker.Tracker.update.ms_per_step": ms_step("tracker.Tracker.update"),
        "tracker.cluster_scan.ms_per_step": ms_step("tracker.cluster_scan"),
        "tracker.cluster_scan.clusters_per_scan":
            _ratio(tr.counter(S, "clusters"), tr.n(S, "tracker.cluster_scan")),
        "tracker.associate.self_ms_per_step":
            ms_step("tracker.associate", own=True),
        "tracker.icp_translation.calls_per_step":
            per_step_calls("tracker.icp_translation"),
        "tracker.icp_translation.ms_per_step": ms_step("tracker.icp_translation"),
        "tracker.live_tracks_per_observer":
            _ratio(tr.counter(S, "live_tracks"), tr.n(S, "tracker.Tracker.update")),
        "tracker.new_tracks_per_step": _ratio(tr.counter(S, "new_tracks"), steps),
        "tracker.true_dynamic_share": _ratio(*truth),
        "observations.build_observation.ms_per_step":
            ms_step("observations.build_observation"),
        "observations.normalize.ms_per_step": ms_step("observations.normalize"),
        "observations.nodes_per_obs":
            _ratio(tr.counter(S, "nodes"), tr.n(S, "observations.build_observation")),
        "policy.batch_obs.ms_per_call": ms_call(S, "policy.batch_obs"),
        "policy.ActorCritic.forward_batch.ms_per_call":
            ms_call(S, "policy.ActorCritic.forward_batch"),
        "policy.ActorCritic.forward_batch.rows_per_call":
            _ratio(tr.counter(S, "rows"), tr.n(S, "policy.ActorCritic.forward_batch")),
        "policy.ActorCritic.backward_batch.ms_per_call":
            ms_call(S, "policy.ActorCritic.backward_batch"),
        "policy.ActorCritic.forward_one.calls":
            _ratio(tr.n(S, "policy.ActorCritic.forward_one"), traced_rounds),
        "nn.Adam.step.ms_per_call": ms_call(S, "nn.Adam.step"),
        "orca.orca_velocity.ms_per_call": ms_call(S, "orca.orca_velocity"),
        "orca.orca_velocity.calls_per_step": per_step_calls("orca.orca_velocity"),
        "orca.orca_velocity.fallback_share":
            _ratio(tr.counter(S, "fallbacks"), tr.n(S, "orca.orca_velocity")),
        "orca.nh_track.ms_per_step": ms_step("orca.nh_track"),
        "rollout.NavEnv.reset.ms": ms_call(T, "rollout.NavEnv.reset"),
        "rollout.NavEnv.step.self_ms_per_step":
            ms_step("rollout.NavEnv.step", own=True),
        "rollout.NavEnv.observations.ms_per_step":
            ms_step("rollout.NavEnv.observations"),
        "rollout.NavEnv.noisy_neighbor_states.ms_per_step":
            ms_step("rollout.NavEnv.noisy_neighbor_states"),
        "sim.World.step.ms_per_step": ms_step("sim.World.step"),
        "reward.reward_terms.ms_per_step": ms_step("reward.reward_terms"),
        "bench.PolicyController.act.ms_per_step":
            ms_step("bench.PolicyController.act"),
        "bench.OrcaController.act.ms_per_step": ms_step("bench.OrcaController.act"),
        "ppo.ppo_update.s_per_call": _ratio(sec(S, "ppo.ppo_update"), updates),
        "ppo.ppo_update.minibatches_per_call":
            _ratio(tr.n(S, "policy.ActorCritic.backward_batch"), updates),
        "ppo.compute_gae.ms_per_update":
            1000.0 * _ratio(sec(S, "ppo.compute_gae"), updates),
        "ppo.evaluate_policy.s_per_call": _ratio(sec(S, "ppo.evaluate_policy"),
                                                 tr.n(S, "ppo.evaluate_policy")),
    }

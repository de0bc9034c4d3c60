"""Run the ORCA baseline on the antipodal circle and render the trajectories.

Twelve robots start on a ring with goals directly opposite, so every path
crosses the center. ORCA resolves the melee reciprocally; the trial log is
rendered to an SVG you can open in a browser.
"""

from multinav.bench import LogFlags, run_trials, replay_svg
from multinav.scenarios import Kind, ScenarioSpec

spec = ScenarioSpec(kind=Kind.CIRCLE, scale=10.0, num_agents=12, rng_seed=0)
metrics = run_trials(spec, "orca", trials=1, noise_on=True, base_seed=0,
                     log_path="/tmp/orca_circle.jsonl",
                     log_flags=LogFlags(paths=True))

print(f"success rate      {metrics.success_rate:.0%}")
print(f"stuck / collision {metrics.stuck_rate:.0%} / {metrics.collision_rate:.0%}")
print(f"extra time        {metrics.extra_time_seconds:.2f} s "
      f"({metrics.extra_time_ratio:.1%} over the lower bound)")
print(f"average speed     {metrics.average_speed:.2f} m/s")

replay_svg("/tmp/orca_circle.jsonl", "/tmp/orca_circle.svg")
print("wrote /tmp/orca_circle.svg")

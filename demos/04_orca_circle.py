"""Run the ORCA baseline on the antipodal circle and render the trajectories.

Twelve robots start on a ring with goals directly opposite, so every path
crosses the center. ORCA resolves the melee reciprocally; the trial log is
rendered to an SVG you can open in a browser.

    python3 demos/04_orca_circle.py [OUT_DIR]

writes orca_circle.jsonl and orca_circle.svg to OUT_DIR (default: the
current directory).
"""

import sys
from pathlib import Path

from multinav.bench import LogFlags, run_trials, replay_svg
from multinav.scenarios import Kind, ScenarioSpec

out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else ".")
out_dir.mkdir(parents=True, exist_ok=True)
log, svg = out_dir / "orca_circle.jsonl", out_dir / "orca_circle.svg"

spec = ScenarioSpec(kind=Kind.CIRCLE, scale=10.0, num_agents=12, rng_seed=0)
metrics = run_trials(spec, "orca", trials=1, noise_on=True, base_seed=0,
                     log_path=str(log), log_flags=LogFlags(paths=True))

print(f"success rate      {metrics.success_rate:.0%}")
print(f"stuck / collision {metrics.stuck_rate:.0%} / {metrics.collision_rate:.0%}")
print(f"extra time        {metrics.extra_time_seconds:.2f} s "
      f"({metrics.extra_time_ratio:.1%} over the lower bound)")
print(f"average speed     {metrics.average_speed:.2f} m/s")

replay_svg(str(log), str(svg))
print(f"wrote {svg}")

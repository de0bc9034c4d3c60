"""Benchmark the doorway bottleneck: reciprocal avoidance vs. blind driving.

Runs both reactive baselines through the 15 m doorway evaluation cell with
the sensor-noise protocol on, and prints the four benchmark metrics side by
side. The straight controller piles into the jamb; ORCA threads some robots
through but collides or deadlocks under pressure.

    python3 demos/06_benchmark_doorway.py [OUT_DIR]

writes doorway_metrics.csv to OUT_DIR (default: the current directory).
"""

import sys
from pathlib import Path

from multinav.bench import report, run_trials
from multinav.scenarios import Kind, eval_suite

out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else ".")
out_dir.mkdir(parents=True, exist_ok=True)

spec = eval_suite(Kind.DOORWAY, 5, rng_seed=0)
rows = []
for controller in ("straight", "orca"):
    m = run_trials(spec, controller, trials=10, noise_on=True, base_seed=0)
    rows.append(m)
    print(f"{controller:9s} success {m.success_rate:5.0%}  "
          f"stuck {m.stuck_rate:5.0%}  collision {m.collision_rate:5.0%}  "
          f"speed {m.average_speed:.2f} m/s")

print()
csv = out_dir / "doorway_metrics.csv"
print(report(rows, str(csv)))
print(f"wrote {csv}")

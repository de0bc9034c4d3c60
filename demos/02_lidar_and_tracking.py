"""Scan a moving robot with the simulated LiDAR and track it.

One observer stands still while a second robot drives past. Each frame the
observer raycasts, clusters the returns, runs the static/dynamic split and
prints the tracked velocity next to the ground truth.
"""

import numpy as np

from multinav import Action, Tracker, World, WorldConfig, rasterize, raycast
from multinav.planner import NearTable
from multinav.tracker import STATIC_MARGIN

config = WorldConfig(bounds=(-8, -8, 8, 8))
world = World(config, starts=[(0.0, 0.0, 0.0), (-1.5, 1.5, 0.0)],
              goals=[(7.0, 7.0), (3.0, 1.5)])
static_near = NearTable(rasterize(config), STATIC_MARGIN)  # one per grid
tracker = Tracker()

print(f"{'t':>4} {'hits':>5} {'tracked v':>16} {'true v':>14} {'err':>6}")
for step in range(30):
    scan = raycast(world, 0)  # apply_lidar_noise(scan, rng) adds the noise
    tracker.update(scan, (0.0, 0.0, 0.0), static_near, config.dt)
    world.step([Action(0, 0), Action(0.6, 0.0)])
    dyn = tracker.dynamic_tracks()
    if dyn and step % 3 == 0:
        v = dyn[0].velocity_estimate
        true = np.array([0.6, 0.0])
        hits = int((scan.ranges < scan.max_range - 1e-6).sum())
        print(f"{world.sim_time:4.1f} {hits:5d} "
              f"[{v[0]:6.3f} {v[1]:6.3f}] [{true[0]:5.2f} {true[1]:5.2f}] "
              f"{np.hypot(*(v - true)):6.3f}")

print("track ids seen:", sorted({t.id for t in tracker.tracks}))

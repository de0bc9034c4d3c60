"""Drive two disc robots through an obstacle field and watch the world state.

Shows the core simulation loop: build a WorldConfig, spawn robots, step with
clamped (v, w) commands, and read back positions, clearances and statuses.
"""

import numpy as np

from multinav import Action, Circle, World, WorldConfig

config = WorldConfig(
    dt=0.1,
    bounds=(-6, -6, 6, 6),
    circles=[Circle(0.0, 1.0, 0.5)],
    max_episode_time=30.0,
)
# one (x, y, heading) start and one (x, y) goal per robot
world = World(config, starts=[(-4.0, 0.0, 0.0), (4.0, -0.8, np.pi)],
              goals=[(4.0, 0.0), (-4.0, -0.8)])

print("config JSON:", config.to_json()[:120], "...")
print(f"{'t':>5} {'x0':>7} {'y0':>7} {'x1':>7} {'y1':>7} {'d_min':>7} statuses")

while not world.all_done and world.step_count < 300:
    # steer each robot at its goal with a bearing-proportional turn rate
    actions = []
    for r in world.robots:
        to_goal = r.goal - r.position
        bearing = np.arctan2(to_goal[1], to_goal[0]) - r.heading
        bearing = np.arctan2(np.sin(bearing), np.cos(bearing))
        actions.append(Action(v=1.0, w=float(np.clip(2.0 * bearing, -1, 1))))
    report = world.step(actions)
    if world.step_count % 10 == 0:
        p0, p1 = world.robots[0].position, world.robots[1].position
        print(f"{world.sim_time:5.1f} {p0[0]:7.2f} {p0[1]:7.2f} "
              f"{p1[0]:7.2f} {p1[1]:7.2f} {report.d_min.min():7.2f} "
              f"{[s.value for s in report.statuses]}")

print("final statuses:", [r.status.value for r in world.robots])

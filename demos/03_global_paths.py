"""Plan a global path through a doorway and follow its running target.

Rasterizes the static map with radius inflation, runs A*, then walks an
agent along the path printing the running target point it would be handed
at each position. Exports the grid as a PGM image for inspection.
"""

import numpy as np

from multinav import Wall, WorldConfig, astar, rasterize, running_target
from multinav.planner import save_pgm

config = WorldConfig(
    bounds=(-5.5, -2.5, 5.5, 2.5),
    walls=[Wall(-5, -2, 5, -2), Wall(-5, 2, 5, 2),
           Wall(-5, -2, -5, 2), Wall(5, -2, 5, 2),
           Wall(0, -2, 0, -0.5), Wall(0, 0.5, 0, 2)],
)
grid = rasterize(config)
print(f"grid {grid.shape[0]}x{grid.shape[1]} cells, "
      f"{int(grid.cells.sum())} occupied (inflated by {grid.inflation_radius} m)")

path = astar(grid, (-4.0, -1.0), (4.0, 1.0))
print(f"path: {len(path.waypoints)} waypoints, {path.length:.2f} m")

save_pgm(grid, "/tmp/doorway_map.pgm")
print("wrote /tmp/doorway_map.pgm (+ .json metadata)")

print(f"\n{'agent at':>16} {'target idx':>10} {'target at':>16} {'path dir':>9}")
for frac in (0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0):
    idx = int(frac * (len(path.waypoints) - 1))
    pos = path.waypoints[idx]
    tp = running_target(path, pos, horizon=5)
    print(f"({pos[0]:6.2f},{pos[1]:6.2f}) {tp.index:10d} "
          f"({tp.position[0]:6.2f},{tp.position[1]:6.2f}) "
          f"{np.degrees(tp.path_direction):8.1f}°")

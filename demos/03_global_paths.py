"""Plan a global path through a doorway and follow its running target.

Rasterizes the static map with radius inflation, runs A*, then walks an
agent along the path printing the running target point it would be handed
at each position. Exports the grid as a PGM image for inspection.

    python3 demos/03_global_paths.py [OUT_DIR]

writes doorway_map.pgm and its .json metadata to OUT_DIR (default: the
current directory).
"""

import sys
from pathlib import Path

import numpy as np

from multinav import Wall, WorldConfig, astar, rasterize, running_target
from multinav.planner import save_pgm

out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else ".")
out_dir.mkdir(parents=True, exist_ok=True)

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

pgm = out_dir / "doorway_map.pgm"
save_pgm(grid, str(pgm))
print(f"wrote {pgm} (+ .json metadata)")

print(f"\n{'agent at':>16} {'target idx':>10} {'target at':>16} {'path dir':>9}")
for frac in (0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0):
    idx = int(frac * (len(path.waypoints) - 1))
    pos = path.waypoints[idx]
    tp = running_target(path, pos, horizon=5)
    print(f"({pos[0]:6.2f},{pos[1]:6.2f}) {tp.index:10d} "
          f"({tp.position[0]:6.2f},{tp.position[1]:6.2f}) "
          f"{np.degrees(tp.path_direction):8.1f}°")

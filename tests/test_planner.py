import heapq
import math

import numpy as np
import pytest

from multinav.geometry import Circle, Wall
from multinav.planner import (EmptyPath, GlobalPath, InvalidEndpoint,
                              OccupancyGrid, Unreachable, astar,
                              path_cost_counts, rasterize, running_target,
                              save_pgm)
from multinav.scenarios import Kind, eval_suite, generate
from multinav.sim import WorldConfig

SQRT2 = math.sqrt(2.0)
MOVES = [(1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
         (1, 1, SQRT2), (1, -1, SQRT2), (-1, 1, SQRT2), (-1, -1, SQRT2)]


def reference_astar(grid, start, goal):
    """The A* that `astar` replaced, over (ix, iy) tuples with dict and set
    state and a bounds test per move: same heuristic, step costs and heap
    entries, so both must return the same bytes."""
    s = grid.world_to_cell(*start)
    g = grid.world_to_cell(*goal)
    for name, c in (("start", s), ("goal", g)):
        if not grid.in_bounds(*c) or grid.cells[c]:
            raise InvalidEndpoint(f"{name} cell {c} is occupied or out of bounds")
    if s == g:
        return GlobalPath.from_waypoints([grid.cell_center(*s)])
    res = grid.resolution
    gx, gy = grid.cell_center(*g)

    def heuristic(c):
        px, py = grid.cell_center(*c)
        return math.hypot(px - gx, py - gy)

    cells = grid.cells
    nx, ny = cells.shape
    dist = {s: 0.0}
    parent = {}
    counter = 0
    open_heap = [(heuristic(s), counter, s)]
    closed = set()
    while open_heap:
        _, _, cur = heapq.heappop(open_heap)
        if cur in closed:
            continue
        if cur == g:
            break
        closed.add(cur)
        cx, cy = cur
        base = dist[cur]
        for dx, dy, step in MOVES:
            vx, vy = cx + dx, cy + dy
            if not (0 <= vx < nx and 0 <= vy < ny) or cells[vx, vy]:
                continue
            nd = base + step * res
            v = (vx, vy)
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                parent[v] = cur
                counter += 1
                heapq.heappush(open_heap, (nd + heuristic(v), counter, v))
    if g not in dist:
        raise Unreachable(f"no path from {s} to {g}")
    chain = [g]
    while chain[-1] != s:
        chain.append(parent[chain[-1]])
    chain.reverse()
    return GlobalPath.from_waypoints([grid.cell_center(*c) for c in chain])


def plan_outcome(planner, grid, start, goal):
    """Waypoint and length bytes of a plan, or the exception's type and
    message."""
    try:
        path = planner(grid, start, goal)
    except (InvalidEndpoint, Unreachable) as e:
        return type(e), str(e)
    return path.waypoints.tobytes(), path.cumulative_length.tobytes()


def dijkstra_cost(cells, start, goal, resolution):
    """Oracle: full Dijkstra over the same 8-connected grid, returning the
    optimal (straight, diagonal) step counts."""
    nx, ny = cells.shape
    moves = [(1, 0, 1, 0), (-1, 0, 1, 0), (0, 1, 1, 0), (0, -1, 1, 0),
             (1, 1, 0, 1), (1, -1, 0, 1), (-1, 1, 0, 1), (-1, -1, 0, 1)]
    dist = {start: (0, 0)}
    heap = [(0.0, 0, start)]
    seen = set()
    counter = 0
    while heap:
        d, _, cur = heapq.heappop(heap)
        if cur in seen:
            continue
        seen.add(cur)
        a, b = dist[cur]
        for dx, dy, ds, dd in moves:
            v = (cur[0] + dx, cur[1] + dy)
            if not (0 <= v[0] < nx and 0 <= v[1] < ny) or cells[v]:
                continue
            na, nb = a + ds, b + dd
            nd = (na + nb * SQRT2) * resolution
            if v not in dist or nd < (dist[v][0] + dist[v][1] * SQRT2) * resolution - 1e-12:
                dist[v] = (na, nb)
                counter += 1
                heapq.heappush(heap, (nd, counter, v))
    return dist.get(goal)


def flood_fill_regions(cells):
    """Oracle: count 4-connected free regions."""
    nx, ny = cells.shape
    seen = np.zeros_like(cells, dtype=bool)
    regions = 0
    for sx in range(nx):
        for sy in range(ny):
            if cells[sx, sy] or seen[sx, sy]:
                continue
            regions += 1
            stack = [(sx, sy)]
            seen[sx, sy] = True
            while stack:
                x, y = stack.pop()
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    vx, vy = x + dx, y + dy
                    if 0 <= vx < nx and 0 <= vy < ny and not cells[vx, vy] \
                            and not seen[vx, vy]:
                        seen[vx, vy] = True
                        stack.append((vx, vy))
    return regions


class TestRasterize:
    def test_empty_world(self):
        cfg = WorldConfig(bounds=(0, 0, 10, 10))
        grid = rasterize(cfg, 0.1)
        assert grid.shape == (100, 100)
        assert not grid.cells.any()

    def test_inflated_disc(self):
        cfg = WorldConfig(bounds=(0, 0, 10, 10), circles=[Circle(5, 5, 0.5)],
                          robot_radius=0.25)
        grid = rasterize(cfg, 0.1)
        # per-cell oracle: occupied iff center within 0.75 of the circle center
        xs = (np.arange(100) + 0.5) * 0.1
        cx, cy = np.meshgrid(xs, xs, indexing="ij")
        expect = np.hypot(cx - 5, cy - 5) <= 0.75
        assert np.array_equal(grid.cells, expect)

    def test_wall_splits_free_space(self):
        cfg = WorldConfig(bounds=(0, 0, 10, 10),
                          walls=[Wall(0, 5, 10, 5, thickness=0.2)])
        grid = rasterize(cfg, 0.25)
        assert flood_fill_regions(grid.cells) == 2

    def test_pgm_export(self, tmp_path):
        cfg = WorldConfig(bounds=(0, 0, 2, 2), circles=[Circle(1, 1, 0.3)])
        grid = rasterize(cfg, 0.1)
        out = tmp_path / "map.pgm"
        save_pgm(grid, str(out))
        data = out.read_bytes()
        assert data.startswith(b"P5\n20 20\n255\n")
        assert (tmp_path / "map.pgm.json").exists()


class TestOccupiedNearPoints:
    def test_matches_scalar_test(self):
        cfg = WorldConfig(bounds=(-3, -2, 4, 5),
                          circles=[Circle(0.5, 1.0, 0.6), Circle(3.2, 4.1, 0.3)],
                          walls=[Wall(-2.0, -1.0, 2.5, -1.0, thickness=0.2)])
        grid = rasterize(cfg, 0.1)
        margin = 0.15
        rng = np.random.default_rng(29)
        inside = rng.uniform([-3, -2], [4, 5], (3000, 2))
        outside = rng.uniform([-4, -3], [5, 6], (3000, 2))    # off-grid too
        # points exactly margin away from occupied cell centers, along the
        # axes and in random directions
        cells = np.argwhere(grid.cells)[rng.integers(0, grid.cells.sum(), 3000)]
        centers = np.array(grid.origin) + (cells + 0.5) * grid.resolution
        theta = rng.uniform(-math.pi, math.pi, 3000)
        ring = centers + margin * np.column_stack([np.cos(theta), np.sin(theta)])
        axis = centers + margin * np.array([[1, 0], [0, -1], [-1, 0]])[
            np.arange(3000) % 3]
        for points in (inside, outside, ring, axis):
            want = [grid.occupied_near(x, y, margin) for x, y in points]
            assert grid.occupied_near_points(points, margin).tolist() == want

    def test_near_ties_follow_the_scalar_test(self):
        # isolated occupied cells and points a margin away from them; keep the
        # points where np.hypot and math.hypot round to opposite sides of the
        # margin, which a plain vectorized distance would misjudge
        cells = np.zeros((60, 60), dtype=bool)
        cells[5::10, 5::10] = True
        grid = OccupancyGrid(resolution=0.1, origin=(0.0, 0.0), cells=cells,
                             inflation_radius=0.0)
        margin = 0.15
        rng = np.random.default_rng(31)
        centers = (np.argwhere(cells)[rng.integers(0, 36, 100000)] + 0.5) * 0.1
        theta = rng.uniform(-math.pi, math.pi, 100000)
        points = centers + margin * np.column_stack([np.cos(theta), np.sin(theta)])
        ties = [p for p, (dx, dy) in zip(points, centers - points)
                if (np.hypot(dx, dy) <= margin) != (math.hypot(dx, dy) <= margin)]
        points = np.array(ties + list(points[:500]))
        want = [grid.occupied_near(x, y, margin) for x, y in points]
        assert grid.occupied_near_points(points, margin).tolist() == want

    def test_empty_grid_and_no_points(self):
        grid = rasterize(WorldConfig(bounds=(0, 0, 2, 2)), 0.1)
        assert not grid.occupied_near_points(np.full((5, 2), 1.0), 0.15).any()
        assert grid.occupied_near_points(np.zeros((0, 2)), 0.15).shape == (0,)


class TestAstar:
    def grid_from(self, cells, resolution=1.0):
        return OccupancyGrid(resolution=resolution, origin=(0.0, 0.0),
                             cells=np.asarray(cells, dtype=bool),
                             inflation_radius=0.25)

    def test_straight_corridor(self):
        grid = self.grid_from(np.zeros((6, 1)))
        path = astar(grid, (0.5, 0.5), (5.5, 0.5))
        assert path.length == pytest.approx(5.0, abs=grid.resolution)

    def test_unreachable_behind_wall(self):
        cells = np.zeros((10, 10), dtype=bool)
        cells[5, :] = True
        grid = self.grid_from(cells)
        with pytest.raises(Unreachable):
            astar(grid, (0.5, 0.5), (9.5, 9.5))

    def test_occupied_endpoint(self):
        cells = np.zeros((5, 5), dtype=bool)
        cells[0, 0] = True
        grid = self.grid_from(cells)
        with pytest.raises(InvalidEndpoint):
            astar(grid, (0.5, 0.5), (4.5, 4.5))

    def test_start_equals_goal_cell(self):
        grid = self.grid_from(np.zeros((5, 5)))
        path = astar(grid, (2.2, 2.2), (2.4, 2.4))
        assert len(path.waypoints) == 1

    def test_waypoint_spacing_and_free_cells(self):
        rng = np.random.default_rng(31)
        cells = rng.random((20, 20)) < 0.2
        cells[0, 0] = cells[19, 19] = False
        grid = self.grid_from(cells)
        try:
            path = astar(grid, (0.5, 0.5), (19.5, 19.5))
        except Unreachable:
            pytest.skip("random grid happened to be blocked")
        steps = np.hypot(*np.diff(path.waypoints, axis=0).T)
        assert np.all(steps <= SQRT2 * grid.resolution + 1e-12)
        for x, y in path.waypoints:
            assert not grid.occupied(x, y)

    def test_matches_dijkstra_on_random_grids(self):
        # 500 random 20x20 grids at 20% obstacle density: exact cost equality
        rng = np.random.default_rng(int(1e6))
        checked = 0
        attempts = 0
        while checked < 500:
            attempts += 1
            cells = rng.random((20, 20)) < 0.2
            cells[0, 0] = cells[19, 19] = False
            grid = self.grid_from(cells)
            oracle = dijkstra_cost(cells, (0, 0), (19, 19), 1.0)
            try:
                path = astar(grid, (0.5, 0.5), (19.5, 19.5))
            except Unreachable:
                assert oracle is None
                continue
            straight, diag = path_cost_counts(path, grid.resolution)
            assert oracle == (straight, diag), f"grid {attempts}"
            checked += 1


class TestAstarMatchesReference:
    def test_seeded_random_grids(self):
        # resolutions 0.1/0.25/1, random origins, obstacle densities 0-0.35,
        # a splitting wall (sometimes with a gap) on a quarter of the grids,
        # and endpoints that may be occupied or off the grid
        rng = np.random.default_rng(2024)
        kinds = {"path": 0, InvalidEndpoint: 0, Unreachable: 0}
        for _ in range(2000):
            res = float(rng.choice([0.1, 0.25, 1.0]))
            nx, ny = rng.integers(1, 41, 2)
            cells = rng.random((nx, ny)) < rng.uniform(0.0, 0.35)
            if rng.random() < 0.25:
                cells[rng.integers(nx), :] = True
                if rng.random() < 0.5:
                    cells[:, rng.integers(ny)] = False
            grid = OccupancyGrid(resolution=res,
                                 origin=tuple(rng.uniform(-20.0, 20.0, 2)),
                                 cells=cells, inflation_radius=0.25)
            lo = np.array(grid.origin)
            hi = lo + np.array([nx, ny]) * res
            if rng.random() < 0.15:
                lo, hi = lo - res, hi + res
            start, goal = rng.uniform(lo, hi, (2, 2))
            want = plan_outcome(reference_astar, grid, start, goal)
            assert plan_outcome(astar, grid, start, goal) == want
            kinds[want[0] if isinstance(want[0], type) else "path"] += 1
        assert min(kinds.values()) >= 50, kinds

    @pytest.mark.parametrize("kind,agents", [(Kind.CIRCLE, 40), (Kind.DOORWAY, 15),
                                             (Kind.RANDOM, 40), (Kind.HALLWAY, 16)])
    def test_evaluation_layouts(self, kind, agents):
        spec = eval_suite(kind, agents, rng_seed=0)
        scenario = generate(spec)
        grid, paths = scenario.plan(spec.resolution)
        for (x, y, _), goal, path in zip(scenario.starts, scenario.goals, paths):
            want = plan_outcome(reference_astar, grid, (x, y), goal)
            assert (path.waypoints.tobytes(), path.cumulative_length.tobytes()) == want


class TestRunningTarget:
    def straight_path(self, n=20, spacing=0.1):
        return GlobalPath.from_waypoints(
            np.column_stack([np.arange(n) * spacing, np.zeros(n)]))

    def test_agent_on_waypoint_advances_by_horizon(self):
        path = self.straight_path()
        tp = running_target(path, np.array([0.3, 0.0]), horizon=5)
        assert tp.index == 8  # nearest is index 3, plus H=5

    def test_clamped_at_path_end(self):
        path = self.straight_path(n=10)
        tp = running_target(path, np.array([0.9, 0.0]), horizon=5)
        assert tp.index == 9

    def test_tie_break_lowest_index(self):
        # U-shaped path: agent equidistant from the first and last waypoint
        wp = np.array([[0, 0], [1, 0], [2, 0], [2, 1], [1, 1], [0, 1]], dtype=float)
        path = GlobalPath.from_waypoints(wp)
        tp = running_target(path, np.array([0.0, 0.5]), horizon=2)
        assert tp.index == 0 + 2

    def test_pure_function_stable(self):
        path = self.straight_path()
        pos = np.array([0.37, 0.02])
        a = running_target(path, pos, 5)
        b = running_target(path, pos, 5)
        assert a.index == b.index
        assert np.array_equal(a.position, b.position)

    def test_index_never_decreases_along_path(self):
        path = self.straight_path(n=30)
        prev = -1
        for i in range(30):
            tp = running_target(path, path.waypoints[i], horizon=5)
            assert tp.index >= prev
            prev = tp.index

    def test_direction_is_segment_tangent(self):
        wp = np.array([[0, 0], [0.1, 0], [0.1, 0.1], [0.1, 0.2]])
        path = GlobalPath.from_waypoints(wp)
        tp = running_target(path, np.array([0.1, 0.0]), horizon=1)
        assert tp.index == 2
        assert tp.path_direction == pytest.approx(math.pi / 2)

    def test_empty_path_raises(self):
        with pytest.raises(EmptyPath):
            running_target(GlobalPath.from_waypoints(np.zeros((0, 2))),
                           np.zeros(2), 5)


class TestEndToEndPlanning:
    def test_plan_through_doorway(self):
        cfg = WorldConfig(bounds=(-5, -2, 5, 2),
                          walls=[Wall(0, -2, 0, -0.5, 0.2), Wall(0, 0.5, 0, 2, 0.2)])
        grid = rasterize(cfg, 0.1)
        path = astar(grid, (-4.0, 0.0), (4.0, 0.0))
        # must thread the 1 m gap near the origin
        near_gap = path.waypoints[np.abs(path.waypoints[:, 0]) < 0.2]
        assert len(near_gap) > 0
        assert np.all(np.abs(near_gap[:, 1]) < 0.5)

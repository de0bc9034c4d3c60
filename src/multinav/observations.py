"""Observation assembly, one pass for all robots of a world.

Five components per agent and tick: the three-frame LiDAR stack, goal in
body-frame polar coordinates, own velocities, the running-target summary of
the global path, and a graph of tracked dynamic neighbors (closest point in
body-frame polar plus body-frame velocity). Everything is relative or
body-fixed, so rigidly moving the whole world leaves observations unchanged.
Ablation switches empty the neighbor graph or zero the path component.
build_observations assembles the bundles of all live robots at once, as
views of shared arrays; build_observation is its one-robot case.
unit_scale maps a batch of stacked bundles to the policy's unit inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .lidar import LIDAR_SIGMA, MAX_RANGE, ScanHistory
from .planner import TargetPoint
from .sim import V_MAX, W_MAX, World
from .tracker import ClusterTrack
from .geometry import wrap_angle

N_MAX_NEIGHBORS = 16  # nearest-first cap; bounds rollout memory, not the model
STATE_POSITION_BOUND = 0.1    # m, uniform per axis on neighbour positions
STATE_VELOCITY_BOUND = 0.1    # m/s, uniform per axis on neighbour velocities


@dataclass
class NoiseConfig:
    """The evaluation noise protocol, on or off: LiDAR range noise of
    relative sigma LIDAR_SIGMA, and uniform per-axis noise of at most
    STATE_POSITION_BOUND on neighbour positions and STATE_VELOCITY_BOUND on
    neighbour velocities."""

    enabled: bool = True

    @classmethod
    def disabled(cls) -> "NoiseConfig":
        return cls(enabled=False)

    @property
    def lidar_sigma(self) -> float:
        """The LiDAR sigma in force (read by perfbench's tracking check)."""
        return LIDAR_SIGMA if self.enabled else 0.0


@dataclass
class AblationConfig:
    no_global_path: bool = False
    no_gnn: bool = False

    @classmethod
    def from_name(cls, name: str) -> "AblationConfig":
        """"drl-nav" drops both inputs: DRL-NAV (Long et al., ICRA 2018),
        one of the paper's baselines, sees the LiDAR frames, the goal and
        its own velocity, with no global path and no neighbour graph."""
        if name in ("", "none"):
            return cls()
        if name == "no-gp":
            return cls(no_global_path=True)
        if name == "no-gnn":
            return cls(no_gnn=True)
        if name == "drl-nav":
            return cls(no_global_path=True, no_gnn=True)
        raise ValueError(f"unknown ablation {name!r}")


@dataclass
class NeighborGraph:
    """Fully-connected graph over tracked dynamic clusters. Node features:
    (distance m, bearing rad, vx m/s, vy m/s), all body-frame."""

    nodes: np.ndarray = field(default_factory=lambda: np.zeros((0, 4)))

    @property
    def node_count(self) -> int:
        return len(self.nodes)


@dataclass
class ObservationBundle:
    """One robot's observation. The bundles of one build_observations call
    are views of that call's shared arrays (o_z of one range stack, o_g,
    o_v and o_gp of one extras row, the nodes of one node table), so
    callers read them and never write them."""

    o_z: np.ndarray                  # (3, 120) ranges, oldest frame first
    o_g: np.ndarray                  # (2,) goal distance, bearing
    o_v: np.ndarray                  # (2,) linear, angular velocity
    o_gp: np.ndarray                 # (3,) target distance, bearing, path direction
    o_c: NeighborGraph
    world_diameter: float            # m, bounds diagonal: scales o_g, o_gp distances


def build_observations(world: World, agents: list[int],
                       histories: list[ScanHistory],
                       tracks: list[list[ClusterTrack]] | None,
                       targets: list[TargetPoint | None],
                       ablation: AblationConfig | None = None,
                       rng: np.random.Generator | None = None
                       ) -> list[ObservationBundle]:
    """Assemble the observations of the robots agents (indices into
    world.robots) in one pass, one bundle per agent in its order.

    histories, tracks and targets hold one entry per agent: its scan
    history, the neighbours to show as Tracker.dynamic_tracks() returns
    them, and its running target (None zeroes o_gp). tracks goes unread,
    and may be None, under the no-GNN ablation. Goals, targets and tracks
    rotate into their robots' body frames together; each robot's nearest
    N_MAX_NEIGHBORS tracks, by a stable sort, become its graph nodes. Pass
    rng to perturb the node states by the noise protocol: one draw, sliced
    per robot in agent order, position noise before velocity noise. LiDAR
    noise is applied upstream on the scans themselves.
    """
    ablation = ablation or AblationConfig()
    n = len(agents)
    if n == 0:
        return []
    with_gp = not ablation.no_global_path
    if ablation.no_gnn:
        tracks = [()] * n
    headings = world.headings.tolist()
    positions = world.positions.tolist()
    goals = world.goals.tolist()

    # every vector turns into its robot's body frame in this one loop:
    # goals, running targets (a missing one stands in as the goal and is
    # zeroed below) and the tracks' closest points relative to the robot,
    # the tracks' velocities as they are
    goal_xy, target_xy, point_xy, velocity_xy = [], [], [], []
    for a, target, shown in zip(agents, targets, tracks):
        h = headings[a]
        c, s = math.cos(-h), math.sin(-h)
        x0, y0 = positions[a]
        x, y = goals[a]
        goal_xy.append(_turn(c, s, x - x0, y - y0))
        if with_gp:
            x, y = goals[a] if target is None else target.position.tolist()
            target_xy.append(_turn(c, s, x - x0, y - y0))
        for t in shown:
            x, y = t.closest_point.tolist()
            point_xy.append(_turn(c, s, x - x0, y - y0))
            velocity_xy.append(_turn(c, s, *t.velocity_estimate.tolist()))
    px, py = zip(*goal_xy, *target_xy, *point_xy)
    dist = np.hypot(px, py)
    bearing = list(map(math.atan2, py, px))

    lin = world.linear_velocities.tolist()
    ang = world.angular_velocities.tolist()
    ahead = dist[:2 * n].tolist()
    extras = np.array([                    # o_g, o_v, o_gp per agent
        [ahead[r], bearing[r], lin[a], ang[a],
         *((0.0, 0.0, 0.0) if not with_gp or target is None else
           (ahead[n + r], bearing[n + r],
            wrap_angle(target.path_direction - headings[a])))]
        for r, (a, target) in enumerate(zip(agents, targets))])

    counts = [len(shown) for shown in tracks]
    kept = [min(count, N_MAX_NEIGHBORS) for count in counts]
    ends = list(accumulate(kept))
    starts = [e - q for e, q in zip(ends, kept)]
    if velocity_xy:
        # nearest first per robot, ties in track order, then the cap
        m = len(velocity_xy)
        owner = np.repeat(np.arange(n), counts)
        d = dist[-m:]
        order = np.lexsort((d, owner))
        rank = np.arange(m) - np.repeat(np.cumsum(counts) - counts, counts)
        nodes = np.column_stack([d, bearing[-m:], velocity_xy])[
            order[rank < N_MAX_NEIGHBORS]]
        if rng is not None:
            nodes = _noisy_nodes(nodes, np.repeat(starts, kept),
                                 np.repeat(ends, kept), rng)
    else:
        nodes = np.zeros((0, 4))

    z = np.array([[f.ranges for f in h.frames] for h in histories])
    xmin, ymin, xmax, ymax = world.config.bounds
    diameter = math.hypot(xmax - xmin, ymax - ymin)
    return [ObservationBundle(o_z=z[r], o_g=extras[r, :2], o_v=extras[r, 2:4],
                              o_gp=extras[r, 4:],
                              o_c=NeighborGraph(nodes=nodes[a:b]),
                              world_diameter=diameter)
            for r, (a, b) in enumerate(zip(starts, ends))]


def _noisy_nodes(nodes: np.ndarray, start: np.ndarray, end: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """Perturb node positions (per Cartesian axis, uniform within
    STATE_POSITION_BOUND) and velocities (STATE_VELOCITY_BOUND). start and
    end bound each node's robot's run of rows. One draw serves all robots:
    a robot with k nodes takes 4k values in turn, its (k, 2) position noise
    then its (k, 2) velocity noise, scaled as Generator.uniform scales, so
    the values equal those of two uniform calls per robot in that order."""
    pairs = rng.random((2 * len(nodes), 2))
    j = np.arange(len(nodes))
    b = STATE_POSITION_BOUND
    xy = np.column_stack([nodes[:, 0] * np.cos(nodes[:, 1]),
                          nodes[:, 0] * np.sin(nodes[:, 1])])
    xy = xy + (-b + (b - -b) * pairs[start + j])
    b = STATE_VELOCITY_BOUND
    vel = nodes[:, 2:4] + (-b + (b - -b) * pairs[end + j])
    return np.column_stack([np.hypot(xy[:, 0], xy[:, 1]),
                            np.arctan2(xy[:, 1], xy[:, 0]), vel])


def _turn(c: float, s: float, x: float, y: float) -> tuple[float, float]:
    """(x, y) turned by the angle whose cosine and sine are c and s."""
    return c * x - s * y, s * x + c * y


def build_observation(world: World, agent_index: int, scan_history: ScanHistory,
                      tracks: list[ClusterTrack], target_point: TargetPoint | None,
                      ablation: AblationConfig | None = None,
                      rng: np.random.Generator | None = None) -> ObservationBundle:
    """One agent's observation: build_observations on one robot."""
    return build_observations(world, [agent_index], [scan_history], [tracks],
                              [target_point], ablation, rng)[0]


# divisors of the extras o_g (2) + o_v (2) + o_gp (3); the two distances,
# here 1.0, are divided by the world diameter instead
EXTRAS_SCALE = np.array([1.0, math.pi, V_MAX, W_MAX, 1.0, math.pi, math.pi])
NODE_SCALE = np.array([MAX_RANGE, math.pi, V_MAX, V_MAX])


def unit_scale(z3: np.ndarray, extras: np.ndarray, nodes: np.ndarray,
               world_diameter: np.ndarray):
    """Unit-scaled policy inputs from stacked bundle fields: ranges z3
    (B, 3, beams), extras (B, 7) = o_g + o_v + o_gp, nodes (B, N, 4) and
    each row's world diameter (B,). Each value is divided by its scale.
    Inverse transform: multiply ranges by the max LiDAR range, o_g/o_gp
    distances by the world diameter, node distances by the max LiDAR range,
    angles by pi and velocities by their bounds."""
    scale = np.tile(EXTRAS_SCALE, (len(extras), 1))
    scale[:, [0, 4]] = np.reshape(world_diameter, (-1, 1))
    return z3 / MAX_RANGE, extras / scale, nodes / NODE_SCALE

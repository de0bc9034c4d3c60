"""Per-agent observation assembly.

Five components per agent and tick: the three-frame LiDAR stack, goal in
body-frame polar coordinates, own velocities, the running-target summary of
the global path, and a graph of tracked dynamic neighbors (closest point in
body-frame polar plus body-frame velocity). Everything is relative or
body-fixed, so rigidly moving the whole world leaves observations unchanged.
Ablation switches empty the neighbor graph or zero the path component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
    o_z: np.ndarray                  # (3, 120) ranges, oldest frame first
    o_g: np.ndarray                  # (2,) goal distance, bearing
    o_v: np.ndarray                  # (2,) linear, angular velocity
    o_gp: np.ndarray                 # (3,) target distance, bearing, path direction
    o_c: NeighborGraph


def rotate_to_body(vec: np.ndarray, heading: float) -> np.ndarray:
    c, s = math.cos(-heading), math.sin(-heading)
    return np.array([c * vec[0] - s * vec[1], s * vec[0] + c * vec[1]])


def to_body(point: np.ndarray, position: np.ndarray, heading: float) -> np.ndarray:
    return rotate_to_body(point - position, heading)


def polar(rel: np.ndarray) -> tuple[float, float]:
    return float(np.hypot(rel[0], rel[1])), math.atan2(rel[1], rel[0])


def build_observation(world: World, agent_index: int, scan_history: ScanHistory,
                      tracks: list[ClusterTrack], target_point: TargetPoint | None,
                      ablation: AblationConfig | None = None,
                      rng: np.random.Generator | None = None) -> ObservationBundle:
    """Assemble one agent's observation from its sensors, tracks and path.

    tracks are the neighbours to show, as Tracker.dynamic_tracks() returns
    them; the nearest N_MAX_NEIGHBORS become graph nodes. Pass rng to
    perturb the neighbor states by the noise protocol in the same call;
    LiDAR noise is applied upstream on the scans themselves.
    """
    ablation = ablation or AblationConfig()
    robot = world.robots[agent_index]
    pos, heading = robot.position, robot.heading

    dist_g, bearing_g = polar(to_body(robot.goal, pos, heading))
    o_g = np.array([dist_g, bearing_g])
    o_v = np.array([robot.linear_velocity, robot.angular_velocity])

    if ablation.no_global_path or target_point is None:
        o_gp = np.zeros(3)
    else:
        dist_t, bearing_t = polar(to_body(target_point.position, pos, heading))
        o_gp = np.array([dist_t, bearing_t,
                         wrap_angle(target_point.path_direction - heading)])

    if ablation.no_gnn:
        graph = NeighborGraph()
    else:
        rows = []
        for t in tracks:
            rel = to_body(t.closest_point, pos, heading)
            vel = rotate_to_body(t.velocity_estimate, heading)
            rows.append((float(np.hypot(*rel)), math.atan2(rel[1], rel[0]),
                         float(vel[0]), float(vel[1])))
        rows.sort(key=lambda r: r[0])
        graph = NeighborGraph(nodes=np.array(rows[:N_MAX_NEIGHBORS])
                              if rows else np.zeros((0, 4)))

    bundle = ObservationBundle(o_z=scan_history.stacked, o_g=o_g,
                               o_v=o_v, o_gp=o_gp, o_c=graph)
    if rng is not None:
        bundle = apply_state_noise(bundle, rng)
    return bundle


def apply_state_noise(bundle: ObservationBundle,
                      rng: np.random.Generator) -> ObservationBundle:
    """Perturb neighbor node positions (per Cartesian axis, uniform within
    STATE_POSITION_BOUND) and velocities (STATE_VELOCITY_BOUND)."""
    nodes = bundle.o_c.nodes
    if len(nodes) == 0:
        return bundle
    xy = np.column_stack([nodes[:, 0] * np.cos(nodes[:, 1]),
                          nodes[:, 0] * np.sin(nodes[:, 1])])
    xy = xy + rng.uniform(-STATE_POSITION_BOUND, STATE_POSITION_BOUND,
                          size=xy.shape)
    vel = nodes[:, 2:4] + rng.uniform(-STATE_VELOCITY_BOUND,
                                      STATE_VELOCITY_BOUND,
                                      size=(len(nodes), 2))
    new_nodes = np.column_stack([np.hypot(xy[:, 0], xy[:, 1]),
                                 np.arctan2(xy[:, 1], xy[:, 0]), vel])
    return replace(bundle, o_c=NeighborGraph(nodes=new_nodes))


@dataclass
class NormalizedObs:
    """Unit-scaled policy inputs. Inverse transform: multiply ranges by the
    max LiDAR range, o_g/o_gp distances by the world diameter, node distances
    by the max LiDAR range, angles by pi and velocities by their bounds."""

    z3: np.ndarray                   # (3, 120) in [0, 1]
    extras: np.ndarray               # (7,) = o_g (2) + o_v (2) + o_gp (3)
    nodes: np.ndarray                # (n, 4)


def normalize(bundle: ObservationBundle, world_diameter: float) -> NormalizedObs:
    z3 = bundle.o_z / MAX_RANGE
    og = np.array([bundle.o_g[0] / world_diameter, bundle.o_g[1] / math.pi])
    ov = np.array([bundle.o_v[0] / V_MAX, bundle.o_v[1] / W_MAX])
    ogp = np.array([bundle.o_gp[0] / world_diameter, bundle.o_gp[1] / math.pi,
                    bundle.o_gp[2] / math.pi])
    nodes = bundle.o_c.nodes
    if len(nodes):
        nodes = np.column_stack([nodes[:, 0] / MAX_RANGE, nodes[:, 1] / math.pi,
                                 nodes[:, 2] / V_MAX, nodes[:, 3] / V_MAX])
    else:
        nodes = np.zeros((0, 4))
    return NormalizedObs(z3=z3, extras=np.concatenate([og, ov, ogp]), nodes=nodes)

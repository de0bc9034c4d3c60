"""Model-free detection and tracking of moving objects from raw LiDAR.

Pipeline per observer and frame: adjacent-beam clustering of scan returns,
a coarse static/dynamic split against the inflated static map, nearest-
predicted-point association of the dynamic clusters refined by
translation-only ICP with outlier trimming, a velocity gate on accepted
matches, and a constant-velocity estimate smoothed by an exponential moving
average. Static clusters are classified, not tracked: each frame reports
them as zero-velocity STATIC entries with id STATIC_ID, and they take no
part in association. Discs make rotation unobservable, so tracks carry
linear velocity only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .lidar import BEAM_OFFSETS, LidarScan
from .planner import OccupancyGrid


class TrackClass(enum.Enum):
    STATIC = "static"
    DYNAMIC = "dynamic"


STATIC_ID = -1                       # id of every static entry: never a track


@dataclass
class TrackerConfig:
    cluster_gap: float = 0.3          # max gap between adjacent beam hits
    gating_radius: float = 0.6        # association gate on predicted position
    v_max_gate: float = 1.5           # m/s, reject faster apparent motion
    grace_steps: int = 3              # frames a track survives unmatched
    ema_beta: float = 0.5             # weight of the newest velocity sample
    static_margin: float = 0.15       # distance to occupied cells = static
    hit_margin: float = 1e-6          # below max_range - this counts as a hit
    velocity_baseline_steps: int = 5  # frames spanned by the velocity baseline


@dataclass
class Cluster:
    points: np.ndarray               # (n, 2) world frame
    closest_point: np.ndarray        # cluster point nearest the observer


@dataclass
class ClusterTrack:
    id: int                          # STATIC_ID for a static entry
    closest_point: np.ndarray
    velocity_estimate: np.ndarray    # (2,) m/s world frame
    age: int = 1                     # frames since spawn; 0 for static entries
    classification: TrackClass = TrackClass.DYNAMIC
    points: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    observations: int = 1
    misses: int = 0
    # (frames_ago, points) snapshots; velocity baselines span several frames
    # so beam quantization amortizes over a larger true displacement
    history: list = field(default_factory=list)


def cluster_scan(scan: LidarScan, observer_pose: tuple[float, float, float],
                 gap: float = 0.3, hit_margin: float = 1e-6) -> list[Cluster]:
    """Group scan returns into clusters by adjacency.

    Non-hits (ranges at max_range) are dropped; consecutive hit beams whose
    points are within the gap threshold join one cluster, including across
    the 119 -> 0 wrap.
    """
    x, y, heading = observer_pose
    hits = scan.ranges < scan.max_range - hit_margin
    if not hits.any():
        return []
    angles = heading + BEAM_OFFSETS
    px = x + scan.ranges * np.cos(angles)
    py = y + scan.ranges * np.sin(angles)

    groups: list[list[int]] = []
    current: list[int] = []
    for k in range(len(scan.ranges)):
        if not hits[k]:
            if current:
                groups.append(current)
                current = []
            continue
        if current:
            j = current[-1]
            if math.hypot(px[k] - px[j], py[k] - py[j]) > gap:
                groups.append(current)
                current = []
        current.append(k)
    if current:
        groups.append(current)
    # wrap-around: last and first group may be one object split at beam 0
    if len(groups) > 1 and hits[0] and hits[-1]:
        j, k = groups[-1][-1], groups[0][0]
        if math.hypot(px[k] - px[j], py[k] - py[j]) <= gap:
            groups[0] = groups.pop() + groups[0]

    clusters = []
    for idx in groups:
        pts = np.column_stack([px[idx], py[idx]])
        nearest = int(np.argmin(scan.ranges[idx]))
        clusters.append(Cluster(points=pts, closest_point=pts[nearest].copy()))
    return clusters


def _sorted_median(s: np.ndarray):
    """np.median along axis 0 of an array already sorted along it: the middle
    element, or the mean of the two middle ones."""
    k = len(s) // 2
    return s[k] if len(s) % 2 else (s[k - 1] + s[k]) / 2


def icp_translation(src: np.ndarray, dst: np.ndarray, iterations: int = 40,
                    tol: float = 1e-6) -> np.ndarray:
    """Translation-only ICP of a 2-D point set onto another, with outlier
    trimming.

    Correspondences project src+T onto the polyline through the dst points
    (plain nearest point when dst is a single point), which avoids the
    vertex-aliasing that plagues sparse LiDAR silhouettes. Matches with
    residuals beyond 3x the median residual are dropped before each update.
    Returns the estimated translation.
    """
    # per-axis median init: projection updates cannot fix a tangential error
    # inherited from an outlier-skewed centroid
    t = (_sorted_median(np.sort(dst, axis=0))
         - _sorted_median(np.sort(src, axis=0)))
    single = len(dst) == 1
    if not single:
        rows = np.arange(len(src))
        a = dst[:-1].T[:, None, :]                   # (2, 1, m): x, y planes
        seg = dst[1:].T[:, None, :] - a
        seg_len2 = np.maximum(seg[0] * seg[0] + seg[1] * seg[1], 1e-18)
    for _ in range(iterations):
        moved = src + t
        if single:
            diff = dst[0] - moved
        else:
            m = moved.T[:, :, None]                  # (2, n, 1)
            ap = (m - a) * seg
            tt = np.clip((ap[0] + ap[1]) / seg_len2, 0.0, 1.0)
            q = a + tt * seg                         # (2, n, m) segment points
            d = m - q
            d *= d
            nearest = (d[0] + d[1]).argmin(axis=1)
            diff = q[:, rows, nearest].T - moved
        residuals = np.hypot(diff[:, 0], diff[:, 1])
        keep = residuals <= 3.0 * _sorted_median(np.sort(residuals)) + 1e-12
        delta = np.add.reduce(diff[keep], axis=0) / np.count_nonzero(keep)
        t = t + delta
        if np.hypot(*delta) < tol:
            break
    return t


def estimate_velocity(track: ClusterTrack, matched: Cluster, dt: float,
                      displacement: np.ndarray | None = None,
                      beta: float = 0.5, baseline_steps: int = 1) -> np.ndarray:
    """Constant-velocity update for an accepted match.

    First observation yields (0, 0); the second initializes v = delta/dt;
    afterwards an EMA blends the newest sample in. The displacement defaults
    to the raw closest-point delta over one frame; the tracker passes the ICP
    translation over a multi-frame baseline (baseline_steps frames), which is
    far less sensitive to beam quantization.
    """
    if displacement is None:
        displacement = matched.closest_point - track.closest_point
    if track.observations == 0:
        return np.zeros(2)
    sample = displacement / (dt * baseline_steps)
    if track.observations == 1:
        return sample.astype(float)
    return (1.0 - beta) * track.velocity_estimate + beta * sample


class Tracker:
    """Per-observer track store. One instance per agent; instances share
    nothing and are safe to run in parallel across agents."""

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.tracks: list[ClusterTrack] = []
        self._next_id = 0

    def _new_track(self, cluster: Cluster) -> ClusterTrack:
        track = ClusterTrack(
            id=self._next_id,
            closest_point=cluster.closest_point.copy(),
            velocity_estimate=np.zeros(2),
            points=cluster.points.copy(),
            history=[(0, cluster.points.copy())],
        )
        self._next_id += 1
        return track

    def update(self, scan: LidarScan, observer_pose: tuple[float, float, float],
               grid: OccupancyGrid, dt: float) -> list[ClusterTrack]:
        """Dynamic tracks after this frame, then this frame's static
        entries."""
        clusters = cluster_scan(scan, observer_pose, self.config.cluster_gap,
                                self.config.hit_margin)
        self.tracks = associate(self.tracks, clusters, grid, dt,
                                self._new_track, self.config)
        return self.tracks

    def dynamic_tracks(self) -> list[ClusterTrack]:
        return [t for t in self.tracks if t.classification == TrackClass.DYNAMIC
                and t.misses == 0]


def _static_entry(cluster: Cluster) -> ClusterTrack:
    return ClusterTrack(id=STATIC_ID, closest_point=cluster.closest_point,
                        velocity_estimate=np.zeros(2), age=0,
                        classification=TrackClass.STATIC, points=cluster.points,
                        observations=0)


def associate(prev_tracks: list[ClusterTrack], clusters: list[Cluster],
              grid: OccupancyGrid, dt: float, spawn,
              config: TrackerConfig | None = None) -> list[ClusterTrack]:
    """Hierarchical data association of clusters to dynamic tracks.

    Coarse stage: clusters whose points all sit within the static margin of
    inflated occupancy are returned as static entries with zero velocity,
    after the dynamic tracks. Fine stage: the rest are matched to predicted
    positions of the dynamic tracks in prev_tracks under the gating radius,
    aligned by trimmed ICP, and accepted only when the implied speed stays
    below the gate; rejected or unmatched clusters become new tracks through
    spawn(cluster), and unmatched tracks coast for a few frames before
    dropping.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    cfg = config or TrackerConfig()

    static_clusters, dynamic_clusters = [], []
    if clusters:
        near = grid.occupied_near_points(
            np.concatenate([c.points for c in clusters]), cfg.static_margin)
        starts = np.cumsum([0] + [len(c.points) for c in clusters[:-1]])
        for c, on_static in zip(clusters, np.logical_and.reduceat(near, starts)):
            (static_clusters if on_static else dynamic_clusters).append(c)

    tracks = [t for t in prev_tracks if t.classification == TrackClass.DYNAMIC]
    out: list[ClusterTrack] = []
    matched_tracks: set[int] = set()

    # greedy nearest predicted-position assignment under the gate
    pairs = []
    for t in tracks:
        pred = t.closest_point + t.velocity_estimate * dt
        for ci, c in enumerate(dynamic_clusters):
            d = float(np.hypot(*(c.closest_point - pred)))
            if d <= cfg.gating_radius:
                pairs.append((d, t.id, ci))
    pairs.sort()
    used_clusters: set[int] = set()
    by_id = {t.id: t for t in tracks}
    for d, tid, ci in pairs:
        if tid in matched_tracks or ci in used_clusters:
            continue
        track, cluster = by_id[tid], dynamic_clusters[ci]
        shift = icp_translation(track.points, cluster.points)
        if np.hypot(*shift) / dt > cfg.v_max_gate:
            continue  # spatiotemporal consistency gate: spawn fresh later
        matched_tracks.add(tid)
        used_clusters.add(ci)
        # the oldest snapshot spans the baseline; a track spawned last frame
        # has one snapshot, equal to track.points, so its baseline shift is
        # the gate's shift
        frames, base_points = track.history[0] if track.history else (1, None)
        base_shift = (shift if frames == 1
                      else icp_translation(base_points, cluster.points))
        track.velocity_estimate = estimate_velocity(
            track, cluster, dt, displacement=base_shift,
            beta=cfg.ema_beta, baseline_steps=frames)
        track.closest_point = cluster.closest_point.copy()
        track.points = cluster.points.copy()
        track.history.append((0, cluster.points.copy()))
        track.age += 1
        track.observations += 1
        track.misses = 0
        out.append(track)

    for ci, c in enumerate(dynamic_clusters):
        if ci not in used_clusters:
            out.append(spawn(c))

    for t in tracks:
        if t.id in matched_tracks:
            continue
        t.misses += 1
        if t.misses > cfg.grace_steps:
            continue
        t.age += 1
        t.closest_point = t.closest_point + t.velocity_estimate * dt
        t.points = t.points + t.velocity_estimate * dt
        out.append(t)

    # age the baseline snapshots one frame, keep the window bounded
    for t in out:
        t.history = [(frames + 1, pts) for frames, pts in t.history
                     if frames + 1 <= cfg.velocity_baseline_steps]
    return out + [_static_entry(c) for c in static_clusters]

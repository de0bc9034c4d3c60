"""Model-free detection and tracking of moving objects from raw LiDAR.

Pipeline per observer and frame: adjacent-beam clustering of scan returns,
a coarse static/dynamic split against the inflated static map, nearest-
predicted-point association of the dynamic clusters refined by
translation-only ICP with outlier trimming (point-to-polyline matches, a
damped Gauss-Newton step on the point-to-line error per pass), a velocity
gate on accepted matches, and a constant-velocity estimate smoothed by an
exponential moving average. Static clusters are dropped at the split: they
take no part in association and leave no entry, so a tracker holds dynamic
tracks only.
Discs make rotation unobservable, so tracks carry linear velocity only.
update_trackers advances the trackers of all live robots by one frame, once
per step: one clustering pass over all their scans, one static split and
one lockstep batch for all their ICP pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lidar import BEAM_OFFSETS, MAX_RANGE, N_BEAMS, LidarScan
from .planner import NearTable


CLUSTER_GAP = 0.3               # max gap between adjacent beam hits
GATING_RADIUS = 0.6             # association gate on predicted position
V_MAX_GATE = 1.5                # m/s, reject faster apparent motion
GRACE_STEPS = 3                 # frames a track survives unmatched
EMA_BETA = 0.5                  # weight of the newest velocity sample
STATIC_MARGIN = 0.15            # distance to occupied cells = static
HIT_MARGIN = 1e-6               # below max_range - this counts as a hit
VELOCITY_BASELINE_STEPS = 5     # frames spanned by the velocity baseline
ICP_TOL = 1e-6                  # m, ICP stops once a step moves less
# Cap on ICP passes per pair. On the jobs of seeded doorway-10 and noisy
# circle-20 rounds, a Gauss-Newton pair stops after 3.4 passes on average,
# 7-8 at p99 and at most 11, bar 2 in 12,700; the ~0.7 % of noisy pairs that
# reach any cap chatter between two trim sets and never stop.
ICP_ITERATIONS = 12
# lambda of the damped Gauss-Newton step (H + lambda I)^-1 g. H = I - mean
# u u^T has eigenvalues in [0, 1], 0 along a straight silhouette's tangent,
# where g is only rounding noise: lambda bounds that step to 1e3 |g|. Where
# H = I (vertex and single-point matches) the step is g / (1 + lambda), whose
# leftover lambda / (1 + lambda) of g costs at most one more pass at ICP_TOL.
ICP_DAMPING = 1e-3


@dataclass
class Cluster:
    points: np.ndarray               # (n, 2) world frame
    closest_point: np.ndarray        # cluster point nearest the observer


@dataclass
class ClusterTrack:
    id: int
    closest_point: np.ndarray
    velocity_estimate: np.ndarray    # (2,) m/s world frame
    age: int = 1                     # frames since spawn
    points: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    observations: int = 1
    misses: int = 0
    # (frames_ago, points) snapshots; velocity baselines span several frames
    # so beam quantization amortizes over a larger true displacement
    history: list = field(default_factory=list)


def cluster_batch(ranges: np.ndarray,
                  poses: np.ndarray) -> list[list[Cluster]]:
    """Group the returns of k scans into clusters by adjacency, per scan.

    ranges is (k, 120), row k taken from poses[k] = (x, y, heading). Non-hits
    (ranges at max_range) are dropped; consecutive hit beams whose points are
    within CLUSTER_GAP join one cluster, including across the 119 -> 0 wrap,
    where the joined cluster comes first, its beams from 119's side first.
    Each cluster's points are a slice of one (N, 2) array.
    """
    hits = ranges < MAX_RANGE - HIT_MARGIN
    if not hits.any():
        return [[] for _ in ranges]
    angles = poses[:, 2, None] + BEAM_OFFSETS
    px = poses[:, 0, None] + ranges * np.cos(angles)
    py = poses[:, 1, None] + ranges * np.sin(angles)
    # beam b against beam b - 1 (beam 0 against beam 119)
    dx = px - np.roll(px, 1, axis=1)
    dy = py - np.roll(py, 1, axis=1)
    gap = np.hypot(dx, dy)
    # np.hypot and math.hypot may round one ulp apart: settle the near-ties
    # with math.hypot, the way occupied_near_points does
    for r, b in zip(*np.nonzero(np.abs(gap - CLUSTER_GAP)
                                <= 2 * np.spacing(CLUSTER_GAP))):
        gap[r, b] = math.hypot(dx[r, b], dy[r, b])
    joined = hits & np.roll(hits, 1, axis=1) & (gap <= CLUSTER_GAP)
    starts = hits & ~joined
    # a scan whose last cluster joins its first across the wrap is read from
    # the last cluster's first beam on
    wrap = joined[:, 0] & starts.any(axis=1)
    first = wrap * (N_BEAMS - 1 - np.argmax(starts[:, ::-1], axis=1))
    order = (first[:, None] + np.arange(N_BEAMS)) % N_BEAMS
    rows = np.arange(len(ranges))[:, None]
    hits, starts = hits[rows, order], starts[rows, order]
    starts[:, 0] = hits[:, 0]
    points = np.column_stack([px[rows, order][hits], py[rows, order][hits]])
    r = ranges[rows, order][hits]
    begin = np.flatnonzero(starts[hits])
    owner = np.nonzero(starts)[0]
    # each cluster's first beam of least range
    low = np.repeat(np.minimum.reduceat(r, begin),
                    np.diff(begin, append=len(r)))
    at_low = np.flatnonzero(r == low)
    nearest = at_low[np.searchsorted(at_low, begin)]
    clusters = [[] for _ in ranges]
    for o, a, b, c in zip(owner.tolist(), begin.tolist(),
                          begin[1:].tolist() + [len(r)], nearest.tolist()):
        clusters[o].append(Cluster(points=points[a:b],
                                   closest_point=points[c].copy()))
    return clusters


def cluster_scan(scan: LidarScan,
                 observer_pose: tuple[float, float, float]) -> list[Cluster]:
    """cluster_batch on one scan."""
    return cluster_batch(scan.ranges[None], np.array([observer_pose]))[0]


# Pad coordinate of the segments that fill a short polyline up to the batch
# width: every real point lies far closer to a real segment than to one of
# these, so the nearest-segment argmin never picks a pad, and its squared
# distance (~1e300) stays finite.
_FAR = 1e150
# Cap on a lockstep batch: its source points times its longest polyline's
# segments, the size of its (2, segments, points) buffers (up to 128 KB
# each). A doorway-10 step's jobs come to ~8,000 and mostly fit one batch.
_BATCH_ELEMENTS = 8192


def _padded(arrays: list, lengths: np.ndarray, width: int,
            fill: float) -> np.ndarray:
    """(B, width, 2) array whose row b holds arrays[b], then fill."""
    out = np.full((len(arrays), width, 2), fill)
    rows = np.repeat(np.arange(len(arrays)), lengths)
    cols = np.arange(len(rows)) - np.repeat(np.cumsum(lengths) - lengths,
                                            lengths)
    out[rows, cols] = np.concatenate(arrays)
    return out


def _row_median(x: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Median along axis 1 of each row's first lengths[b] entries of x, which
    holds +inf after them: the middle element, or the mean of the two middle
    ones (for an odd count, the middle element plus itself halved, which is
    that element exactly)."""
    s = np.sort(x, axis=1)
    rows = np.arange(len(x))
    return (s[rows, (lengths - 1) // 2] + s[rows, lengths // 2]) / 2


def _icp_batch(srcs: list, dsts: list, out: np.ndarray,
               slots: np.ndarray) -> None:
    """Run the ICP of every (srcs[b], dsts[b]) pair in lockstep and write
    pair b's translation to out[slots[b]].

    Each pass projects every row's source, moved by the row's current
    translation x, onto its polyline and trims. Over the kept points it
    takes the mean residual vector g and the mean of u u^T, u the unit
    tangent of the matched segment (0 at a segment end or a single dst
    point), so that H = I - mean(u u^T) is the Gauss-Newton matrix of the
    point-to-line error. The row then moves by the damped Gauss-Newton step
    (H + ICP_DAMPING I)^-1 g, solved in closed form. A row stops after the
    first step shorter than ICP_TOL, or after ICP_ITERATIONS passes, and
    returns its translation after that step.

    Per-row arrays are padded to the longest source, points first and the
    batch last, (N, 2, B); the sum over a row's points then runs in point
    order, as the per-pair sum over an (n, 2) array does. Source pads lie at
    +inf, so their residuals are +inf (sorted after the real ones, never
    kept), and every dropped term is -0.0 (the additive identity, so each
    sum equals the per-pair one bit for bit, signed zeros included). The
    projection onto the polylines runs on the real points of the rows with
    two or more dst points only, (2, M, P) with M the most segments in the
    batch; pad segments lie at _FAR. A row leaves the batch at the pass
    where its own loop would stop; the finished rows are dropped once they
    are a quarter of the batch.
    """
    n = np.array([len(s) for s in srcs])
    m = np.array([len(d) for d in dsts])
    width, segments = int(n.max()), max(int(m.max()) - 1, 1)
    src = _padded(srcs, n, width, np.inf)                  # (B, N, 2)
    dst = _padded(dsts, m, segments + 1, np.inf)
    # per-axis median init: projection updates cannot fix a tangential error
    # inherited from an outlier-skewed centroid
    x = (_row_median(dst, m) - _row_median(src, n)).T     # (2, B)
    pad = np.arange(width)[:, None] >= n                   # (N, B)
    src = src.transpose(1, 2, 0).copy()                    # (N, 2, B)
    seg_pad = np.arange(segments)[:, None] >= m - 1        # (M, B)
    a = dst[:, :-1].transpose(2, 1, 0).copy()              # (2, M, B)
    a[:, seg_pad] = _FAR
    seg = dst[:, 1:].transpose(2, 1, 0) - a
    seg[:, seg_pad] = 0.0
    seg_len2 = np.maximum(seg[0] * seg[0] + seg[1] * seg[1], 1e-18)
    first = dst[:, 0].T.copy()        # (2, B): the match of a single dst
    lo, hi = (n - 1) // 2, n // 2
    live = np.ones(len(n), dtype=bool)   # rows still iterating
    left = ICP_ITERATIONS                # passes still to run
    while True:
        b = len(n)
        middle = np.stack([lo, hi]) * b + np.arange(b)     # flat in (N, B)
        pi, pb = np.nonzero(~pad & (m > 1))                # points on polylines
        p = len(pi)
        at = pi * (2 * b) + np.arange(2)[:, None] * b + pb  # flat in (N, 2, B)
        pa, ps, pl = (np.take(v, pb, axis=-1) for v in (a, seg, seg_len2))
        pu = ps / np.sqrt(pl)                              # unit tangents
        points, corner = np.arange(p), np.arange(2)[:, None] * (segments * p)
        # work buffers, reused by every pass: q holds each point's match, u
        # its unit tangent, terms its residual vector and the entries of
        # u u^T, means their means over the kept points
        ap, qs, tt = np.empty(pa.shape), np.empty(pa.shape), np.empty(pl.shape)
        moved, residuals = np.empty(src.shape), np.empty(pad.shape)
        q = np.repeat(first[None], width, axis=0)          # (N, 2, B)
        u = np.zeros(src.shape)
        terms, means = np.empty((width, 5, b)), np.empty((5, b))
        for left in range(left - 1, -1, -1):
            np.add(src, x, out=moved)
            if p:
                mv = moved.ravel()[at][:, None]            # (2, 1, P)
                np.subtract(mv, pa, out=ap)                # (2, M, P)
                ap *= ps
                np.add(ap[0], ap[1], out=tt)
                tt /= pl
                np.clip(tt, 0.0, 1.0, out=tt)
                np.multiply(tt, ps, out=qs)
                qs += pa                                   # segment points
                d = np.subtract(mv, qs, out=ap)
                d *= d
                pick = np.add(d[0], d[1], out=d[0]).argmin(axis=0) * p + points
                q.ravel()[at] = qs.ravel()[pick + corner]
                t = tt.ravel()[pick]
                u.ravel()[at] = np.where((t > 0.0) & (t < 1.0),
                                         pu.ravel()[pick + corner], 0.0)
            np.subtract(q, moved, out=terms[:, :2])
            np.hypot(terms[:, 0], terms[:, 1], out=residuals)
            np.multiply(u, u[:, :1], out=terms[:, 2:4])    # u0 u0, u1 u0
            np.multiply(u[:, 1], u[:, 1], out=terms[:, 4])
            mid = np.sort(residuals, axis=0).ravel()[middle]
            keep = residuals <= 3.0 * ((mid[0] + mid[1]) / 2) + 1e-12
            np.copyto(terms, -0.0, where=~keep[:, None])
            np.add.reduce(terms, axis=0, out=means)
            means /= keep.sum(axis=0)
            g0, g1, c00, c01, c11 = means
            h00, h11 = (1.0 + ICP_DAMPING) - c00, (1.0 + ICP_DAMPING) - c11
            det = h00 * h11 - c01 * c01
            step = np.stack([h11 * g0 + c01 * g1, c01 * g0 + h00 * g1]) / det
            x += step
            done = live & (np.hypot(step[0], step[1]) < ICP_TOL)
            if not done.any():
                continue
            out[slots[done]] = x[:, done].T
            live &= ~done
            if not live.any():
                return
            if 4 * np.count_nonzero(live) <= 3 * len(live):
                break
        else:
            out[slots[live]] = x[:, live].T
            return
        src, x, a, seg, seg_len2, pad, first, n, m, lo, hi, slots = (
            v.compress(live, axis=-1) for v in (
                src, x, a, seg, seg_len2, pad, first, n, m, lo, hi, slots))
        live = live[live]


def icp_translation(srcs: list, dsts: list) -> np.ndarray:
    """Translation-only ICP of each 2-D point set srcs[b] onto dsts[b], with
    outlier trimming, all pairs in lockstep; returns the (B, 2)
    translations.

    Correspondences project src+T onto the polyline through the dst points
    (plain nearest point when dst is a single point), which avoids the
    vertex-aliasing that plagues sparse LiDAR silhouettes. Matches with
    residuals beyond 3x the median residual are dropped before each update.
    The plain update T + mean residual crawls along a silhouette's tangent,
    so each pass takes a damped Gauss-Newton step on the point-to-line
    error instead (Censi, PLICP, ICRA 2008; see _icp_batch), which has the
    same fixed points. A pair stops once a step moves less than ICP_TOL, or
    after ICP_ITERATIONS passes.
    Every row equals the pair's own ICP loop bit for bit. Pairs with the
    most segments go first, into batches of bounded size.
    """
    out = np.empty((len(srcs), 2))
    if len(srcs) == 0:
        return out
    n = [len(s) for s in srcs]
    segments = [max(len(d) - 1, 1) for d in dsts]
    order = sorted(range(len(srcs)), key=segments.__getitem__, reverse=True)
    start = 0
    while start < len(order):
        points, cap = 0, _BATCH_ELEMENTS // segments[order[start]]
        stop = start
        while stop < len(order) and (stop == start
                                     or points + n[order[stop]] <= cap):
            points += n[order[stop]]
            stop += 1
        batch = order[start:stop]
        _icp_batch([srcs[k] for k in batch], [dsts[k] for k in batch], out,
                   np.array(batch))
        start = stop
    return out


def estimate_velocity(track: ClusterTrack, displacement: np.ndarray, dt: float,
                      baseline_steps: int) -> np.ndarray:
    """Constant-velocity update for an accepted match of a track seen at
    least once before.

    displacement is the ICP translation over the track's multi-frame
    baseline (baseline_steps frames), far less sensitive to beam
    quantization than a one-frame closest-point delta. The track's second
    observation initializes v = displacement / (dt * baseline_steps);
    afterwards an EMA blends the newest sample in.
    """
    sample = displacement / (dt * baseline_steps)
    if track.observations == 1:
        return sample
    return (1.0 - EMA_BETA) * track.velocity_estimate + EMA_BETA * sample


class Tracker:
    """Per-observer track store. One instance per agent; instances share
    nothing but the ICP batch of update_trackers."""

    def __init__(self):
        self.tracks: list[ClusterTrack] = []
        self._next_id = 0

    def _new_track(self, cluster: Cluster) -> ClusterTrack:
        # a cluster's closest point is its own array; its points are a view
        # of the scan's, detached once. No track array is written in place
        points = cluster.points.copy()
        track = ClusterTrack(
            id=self._next_id,
            closest_point=cluster.closest_point,
            velocity_estimate=np.zeros(2),
            points=points,
            history=[(0, points)],
        )
        self._next_id += 1
        return track

    def update(self, scan: LidarScan, observer_pose: tuple[float, float, float],
               static_near: NearTable, dt: float) -> list[ClusterTrack]:
        """The tracks after this frame, coasting ones included. static_near
        is NearTable(grid, STATIC_MARGIN), built once per grid."""
        update_trackers([self], scan.ranges[None], np.array([observer_pose]),
                        static_near, dt)
        return self.tracks

    def dynamic_tracks(self) -> list[ClusterTrack]:
        """The neighbours the policy sees: tracks matched or spawned this
        frame."""
        return [t for t in self.tracks if t.misses == 0]


def split_static(clusters: list[list[Cluster]],
                 static_near: NearTable) -> list[list[Cluster]]:
    """Each observer's dynamic clusters: a cluster is static, and dropped,
    when all its points sit within STATIC_MARGIN of inflated occupancy.
    static_near is NearTable(grid, STATIC_MARGIN); one call of it serves
    every observer."""
    flat = [c for row in clusters for c in row]
    if not flat:
        return clusters
    near = static_near(np.concatenate([c.points for c in flat]))
    starts = np.cumsum([0] + [len(c.points) for c in flat[:-1]])
    static = iter(np.logical_and.reduceat(near, starts).tolist())
    return [[c for c in row if not next(static)] for row in clusters]


def gate_pairs(tracks: list[ClusterTrack], clusters: list[Cluster],
               dt: float) -> list[tuple[float, int, int]]:
    """(distance, track id, cluster index) of every cluster within
    GATING_RADIUS of a track's predicted position, nearest first."""
    if not tracks or not clusters:
        return []
    pred = np.array([t.closest_point + t.velocity_estimate * dt
                     for t in tracks])
    gap = np.array([c.closest_point for c in clusters]) - pred[:, None]
    dist = np.hypot(gap[..., 0], gap[..., 1])      # (tracks, clusters)
    close = dist <= GATING_RADIUS
    ti, ci = np.nonzero(close)
    return sorted(zip(dist[close].tolist(),
                      [tracks[t].id for t in ti.tolist()], ci.tolist()))


def update_trackers(trackers: list[Tracker], ranges: np.ndarray,
                    poses: np.ndarray, static_near: NearTable,
                    dt: float) -> None:
    """Advance each observer's tracker by one frame, trackers[k] on the scan
    ranges[k] taken from poses[k] = (x, y, heading); one clustering pass,
    one static split against static_near, NearTable(grid, STATIC_MARGIN),
    and one ICP batch serve them all.

    Per observer: cluster the scan, drop the static clusters and gate the
    tracks against the rest. Every gated pair's ICP inputs are fixed before
    any match is accepted, so one icp_translation call solves, for all
    observers at once, each pair's gate shift and, when its track holds a
    multi-frame snapshot, its baseline shift; some of these go unread when
    the greedy matching rejects the pair. associate then accepts
    matches per observer and sets each tracker's tracks.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    observers, srcs, dsts = [], [], []
    for tracker, dynamic in zip(trackers, split_static(
            cluster_batch(ranges, poses), static_near)):
        by_id = {t.id: t for t in tracker.tracks}
        pairs = []                 # (track, cluster index, job, frames)
        for _, tid, ci in gate_pairs(tracker.tracks, dynamic, dt):
            track = by_id[tid]
            # the oldest snapshot spans the velocity baseline; a track
            # spawned last frame has one snapshot, equal to track.points, so
            # its baseline shift is the gate's shift. Every live track holds
            # a snapshot: its newest is at most GRACE_STEPS + 1 frames old,
            # and VELOCITY_BASELINE_STEPS > GRACE_STEPS keeps it.
            frames, base = track.history[0]
            pairs.append((track, ci, len(srcs), frames))
            srcs.append(track.points)
            dsts.append(dynamic[ci].points)
            if frames != 1:
                srcs.append(base)
                dsts.append(dynamic[ci].points)
        observers.append((tracker, dynamic, pairs))
    shifts = icp_translation(srcs, dsts) if srcs else None
    for tracker, dynamic, pairs in observers:
        candidates = [(track, ci, shifts[k], shifts[k + (frames != 1)], frames)
                      for track, ci, k, frames in pairs]
        tracker.tracks = associate(tracker.tracks, dynamic, candidates, dt,
                                   tracker._new_track)


def associate(tracks: list[ClusterTrack], dynamic_clusters: list[Cluster],
              candidates: list, dt: float, spawn) -> list[ClusterTrack]:
    """Greedy association of dynamic clusters to tracks.

    candidates holds (track, cluster index, ICP shift, baseline shift,
    baseline frames) for every gated pair, nearest predicted position
    first. A pair is accepted when neither side is taken yet and the speed
    its ICP shift implies stays below the gate; the baseline shift then
    updates the track's velocity. Rejected or unmatched clusters become new
    tracks through spawn(cluster), and unmatched tracks coast for a few
    frames before dropping. Returns the matched, new and coasting tracks.
    """
    out: list[ClusterTrack] = []
    matched_tracks: set[int] = set()
    used_clusters: set[int] = set()
    for track, ci, shift, base_shift, frames in candidates:
        if track.id in matched_tracks or ci in used_clusters:
            continue
        if np.hypot(*shift) / dt > V_MAX_GATE:
            continue  # spatiotemporal consistency gate: spawn fresh later
        matched_tracks.add(track.id)
        used_clusters.add(ci)
        cluster = dynamic_clusters[ci]
        track.velocity_estimate = estimate_velocity(track, base_shift, dt,
                                                    frames)
        track.closest_point = cluster.closest_point
        track.points = cluster.points.copy()
        track.history.append((0, track.points))
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
        if t.misses > GRACE_STEPS:
            continue
        t.age += 1
        t.closest_point = t.closest_point + t.velocity_estimate * dt
        t.points = t.points + t.velocity_estimate * dt
        out.append(t)

    # age the baseline snapshots one frame, keep the window bounded
    for t in out:
        t.history = [(frames + 1, pts) for frames, pts in t.history
                     if frames + 1 <= VELOCITY_BASELINE_STEPS]
    return out

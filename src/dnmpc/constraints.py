"""World model, per-agent stage margins and their tube tightening.

All workspace constraints (inter-agent separation, connectivity, obstacle and
workspace-boundary clearance) are distance margins: nonnegative means
satisfied. Erosion of the constraint set by the disturbance tube is realized
as scalar margin reduction by the tube radius, which is exact for these
1-Lipschitz distance margins. Each margin's gradient in the position is the
unit vector ±(p - anchor)/|p - anchor|, which :meth:`StageGeometry.margins`
forms when the callable it returns with the margins is called.

:meth:`WorldModel.geometry` alone writes the four thresholds, net of a
safety margin eps: the solver, the CSV margin columns, the verifier and the
start and goal checks all build their :class:`StageGeometry` there and
differ only in eps and in which agents and obstacles they take.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .setalg import Ball, TubeProfile, tube_radius

__all__ = [
    "MARGIN_KINDS",
    "WorldModel",
    "StageGeometry",
    "tube_profile_radii",
]

# constraint kinds, in the column order of StageGeometry.margins
MARGIN_KINDS = ("inter-agent", "neighbor", "obstacle", "workspace")
# logged samples that WorldModel.logged_margins evaluates at a time: the
# (rows, C, d) anchors and differences of one chunk are held, not the whole
# log's, and the post-run passes take no longer than over the whole log
_LOGGED_CHUNK_ROWS = 2048


@dataclass
class WorldModel:
    """Static world description shared by all agents.

    neighbor_sets are fixed at t = 0 (see coordination.neighbor_sets) and hold
    0-based agent indices.
    """

    workspace: Ball
    obstacles: list
    agent_radii: np.ndarray
    sensing_ranges: np.ndarray
    detection_ranges: np.ndarray
    margin: float
    neighbor_sets: Optional[list] = None

    def __post_init__(self):
        self.agent_radii = np.asarray(self.agent_radii, dtype=float)
        self.sensing_ranges = np.asarray(self.sensing_ranges, dtype=float)
        self.detection_ranges = np.asarray(self.detection_ranges, dtype=float)
        if self.margin <= 0.0:
            raise ValueError("safety margin must be positive")
        if np.any(self.agent_radii >= self.workspace.radius):
            raise ValueError("agent radius must be smaller than the workspace radius")
        n = len(self.agent_radii)
        if n >= 2:
            pair_max = max(
                self.agent_radii[i] + self.agent_radii[j]
                for i in range(n) for j in range(i + 1, n)
            )
            if np.any(self.sensing_ranges <= pair_max):
                raise ValueError("sensing range must exceed the largest pairwise radius sum")
        if np.any(self.detection_ranges <= self.agent_radii):
            raise ValueError("detection range must exceed the agent radius")

    def geometry(self, i, taus, tracks, sensed, obstacles, eps):
        """Agent i's distance constraints on the stage grid `taus`, each
        threshold net of eps: separation r_i + r_j + eps from every agent j in
        `sensed`, connectivity d_i - eps to every neighbor, clearance
        r_i + r_l + eps from every obstacle l in `obstacles`, and containment
        within R - r_i - eps of the workspace centre. `tracks[j]` holds agent
        j's positions (T, d) on the grid.
        """
        r_i = self.agent_radii[i]
        return StageGeometry(
            taus=taus,
            interagent=[(f"agent{j}", tracks[j], r_i + self.agent_radii[j] + eps)
                        for j in sorted(sensed)],
            neighbor=[(f"agent{j}", tracks[j], self.sensing_ranges[i] - eps)
                      for j in sorted(self.neighbor_sets[i])],
            obstacles=[(f"obst{ell}", self.obstacles[ell].center,
                        r_i + self.obstacles[ell].radius + eps) for ell in sorted(obstacles)],
            workspace=(self.workspace.center, self.workspace.radius - r_i - eps))

    def logged_margins(self, i, times, positions, eps):
        """Agent i's margins, thresholds net of eps, against every other agent
        and every obstacle on its logged samples, in chunks of
        `_LOGGED_CHUNK_ROWS` samples, so that one chunk's geometry is held at
        a time: yields (rows, kinds, margins, dist) for the slice `rows` of
        agent i's samples, with the columns' MARGIN_KINDS indices (C,) and
        the margins and distances of those samples (rows, C), in the same
        column order for every chunk.

        `times[j]` (T_j,) and `positions[j]` (T_j, d) are agent j's samples;
        the logs may differ in length, as in a partial log. Another agent is
        taken at its first sample at or after each time, and at its last one
        beyond the end of its log. Every step is row by row, so the chunks
        hold the floats of one pass over the whole log."""
        others = [j for j in range(len(positions)) if j != i]
        for start in range(0, len(times[i]), _LOGGED_CHUNK_ROWS):
            rows = slice(start, start + _LOGGED_CHUNK_ROWS)
            taus = times[i][rows]
            tracks = {j: positions[j][np.minimum(np.searchsorted(times[j], taus),
                                                 len(times[j]) - 1)] for j in others}
            geo = self.geometry(i, taus, tracks, others, range(len(self.obstacles)), eps)
            kinds = geo.kinds
            margins, diff, dist = geo._evaluate(positions[i][rows])
            del tracks, geo, diff  # hold the chunk's margins and distances alone
            yield rows, kinds, margins, dist


class StageGeometry:
    """Vectorized constraint snapshot for one agent's horizon.

    Trajectories of other agents are sampled on the same T time offsets
    `taus` as the agent's own predicted states. All distance margins are
    1-Lipschitz in the position, hence in the full error norm.

    Built once from per-kind entries: `interagent` (label, traj (T, d), min
    dist), `neighbor` (label, traj (T, d), max dist), `obstacles` (label,
    center (d,), min dist) and `workspace` (center (d,), max dist). They are
    kept only as stacked columns, in MARGIN_KINDS order: the margin of column
    c is sign[c] * |pos - anchors[:, c]| + offset[c], of kind
    MARGIN_KINDS[kinds[c]] against labels[c] ("agent1", "obst0",
    "workspace"). `anchors` is (T, C, d), the others (C,).
    """

    def __init__(self, taus, interagent=(), neighbor=(), obstacles=(), workspace=None):
        entries = ([(label, traj, 1.0, -thr, 0) for label, traj, thr in interagent]
                   + [(label, traj, -1.0, thr, 1) for label, traj, thr in neighbor]
                   + [(label, center, 1.0, -thr, 2) for label, center, thr in obstacles])
        if workspace is not None:
            center, limit = workspace
            entries.append(("workspace", center, -1.0, limit, 3))
        T = len(taus)
        if not entries:  # a unit position axis broadcasts against any position
            self.anchors, self.sign, self.offset = np.zeros((T, 0, 1)), np.zeros(0), np.zeros(0)
            self.kinds, self.labels = np.zeros(0, dtype=int), []
            return
        labels, anchors, sign, offset, kinds = zip(*entries)
        self.anchors = np.empty((T, len(entries), np.shape(anchors[0])[-1]))
        for c, anchor in enumerate(anchors):
            self.anchors[:, c] = anchor
        self.sign, self.offset, self.kinds = np.array(sign), np.array(offset), np.array(kinds)
        self.labels = list(labels)

    def _evaluate(self, pos):
        """Raw margins of positions (..., T, d) with the offsets from and
        distances to each column's anchor: (..., T, C), (..., T, C, d) and
        (..., T, C). The logged samples (:meth:`WorldModel.logged_margins`)
        and the start check read the margins here, outside the solver's
        count of :meth:`margins` calls."""
        diff = pos[..., None, :] - self.anchors
        # the sum np.linalg.norm forms, so the distances are the same floats
        dist = np.sqrt(np.add.reduce(diff * diff, axis=-1))
        return self.sign * dist + self.offset, diff, dist

    def margins(self, pos):
        """Raw margins of positions (..., T, d), stacked by kind in
        `MARGIN_KINDS` order, shape (..., T, C), and a callable that forms
        their gradient d margins / d pos, shape (..., T, C, d).

        The gradient of a column is sign * (pos - anchor) / distance, and zero
        where the position sits on its anchor (the mean of the one-sided
        slopes, as a central difference gives).
        """
        margins, diff, dist = self._evaluate(pos)

        def gradient():
            return diff * (self.sign / np.where(dist > 0.0, dist, np.inf))[..., None]

        return margins, gradient

    def tightened(self, pos, rho):
        """Margins eroded by the tube radius profile rho of shape (T,), and
        the callable of :meth:`margins` for their gradient, which erosion
        leaves unchanged."""
        margins, gradient = self.margins(pos)
        return margins - np.asarray(rho)[..., :, None], gradient

    def pair_windows(self):
        """(sep, conn), each (P,): the separation and connectivity thresholds
        of every agent that is both sensed and a neighbor, in the order of
        its separation column. Its distance must stay within [sep, conn], a
        window that erosion by rho closes where sep + 2 rho > conn."""
        columns = list(zip(self.labels, self.kinds, self.offset))
        conn = {label: offset for label, kind, offset in columns if kind == 1}
        pairs = [(-offset, conn[label]) for label, kind, offset in columns
                 if kind == 0 and label in conn]
        return np.array(pairs).reshape(-1, 2).T

    def terminal_excluded(self, goal, radius, rho_end, tol):
        """True if no position within `radius` of `goal` meets every
        last-row margin, eroded by rho_end, to within tol.

        Over that ball a column's largest margin is offset - rho_end plus
        |goal - anchor| + radius (sign +1) or minus
        max(|goal - anchor| - radius, 0) (sign -1). Reads the stacked columns
        without calling :meth:`margins`.
        """
        diff = goal - self.anchors[-1]
        dist = np.sqrt(np.add.reduce(diff * diff, axis=-1))
        reach = np.where(self.sign > 0.0, dist + radius, -np.maximum(dist - radius, 0.0))
        return bool((self.offset - rho_end + reach < -tol).any())


def tube_profile_radii(profile: TubeProfile, taus):
    """Tube radii over a grid of stage offsets."""
    return np.array([tube_radius(profile, t) for t in np.asarray(taus, dtype=float)])

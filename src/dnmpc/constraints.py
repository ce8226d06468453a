"""World model, per-agent stage margins and their tube tightening.

All workspace constraints (inter-agent separation, connectivity, obstacle and
workspace-boundary clearance) are distance margins: nonnegative means
satisfied. Erosion of the constraint set by the disturbance tube is realized
as scalar margin reduction by the tube radius, which is exact for these
1-Lipschitz distance margins. Each margin's gradient in the position is the
unit vector ±(p - anchor)/|p - anchor|, which :meth:`StageGeometry.margins`
returns with the margins.

:meth:`WorldModel.geometry` alone writes the four thresholds, net of a
safety margin eps: the solver, the CSV margin columns, the verifier and the
start and goal checks all build their :class:`StageGeometry` there and
differ only in eps and in which agents and obstacles they take.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
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

    def logged_geometry(self, i, times, positions, eps):
        """Agent i's constraints against every other agent and every obstacle
        on its logged samples. `times[j]` (T_j,) and `positions[j]` (T_j, d)
        are agent j's samples; the logs may differ in length, as in a partial
        log. Another agent is taken at its first sample at or after each
        time, and at its last one beyond the end of its log."""
        others = [j for j in range(len(positions)) if j != i]
        tracks = {j: positions[j][np.minimum(np.searchsorted(times[j], times[i]),
                                             len(times[j]) - 1)] for j in others}
        return self.geometry(i, times[i], tracks, others, range(len(self.obstacles)), eps)


@dataclass
class StageGeometry:
    """Vectorized constraint snapshot for one agent's horizon.

    Trajectories of other agents are sampled on the same time offsets `taus`
    as the agent's own predicted states. All distance margins are 1-Lipschitz
    in the position, hence in the full error norm. Fill in the constraints
    before the first call of :meth:`margins`, which stacks them once.
    """

    taus: np.ndarray  # (T,) stage offsets from the solve instant
    interagent: list = field(default_factory=list)  # (label, traj (T,d), min dist)
    neighbor: list = field(default_factory=list)    # (label, traj (T,d), max dist)
    obstacles: list = field(default_factory=list)   # (label, center (d,), min dist)
    workspace: Optional[tuple] = None               # (center (d,), max dist)

    @functools.cached_property
    def _columns(self):
        """Stacked columns (anchors (T, C, d), sign (C,), offset (C,), kinds
        (C,), labels): the margin of column c is
        sign[c] * |pos - anchors[:, c]| + offset[c], of kind
        MARGIN_KINDS[kinds[c]] against labels[c]."""
        entries = ([(label, traj, 1.0, -thr, 0) for label, traj, thr in self.interagent]
                   + [(label, traj, -1.0, thr, 1) for label, traj, thr in self.neighbor]
                   + [(label, center, 1.0, -thr, 2) for label, center, thr in self.obstacles])
        if self.workspace is not None:
            center, limit = self.workspace
            entries.append(("workspace", center, -1.0, limit, 3))
        T = len(self.taus)
        if not entries:  # a unit position axis broadcasts against any position
            return np.zeros((T, 0, 1)), np.zeros(0), np.zeros(0), np.zeros(0, dtype=int), []
        labels, anchors, sign, offset, kinds = zip(*entries)
        anchors = np.stack([np.broadcast_to(a, (T, np.shape(a)[-1])) for a in anchors], axis=1)
        return anchors, np.array(sign), np.array(offset), np.array(kinds), list(labels)

    @property
    def kinds(self):
        """Index in MARGIN_KINDS of each stacked column, (C,)."""
        return self._columns[3]

    @property
    def labels(self):
        """What each stacked column is measured against ("agent1", "obst0",
        "workspace"), in column order."""
        return self._columns[4]

    def _evaluate(self, pos):
        """Raw margins of positions (..., T, d) with the offsets from and
        distances to each column's anchor: (..., T, C), (..., T, C, d) and
        (..., T, C). Callers after a run read the margins here, without the
        gradient :meth:`margins` forms."""
        anchors, sign, offset = self._columns[:3]
        diff = pos[..., None, :] - anchors
        # the sum np.linalg.norm forms, so the distances are the same floats
        dist = np.sqrt(np.add.reduce(diff * diff, axis=-1))
        return sign * dist + offset, diff, dist

    def margins(self, pos):
        """Raw margins of positions (..., T, d), stacked by kind in
        `MARGIN_KINDS` order, and their gradient d margins / d pos: shapes
        (..., T, C) and (..., T, C, d).

        The gradient of a column is sign * (pos - anchor) / distance, and zero
        where the position sits on its anchor (the mean of the one-sided
        slopes, as a central difference gives).
        """
        margins, diff, dist = self._evaluate(pos)
        grad = diff * (self._columns[1] / np.where(dist > 0.0, dist, np.inf))[..., None]
        return margins, grad

    def tightened(self, pos, rho):
        """Margins eroded by the tube radius profile rho of shape (T,), and
        their gradient, which erosion leaves as in :meth:`margins`."""
        margins, grad = self.margins(pos)
        return margins - np.asarray(rho)[..., :, None], grad

    def window_empty(self, rho):
        """True if erosion by rho makes some separation/connectivity pair empty.

        A pair is empty when the same other agent must simultaneously be kept
        farther than its (eroded) separation threshold and closer than its
        (eroded) connectivity threshold.
        """
        rho = np.asarray(rho)
        for label_n, traj_n, thr_n in self.neighbor:
            for label_i, traj_i, thr_i in self.interagent:
                if label_n == label_i and np.any(thr_i + rho > thr_n - rho):
                    return True
        return False

    def terminal_excluded(self, goal, radius, rho_end, tol):
        """True if no position within `radius` of `goal` meets every
        last-row margin, eroded by rho_end, to within tol.

        Over that ball a column's largest margin is offset - rho_end plus
        |goal - anchor| + radius (sign +1) or minus
        max(|goal - anchor| - radius, 0) (sign -1). Reads the stacked columns
        without calling :meth:`margins`.
        """
        anchors, sign, offset = self._columns[:3]
        dist = np.linalg.norm(goal - anchors[-1], axis=-1)
        reach = np.where(sign > 0.0, dist + radius, -np.maximum(dist - radius, 0.0))
        return bool(np.any(offset - rho_end + reach < -tol))


def tube_profile_radii(profile: TubeProfile, taus):
    """Tube radii over a grid of stage offsets."""
    return np.array([tube_radius(profile, t) for t in np.asarray(taus, dtype=float)])

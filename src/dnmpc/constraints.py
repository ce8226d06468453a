"""World model, per-agent stage margins and their tube tightening.

All workspace constraints (inter-agent separation, connectivity, obstacle and
workspace-boundary clearance) are distance margins: nonnegative means
satisfied. Erosion of the constraint set by the disturbance tube is realized
as scalar margin reduction by the tube radius, which is exact for these
1-Lipschitz distance margins. Each margin's gradient in the position is the
unit vector ±(p - anchor)/|p - anchor|, which :meth:`StageGeometry.margins`
returns with the margins. The same distances, taken on a logged run, feed
the CSV margin columns and the verifier (:func:`logged_distances`).
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
    "LoggedDistances",
    "logged_distances",
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
        """Stacked columns (anchors (T, C, d), sign (C,), offset (C,)): the
        margin of column c is sign[c] * |pos - anchors[:, c]| + offset[c]."""
        entries = ([(traj, 1.0, -thr) for _, traj, thr in self.interagent]
                   + [(traj, -1.0, thr) for _, traj, thr in self.neighbor]
                   + [(center, 1.0, -thr) for _, center, thr in self.obstacles])
        if self.workspace is not None:
            center, limit = self.workspace
            entries.append((center, -1.0, limit))
        if not entries:
            return None
        T = len(self.taus)
        anchors = np.stack([np.broadcast_to(a, (T, np.shape(a)[-1])) for a, _, _ in entries],
                           axis=1)
        return (anchors, np.array([s for _, s, _ in entries]),
                np.array([o for _, _, o in entries]))

    def margins(self, pos):
        """Raw margins of positions (..., T, d), stacked by kind in
        `MARGIN_KINDS` order, and their gradient d margins / d pos: shapes
        (..., T, C) and (..., T, C, d).

        The gradient of a column is sign * (pos - anchor) / distance, and zero
        where the position sits on its anchor (the mean of the one-sided
        slopes, as a central difference gives).
        """
        if self._columns is None:
            empty = np.zeros(pos.shape[:-1] + (0,))
            return empty, np.zeros(empty.shape + pos.shape[-1:])
        anchors, sign, offset = self._columns
        diff = pos[..., None, :] - anchors
        # the sum np.linalg.norm forms, so the distances are the same floats
        dist = np.sqrt(np.add.reduce(diff * diff, axis=-1))
        grad = diff * (sign / np.where(dist > 0.0, dist, np.inf))[..., None]
        return sign * dist + offset, grad

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
        if self._columns is None:
            return False
        anchors, sign, offset = self._columns
        dist = np.linalg.norm(goal - anchors[-1], axis=-1)
        reach = np.where(sign > 0.0, dist + radius, -np.maximum(dist - radius, 0.0))
        return bool(np.any(offset - rho_end + reach < -tol))


def tube_profile_radii(profile: TubeProfile, taus):
    """Tube radii over a grid of stage offsets."""
    return np.array([tube_radius(profile, t) for t in np.asarray(taus, dtype=float)])


@dataclass
class LoggedDistances:
    """Distances from one agent's logged positions, one row per logged sample."""

    agents: np.ndarray     # (T, n): to each agent, aligned by timestamp; own column NaN
    obstacles: np.ndarray  # (T, L): to each obstacle centre
    workspace: np.ndarray  # (T,): to the workspace centre


def logged_distances(world: WorldModel, times, positions):
    """Distances on every logged sample of every agent.

    `times[i]` (T_i,) and `positions[i]` (T_i, d) are agent i's logged
    samples; the logs may differ in length, as in a partial log. Another
    agent is taken at its first logged sample at or after each time, and at
    its last one beyond the end of its log. Margins are thresholds applied to
    these distances; callers choose their own thresholds.
    """
    n = len(positions)
    centers = [obstacle.center for obstacle in world.obstacles]
    out = []
    for i in range(n):
        p_i = positions[i]
        to_agents = np.full((len(p_i), n), np.nan)
        for j in range(n):
            if j != i:
                idx = np.minimum(np.searchsorted(times[j], times[i]), len(times[j]) - 1)
                to_agents[:, j] = np.linalg.norm(p_i - positions[j][idx], axis=1)
        to_obstacles = np.empty((len(p_i), len(centers)))
        for ell, center in enumerate(centers):
            to_obstacles[:, ell] = np.linalg.norm(p_i - center, axis=1)
        out.append(LoggedDistances(
            agents=to_agents, obstacles=to_obstacles,
            workspace=np.linalg.norm(p_i - world.workspace.center, axis=1)))
    return out

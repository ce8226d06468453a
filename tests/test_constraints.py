import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnmpc.constraints import MARGIN_KINDS, StageGeometry, WorldModel, tube_profile_radii
from dnmpc.coordination import Simulation
from dnmpc.dynamics import UNICYCLE
from dnmpc.ocp import OcpConfig
from dnmpc.setalg import Ball, TubeProfile, tube_radius


def _world(n=2):
    return WorldModel(
        workspace=Ball([0.0, 0.0], 10.0),
        obstacles=[Ball([3.0, 0.0], 1.0)],
        agent_radii=[0.5] * n,
        sensing_ranges=[2.0] * n,
        detection_ranges=[4.0] * n,
        margin=0.01,
        neighbor_sets=[frozenset({1}), frozenset({0})][:n],
    )


def _simulation():
    """Two agents at rest, agent 1 at (1.5, 0) within agent 0's sensing
    range, the obstacle at (3, 0) within its detection range."""
    cfg = OcpConfig(h=0.1, T_p=0.3, Q=np.eye(3), R=np.eye(2), P=np.eye(3),
                    eps_omega=0.01, eps_psi=0.1, u_bar=2.0)
    starts = [np.array([0.0, 0.0, 0.0]), np.array([1.5, 0.0, 0.0])]
    sim = Simulation(world=_world(), models=[UNICYCLE] * 2,
                     references=starts, config=cfg, profile=TubeProfile(0.1, 2.0),
                     schedule=[0, 1], disturbances=[None, None],
                     initial_states=starts, total_time=0.3)
    sim._bootstrap_board()
    sim._update_known_obstacles(0)
    return sim


def test_world_model_validates_margin():
    with pytest.raises(ValueError):
        WorldModel(Ball([0, 0], 5.0), [], [0.5], [2.0], [4.0], margin=0.0)


def test_world_model_sensing_vs_radii():
    with pytest.raises(ValueError):
        WorldModel(Ball([0, 0], 5.0), [], [0.5, 0.6], [1.0, 1.0], [4.0, 4.0], margin=0.01)


def test_terminal_set_ordering():
    """The terminal set Omega must lie strictly inside Psi."""
    with pytest.raises(ValueError, match="eps_omega < eps_psi"):
        OcpConfig(h=0.1, T_p=0.6, Q=np.eye(3), R=np.eye(2), P=np.eye(3),
                  eps_omega=0.1, eps_psi=0.05, u_bar=1.0)


_OTHER = np.array([[2.0, 0.0], [2.5, 0.0], [3.0, 0.0]])  # agent1 on the three stages
_OBSTACLE = np.array([0.0, 5.0])


def _geometry():
    return StageGeometry(taus=np.array([0.1, 0.2, 0.3]),
                         interagent=[("agent1", _OTHER, 1.01)],
                         neighbor=[("agent1", _OTHER, 1.99)],
                         obstacles=[("obst0", _OBSTACLE, 1.51)],
                         workspace=(np.zeros(2), 9.49))


def test_geometry_margins_shape_and_values():
    geo = _geometry()
    pos = np.zeros((1, 3, 2))  # sit at the origin for all stages
    m, _ = geo.margins(pos)
    assert m.shape == (1, 3, 4)
    # inter-agent: distance 2.0 - 1.01
    assert m[0, 0, 0] == pytest.approx(0.99)
    # neighbor: 1.99 - 2.0 (violated at stage 0)
    assert m[0, 0, 1] == pytest.approx(-0.01)
    # obstacle: 5 - 1.51
    assert m[0, 0, 2] == pytest.approx(3.49)
    # workspace: 9.49 - 0
    assert m[0, 0, 3] == pytest.approx(9.49)


def test_geometry_margins_stacked_match_per_column_distances():
    """The geometry keeps only its stacked columns, and each column's margin
    is its entry's distance margin."""
    geo = _geometry()
    assert set(vars(geo)) == {"anchors", "sign", "offset", "kinds", "labels"}
    assert geo.labels == ["agent1", "agent1", "obst0", "workspace"]
    assert list(geo.kinds) == [0, 1, 2, 3]
    pos = np.random.default_rng(2).normal(scale=3.0, size=(5, 3, 2))

    def dist(anchor):
        return np.linalg.norm(pos - anchor, axis=-1)

    per_column = np.stack([dist(_OTHER) - 1.01, 1.99 - dist(_OTHER), dist(_OBSTACLE) - 1.51,
                           9.49 - dist(np.zeros(2))], axis=-1)
    assert np.array_equal(geo.margins(pos)[0], per_column)
    margins, grad = StageGeometry(taus=np.array([0.1, 0.2, 0.3])).margins(pos)
    assert margins.shape == (5, 3, 0)
    assert grad.shape == (5, 3, 0, 2)


def _central_difference(fn, pos, eps=1e-6):
    """d fn / d pos by central differences: shape fn(pos).shape + (d,)."""
    cols = []
    for k in range(pos.shape[-1]):
        step = np.zeros(pos.shape[-1])
        step[k] = eps
        cols.append((fn(pos + step) - fn(pos - step)) / (2.0 * eps))
    return np.stack(cols, axis=-1)


def test_geometry_gradient_matches_central_differences():
    """Every kind, the negative-sign neighbor and workspace columns included,
    raw and tightened."""
    geo = _geometry()
    pos = np.random.default_rng(3).normal(scale=3.0, size=(5, 3, 2))
    rho = np.array([0.1, 0.2, 0.3])
    _, grad = geo.margins(pos)
    assert grad.shape == (5, 3, len(MARGIN_KINDS), 2)
    fd = _central_difference(lambda p: geo.margins(p)[0], pos)
    assert np.abs(grad - fd).max() <= 1e-8
    # unit vectors, pointing away from the anchor for the lower bounds and
    # towards it for the neighbor and workspace upper bounds
    assert np.allclose(np.linalg.norm(grad, axis=-1), 1.0)
    assert np.allclose(grad[..., 0, :], -grad[..., 1, :])
    assert np.all(np.sum(grad[..., 0, :] * (pos - _OTHER), axis=-1) > 0.0)
    _, tightened_grad = geo.tightened(pos, rho)
    assert np.array_equal(tightened_grad, grad)
    fd = _central_difference(lambda p: geo.tightened(p, rho)[0], pos)
    assert np.abs(tightened_grad - fd).max() <= 1e-8


def test_geometry_gradient_zero_on_anchor():
    geo = _geometry()
    pos = np.zeros((3, 2))  # on the workspace centre at every stage
    _, grad = geo.margins(pos)
    assert np.array_equal(grad[:, 3], np.zeros((3, 2)))
    assert np.all(np.linalg.norm(grad[:, :3], axis=-1) > 0.99)
    # the central difference of |p| at its kink is zero too
    fd = _central_difference(lambda p: geo.margins(p)[0], pos)
    assert np.array_equal(fd[:, 3], np.zeros((3, 2)))


def test_margin_fn_jacobian_is_position_gradient_with_zero_heading():
    """The engine's margin function: error Jacobian against central
    differences, with the heading column exactly zero."""
    sim = _simulation()
    taus = np.array([0.1, 0.2, 0.3])
    geo = sim._geometry(0, 0.0, taus)
    rho = tube_profile_radii(TubeProfile(0.1, 2.0), taus)
    margin_fn = sim._margin_fn(0, geo, rho)
    errors = np.random.default_rng(5).normal(scale=0.5, size=(3, 3))
    margins, jac = margin_fn(errors)
    assert jac.shape == (3, len(MARGIN_KINDS), 3)
    assert np.array_equal(jac[..., 2], np.zeros((3, len(MARGIN_KINDS))))
    fd = _central_difference(lambda e: margin_fn(e)[0], errors)
    assert np.abs(jac - fd).max() <= 1e-8
    assert np.array_equal(margins, geo.tightened(errors[:, :2] + sim.errordyns[0].z_des[:2],
                                                 rho)[0])


def test_geometry_tightening_erodes_uniformly():
    geo = _geometry()
    pos = np.zeros((1, 3, 2))
    rho = np.array([0.1, 0.2, 0.3])
    assert np.allclose(geo.tightened(pos, rho)[0], geo.margins(pos)[0] - rho[:, None])


def test_pair_windows_detection():
    geo = _geometry()
    sep, conn = geo.pair_windows()
    assert (list(sep), list(conn)) == ([1.01], [1.99])
    # an agent sensed but not a neighbor, or a neighbor not sensed, has no window
    for entries in ({"interagent": [("agent1", _OTHER, 1.01)]},
                    {"interagent": [("agent2", _OTHER, 1.01)],
                     "neighbor": [("agent1", _OTHER, 1.99)]}):
        lone = StageGeometry(taus=np.array([0.1, 0.2, 0.3]), **entries)
        assert lone.pair_windows().shape == (2, 0)


def _ball_points(goal, radius, anchors):
    """The centre of the ball around `goal`, 32 points on each of two rings
    (radius/2 and the boundary), and for each anchor the points of the ball
    farthest from and nearest to it, where a column's margin is largest
    (the nearest is the anchor itself when the ball covers it)."""
    angles = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    points = [goal[None, :], goal + 0.5 * radius * ring, goal + radius * ring]
    for anchor in anchors:
        away = goal - anchor
        norm = np.linalg.norm(away)
        unit = away / norm if norm > 0.0 else np.array([1.0, 0.0])
        points.append(goal + np.stack([radius * unit, -min(radius, norm) * unit]))
    return np.concatenate(points)


_coord = st.floats(-4.0, 4.0)


@given(columns=st.lists(st.tuples(st.sampled_from(MARGIN_KINDS), _coord, _coord,
                                  st.floats(0.0, 4.0)), min_size=1, max_size=5),
       goal=st.tuples(_coord, _coord), radius=st.floats(0.0, 1.5),
       rho_end=st.floats(0.0, 0.6))
@settings(max_examples=200, deadline=None)
def test_terminal_excluded_is_sound(columns, goal, radius, rho_end):
    """If the check excludes the ball, every sampled point of it misses some
    last-row tightened margin by more than tol; if a sampled point meets them
    all, the check does not exclude. Earlier rows do not take part."""
    tol = 1e-4
    taus = np.array([0.1, 0.2, 0.3])
    early = np.array([[40.0, 0.0], [40.0, 0.0]])  # rows 0 and 1
    entries = {"interagent": [], "neighbor": [], "obstacles": [], "workspace": None}
    anchors = []
    for k, (kind, x, y, threshold) in enumerate(columns):
        anchor = np.array([x, y])
        anchors.append(anchor)
        if kind == "inter-agent":
            entries["interagent"].append((f"agent{k}", np.vstack([early, anchor]), threshold))
        elif kind == "neighbor":
            entries["neighbor"].append((f"agent{k}", np.vstack([early, anchor]), threshold))
        elif kind == "obstacle":
            entries["obstacles"].append((f"obst{k}", anchor, threshold))
        else:
            entries["workspace"] = (anchor, threshold)
    geo = StageGeometry(taus=taus, **entries)
    goal = np.array(goal)
    excluded = geo.terminal_excluded(goal, radius, rho_end, tol)
    points = _ball_points(goal, radius, anchors)
    pos = np.repeat(points[:, None, :], len(taus), axis=1)
    last, _ = geo.tightened(pos, np.array([0.0, 0.0, rho_end]))
    meets = np.all(last[:, -1] >= -tol, axis=-1)
    assert not (excluded and meets.any())
    # tight per column: each column's best sampled point reaches the bound
    # unless the check excludes
    if not excluded:
        assert np.all(last[:, -1].max(axis=0) >= -tol - 1e-9)


def test_terminal_excluded_hand_built():
    tol = 1e-4
    # sign +1: an obstacle at the origin to be kept 1.0 away
    obstacle = StageGeometry(taus=np.array([0.1, 0.2]), obstacles=[("obst0", np.zeros(2), 1.0)])
    goal = np.array([0.5, 0.0])
    # farthest point of the ball is 0.7 away: margin -0.3
    assert obstacle.terminal_excluded(goal, 0.2, 0.0, tol)
    # 1.1 away: margin +0.1, until erosion by 0.2 takes it to -0.1
    assert not obstacle.terminal_excluded(goal, 0.6, 0.0, tol)
    assert obstacle.terminal_excluded(goal, 0.6, 0.2, tol)
    # sign -1: a neighbor at the origin on its last row, to be kept within 2.0
    neighbor = StageGeometry(taus=np.array([0.1, 0.2]),
                             neighbor=[("agent1", np.array([[3.0, 0.0], [0.0, 0.0]]), 2.0)])
    goal = np.array([3.0, 0.0])
    # nearest point of the ball is 2.5 away: margin -0.5
    assert neighbor.terminal_excluded(goal, 0.5, 0.0, tol)
    # 1.8 away: margin +0.2, until erosion by 0.3 takes it to -0.1
    assert not neighbor.terminal_excluded(goal, 1.2, 0.0, tol)
    assert neighbor.terminal_excluded(goal, 1.2, 0.3, tol)
    # the ball covers the anchor: the largest margin is the offset itself
    assert not neighbor.terminal_excluded(np.array([0.1, 0.0]), 0.5, 2.0, tol)
    assert neighbor.terminal_excluded(np.array([0.1, 0.0]), 0.5, 2.0 + 2 * tol, tol)
    # a miss by tol or less does not exclude
    assert not neighbor.terminal_excluded(goal, 1.0 - tol / 2, 0.0, tol)
    assert not StageGeometry(taus=np.array([0.1])).terminal_excluded(goal, 0.1, 0.0, tol)


def test_tube_profile_radii_cap():
    """The uncapped profile that a tube cap (Simulation's `tube_cap`) clips."""
    profile = TubeProfile(0.1, 8.5883)
    taus = np.array([0.1, 0.6])
    rho = tube_profile_radii(profile, taus)
    assert rho[0] == pytest.approx(0.0158404, abs=1e-6)
    assert rho[1] > 1.9  # exponential growth over the full horizon


def test_build_stage_constraints_counts_and_missing_prediction():
    """One margin column per constraint kind for agent 0, and a sensed agent
    with no posted prediction is an error, not a silently dropped column."""
    sim = _simulation()
    taus = np.array([0.1, 0.2, 0.3])
    geo = sim._geometry(0, 0.0, taus)
    assert geo.labels == ["agent1", "agent1", "obst0", "workspace"]
    pos = np.zeros((3, 2))
    margins, _ = geo.margins(pos)
    assert margins.shape == (3, len(MARGIN_KINDS))
    # columns in MARGIN_KINDS order: each equals a one-kind geometry's margin,
    # against agent 1's posted prediction, held at (1.5, 0)
    track = sim.board[1].positions_at(taus)
    for column, kind in enumerate(({"interagent": [("agent1", track, 1.01)]},
                                   {"neighbor": [("agent1", track, 1.99)]},
                                   {"obstacles": [("obst0", np.array([3.0, 0.0]), 1.51)]},
                                   {"workspace": (np.zeros(2), 9.49)})):
        single, _ = StageGeometry(taus=taus, **kind).margins(pos)
        assert single.shape == (3, 1)
        assert np.array_equal(margins[:, column], single[:, 0])
    del sim.board[1]
    with pytest.raises(KeyError):
        sim._geometry(0, 0.0, np.array([0.1, 0.2, 0.3]))


def test_scalar_constraint_evaluators():
    sim = _simulation()
    geo = sim._geometry(0, 0.0, np.array([0.1, 0.2, 0.3]))
    m, _ = geo.margins(np.zeros((3, 2)))
    assert m[0, 0] == pytest.approx(1.5 - 1.01)   # inter-agent
    assert m[0, 1] == pytest.approx(1.99 - 1.5)   # neighbor
    assert m[0, 2] == pytest.approx(3.0 - 1.51)   # obstacle
    assert m[0, 3] == pytest.approx(9.49)         # workspace


def test_tighten_is_identity_at_zero_offset():
    geo = _simulation()._geometry(0, 0.0, np.array([0.1, 0.2, 0.3]))
    profile = TubeProfile(0.1, 8.5883)
    pos = np.tile([0.2, -0.1], (3, 1))
    same, _ = geo.tightened(pos, tube_profile_radii(profile, np.zeros(3)))
    assert np.array_equal(same, geo.margins(pos)[0])


@given(tau=st.floats(0.01, 0.5), margin_scale=st.floats(0.1, 2.0))
@settings(max_examples=50, deadline=None)
def test_tighten_shifts_by_tube_radius(tau, margin_scale):
    """Every margin column drops by exactly tube_radius(tau) at stage offset tau."""
    geo = _geometry()
    pos = np.tile([-margin_scale, 0.0], (3, 1))
    profile = TubeProfile(0.1, 2.0)
    rho = tube_radius(profile, tau)
    tightened, _ = geo.tightened(pos, tube_profile_radii(profile, np.full(3, tau)))
    assert np.allclose(tightened, geo.margins(pos)[0] - rho, rtol=0.0, atol=1e-12)

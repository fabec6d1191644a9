import numpy as np
import pytest

from comotion.kin import (
    STALL_REL,
    IkSolution,
    KinematicChain,
    Joint,
    _frames,
    _prior_descent,
    _prior_score,
    default_arm_chain,
    fk,
    fk_pose,
    ik_with_prior,
    jacobian,
    load_chain,
    rotation_about,
    translation,
)


def planar_chain(lengths=(1.0, 1.0)) -> KinematicChain:
    """N-link planar chain in the xy plane, links along x, z rotation axes."""
    joints = []
    offset = np.eye(4)
    for length in lengths:
        joints.append(Joint(offset, np.array([0.0, 0.0, 1.0]), -np.pi, np.pi))
        offset = translation([length, 0.0, 0.0])
    return KinematicChain(tuple(joints), np.eye(4), offset)


def test_fk_two_link_extended():
    c = planar_chain((1.0, 1.0))
    np.testing.assert_allclose(fk(c, [0.0, 0.0]), [2.0, 0.0, 0.0], atol=1e-12)


def test_fk_two_link_quarter_turn():
    c = planar_chain((1.0, 1.0))
    np.testing.assert_allclose(fk(c, [np.pi / 2, 0.0]), [0.0, 2.0, 0.0], atol=1e-12)


def test_fk_matches_explicit_matrix_product():
    chain = default_arm_chain()
    rng = np.random.default_rng(0)
    lo, hi = chain.limits
    for _ in range(10):
        q = rng.uniform(lo, hi)
        t = chain.base.copy()
        for joint, qi in zip(chain.joints, q):
            t = t @ joint.offset @ rotation_about(joint.axis, qi)
        t = t @ chain.tool
        np.testing.assert_allclose(fk(chain, q), t[:3, 3], atol=1e-12)
        np.testing.assert_allclose(fk_pose(chain, q), t, atol=1e-12)


def test_fk_association_order_independent():
    rng = np.random.default_rng(1)
    for _ in range(5):
        joints = tuple(
            Joint(
                translation(rng.uniform(-0.3, 0.3, 3)),
                np.eye(3)[rng.integers(0, 3)],
                -np.pi,
                np.pi,
            )
            for _ in range(4)
        )
        chain = KinematicChain(joints, np.eye(4), translation([0.1, 0, 0]))
        q = rng.uniform(-1, 1, 4)
        mats = [j.offset @ rotation_about(j.axis, qi) for j, qi in zip(chain.joints, q)]
        mats = [chain.base] + mats + [chain.tool]
        left = mats[0]
        for m in mats[1:]:
            left = left @ m
        right = mats[-1]
        for m in mats[-2::-1]:
            right = m @ right
        np.testing.assert_allclose(left, right, atol=1e-12)
        np.testing.assert_allclose(fk(chain, q), left[:3, 3], atol=1e-12)


def test_fk_clamps_out_of_limit():
    chain = default_arm_chain()
    lo, hi = chain.limits
    over = hi + 1.0
    np.testing.assert_allclose(fk(chain, over), fk(chain, hi), atol=1e-12)


def test_joint_requires_unit_axis():
    with pytest.raises(ValueError, match="unit"):
        Joint(np.eye(4), np.array([1.0, 1.0, 0.0]), -1.0, 1.0)


def test_ik_already_solved_returns_init():
    c = planar_chain((1.0, 1.0))
    q0 = np.array([0.4, -0.7])
    sol = ik_with_prior(c, fk(c, q0), q0, 1.0, 0.0)
    np.testing.assert_allclose(sol.q, q0, atol=1e-12)
    assert sol.residual < 1e-10
    assert sol.iterations <= 1 and sol.converged


def test_ik_reachable_targets_converge():
    """At lambda_q = 0 the prior only picks the warm start: from the zero
    configuration, as ``comotion ik-demo``'s baseline starts, and from a
    random one, every reachable target is reached."""
    rng = np.random.default_rng(2)
    for chain in (planar_chain((1.0, 1.0)), default_arm_chain()):
        lo, hi = chain.limits
        for _ in range(25):
            target = fk(chain, rng.uniform(lo, hi))
            for start in (np.zeros(chain.n_joints), rng.uniform(lo, hi)):
                sol = ik_with_prior(chain, target, start, 1.0, 0.0)
                assert sol.residual < 1e-4
                np.testing.assert_allclose(fk(chain, sol.q), target, atol=2e-4)


def test_ik_unreachable_reports_gap():
    c = planar_chain((1.0, 1.0))
    sol = ik_with_prior(c, [3.0, 0.0, 0.0], np.zeros(2), 1.0, 0.0)
    assert sol.residual == pytest.approx(1.0, abs=1e-3)


def test_ik_rejects_non_finite_target():
    with pytest.raises(ValueError, match="finite"):
        ik_with_prior(planar_chain(), [np.nan, 0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        ik_with_prior(planar_chain(), [1.0, 0.0, 0.0], [np.nan, 0.0])
    with pytest.raises(ValueError, match="finite"):
        ik_with_prior(planar_chain(), [1.0, 0.0, 0.0], [0.0, 0.0], q_init=[0.0, np.inf])


def test_ik_prior_consistent_target_is_fixed_point():
    chain = default_arm_chain()
    mu_q = np.array([0.3, 0.2, -0.5, 1.0])
    sol = ik_with_prior(chain, fk(chain, mu_q), mu_q)
    np.testing.assert_array_equal(sol.q, mu_q)
    assert sol.iterations == 0 and sol.converged


def test_ik_prior_dominates_at_huge_lambda_q():
    chain = default_arm_chain()
    mu_q = np.array([0.3, 0.2, -0.5, 1.0])
    target = fk(chain, mu_q) + np.array([0.08, 0.0, 0.0])
    sol = ik_with_prior(chain, target, mu_q, 1.0, 1e9)
    assert np.abs(sol.q - mu_q).max() < 1e-4


def test_ik_prior_matches_grid_search_oracle():
    chain = planar_chain((1.0, 1.0))
    rng = np.random.default_rng(3)
    lo, hi = chain.limits
    n = 1000  # 10^6 grid points over the 2-d joint box
    g1 = np.linspace(lo[0], hi[0], n)
    g2 = np.linspace(lo[1], hi[1], n)
    pos_l1 = np.stack([np.cos(g1), np.sin(g1)], axis=1)
    for _ in range(10):
        mu_q = rng.uniform(lo, hi)
        target = fk(chain, rng.uniform(lo, hi))[:2] + rng.normal(0, 0.1, 2)
        lam_x, lam_q = 1.0, 0.01
        sol = ik_with_prior(chain, [target[0], target[1], 0.0], mu_q, lam_x, lam_q)
        obj = lam_x * sol.residual**2 + lam_q * float(((sol.q - mu_q) ** 2).sum())
        # vectorized objective over the full grid
        ang = g1[:, None] + g2[None, :]
        ee_x = pos_l1[:, 0][:, None] + np.cos(ang)
        ee_y = pos_l1[:, 1][:, None] + np.sin(ang)
        task = (ee_x - target[0]) ** 2 + (ee_y - target[1]) ** 2
        prior = (g1[:, None] - mu_q[0]) ** 2 + (g2[None, :] - mu_q[1]) ** 2
        best = float((lam_x * task + lam_q * prior).min())
        assert obj <= best + 1e-3


def test_ik_prior_lambda_q_zero_matches_baseline_residual():
    """The baseline ``comotion ik-demo`` prints is ``ik_with_prior`` at
    lambda_q = 0 from the zero configuration; from any other prior the same
    lambda_q = 0 solve reaches the same residual."""
    chain = planar_chain((1.0, 1.0))
    rng = np.random.default_rng(4)
    lo, hi = chain.limits
    for _ in range(10):
        target = fk(chain, rng.uniform(lo, hi))
        base = ik_with_prior(chain, target, np.zeros(chain.n_joints), 1.0, 0.0)
        prior = ik_with_prior(chain, target, rng.uniform(lo, hi), 1.0, 0.0, grad_tol=1e-9)
        assert abs(base.residual - prior.residual) < 1e-4


def test_ik_prior_run_ending_on_a_joint_limit_converges():
    """A minimum on the boundary of the joint box is a converged solution:
    the joint pinned there by the gradient takes no step and is left out of
    the gradient test, so the run ends long before ``max_iters``."""
    z = np.array([0.0, 0.0, 1.0])
    chain = KinematicChain(
        (Joint(np.eye(4), z, -0.5, 0.5), Joint(translation([1.0, 0.0, 0.0]), z, -np.pi, np.pi)),
        np.eye(4),
        translation([1.0, 0.0, 0.0]),
    )
    # straight up from the base: the first joint would swing past its 0.5 limit
    sol = ik_with_prior(chain, [0.0, 1.5, 0.0], np.zeros(2), restarts=0)
    assert sol.q[0] == 0.5
    assert sol.converged
    assert sol.iterations < 50


def test_ik_prior_rejects_negative_weights():
    with pytest.raises(ValueError, match="non-negative"):
        ik_with_prior(planar_chain(), [1.0, 0.0, 0.0], [0.0, 0.0], -1.0, 0.01)


@pytest.mark.parametrize("lambda_x, lambda_q", [(np.nan, 0.01), (1.0, np.nan), (np.inf, 0.01),
                                                (1.0, np.inf)])
def test_ik_prior_rejects_non_finite_weights(lambda_x, lambda_q):
    with pytest.raises(ValueError, match="must be finite"):
        ik_with_prior(planar_chain(), [1.0, 0.0, 0.0], [0.0, 0.0], lambda_x, lambda_q)


@pytest.mark.parametrize("kwargs", [{"restarts": -1}, {"max_iters": -1}, {"grad_tol": -1e-6},
                                    {"grad_tol": np.nan}, {"grad_tol": np.inf}])
def test_ik_prior_rejects_negative_counts_and_a_bad_gradient_tolerance(kwargs):
    with pytest.raises(ValueError, match="must be (finite and )?non-negative"):
        ik_with_prior(planar_chain(), [1.0, 0.0, 0.0], [0.0, 0.0], **kwargs)


@pytest.mark.parametrize("target, mu_q, lambda_x, lambda_q, named", [
    ([1e300, 0.0, 0.0], [0.0, 0.0], 1.0, 0.01, "x_target"),
    ([1.0, 0.0, 0.0], [1e200, 0.0], 1.0, 0.01, "mu_q"),
    ([1.0, 0.5, 0.0], [0.0, 0.0], 1e308, 0.01, "lambda_x"),
    ([1.0, 0.5, 0.0], [0.0, 0.0], 1.0, 1e308, "lambda_q"),
    ([1.0, 0.5, 0.0], [0.0, 0.0], 0.0, 1e308, "lambda_q"),
])
def test_ik_prior_start_out_of_range_names_the_argument(target, mu_q, lambda_x, lambda_q, named):
    """Finite arguments whose objective or system overflows at the start are
    a ValueError naming the argument, with no warning."""
    with pytest.raises(ValueError, match=f"^{named} out of range"):
        ik_with_prior(planar_chain(), target, mu_q, lambda_x, lambda_q)


@pytest.mark.parametrize("q", [[0.3], [0.3] * 5, [[0.3] * 4], 0.3])
def test_fk_rejects_joint_vectors_of_the_wrong_shape(q):
    # one value would broadcast against the four joint limits in clamp
    with pytest.raises(ValueError, match="expected 4 joint values"):
        fk(default_arm_chain(), q)


@pytest.mark.parametrize("mu_q, q_init, named", [
    ([0.0], None, "prior joint values"),
    ([0.0] * 5, None, "prior joint values"),
    ([0.0] * 4, [0.0], "initial joint values"),
    ([0.0] * 4, [0.0] * 3, "initial joint values"),
])
def test_ik_prior_rejects_joint_vectors_of_the_wrong_length(mu_q, q_init, named):
    chain = default_arm_chain()
    with pytest.raises(ValueError, match=f"expected 4 {named}"):
        ik_with_prior(chain, [0.2, 0.05, -0.1], mu_q, q_init=q_init)


@pytest.mark.parametrize("target", [[0.2, 0.05], [0.2], [[0.2, 0.05, -0.1]], [np.nan, 0.0, 0.0]])
def test_ik_prior_rejects_a_target_that_is_not_3_finite_values(target):
    with pytest.raises(ValueError, match="target position must be 3 finite values"):
        ik_with_prior(default_arm_chain(), target, np.zeros(4))


def _fk_reference(chain, q):
    """End effector by the explicit matrix product, not clamped."""
    t = chain.base.copy()
    for joint, qi in zip(chain.joints, q):
        t = t @ joint.offset @ rotation_about(joint.axis, qi)
    return (t @ chain.tool)[:3, 3]


def _central_difference_jacobian(chain, q, h=1e-6):
    jac = np.empty((3, chain.n_joints))
    for i in range(chain.n_joints):
        dq = np.zeros(chain.n_joints)
        dq[i] = h
        jac[:, i] = (_fk_reference(chain, q + dq) - _fk_reference(chain, q - dq)) / (2 * h)
    return jac


def _random_rigid(rng, spread):
    axis = rng.normal(size=3)
    return translation(rng.uniform(-spread, spread, 3)) @ rotation_about(
        axis / np.linalg.norm(axis), rng.uniform(-np.pi, np.pi)
    )


def _random_chain(rng, n):
    """Rotated link offsets, oblique joint axes, and a non-identity base and tool."""
    joints = []
    for _ in range(n):
        axis = rng.normal(size=3)
        lo = rng.uniform(-3.0, -0.2)
        hi = lo + rng.uniform(0.5, 5.0)
        joints.append(Joint(_random_rigid(rng, 0.4), axis / np.linalg.norm(axis), lo, hi))
    return KinematicChain(tuple(joints), _random_rigid(rng, 1.0), _random_rigid(rng, 0.3))


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(6)
    chains = [default_arm_chain()] + [_random_chain(rng, n) for n in (1, 3, 5, 7)]
    for chain in chains:
        lo, hi = chain.limits
        mixed = np.where(rng.random(lo.shape) < 0.5, lo, hi)
        qs = [rng.uniform(lo, hi) for _ in range(5)] + [lo, hi, mixed]
        for q in qs:
            np.testing.assert_allclose(
                jacobian(chain, q), _central_difference_jacobian(chain, q), rtol=0, atol=1e-7
            )


def test_fk_points_match_matrix_product():
    """Joint origins, end effector and Jacobian of a batch of nine
    configurations against the explicit matrix product, one configuration
    at a time, with each Jacobian column the cross product of the joint's
    world axis and its offset to the end effector."""
    rng = np.random.default_rng(7)
    for chain in (default_arm_chain(), planar_chain((1.0, 0.7, 0.4)), _random_chain(rng, 5)):
        lo, hi = chain.limits
        qs = rng.uniform(lo, hi, size=(9, chain.n_joints))
        points, jac = _frames(chain, qs)
        assert points.shape == (9, chain.n_joints + 1, 3)
        assert jac.shape == (9, 3, chain.n_joints)
        for b, q in enumerate(qs):
            t = chain.base.copy()
            origins, axes = [], []
            for joint, qi in zip(chain.joints, q):
                t = t @ joint.offset @ rotation_about(joint.axis, qi)
                origins.append(t[:3, 3])
                axes.append(t[:3, :3] @ joint.axis)
            expected = np.vstack(origins + [(t @ chain.tool)[:3, 3]])
            columns = [np.cross(a, expected[-1] - o) for a, o in zip(axes, origins)]
            np.testing.assert_allclose(points[b], expected, rtol=0, atol=1e-12)
            np.testing.assert_allclose(jac[b], np.array(columns).T, rtol=0, atol=1e-12)


def test_ik_prior_restart_batch_matches_separate_runs():
    """Each start of the batched restart search runs as it would alone: the
    result is the best of nine single-start calls from the same starts, ties
    going to the earliest, and the iterations are their sum."""
    chain = default_arm_chain()
    rng = np.random.default_rng(8)
    lo, hi = chain.limits
    mu_qs = [rng.uniform(lo, hi) for _ in range(20)]
    targets = [fk(chain, rng.uniform(lo, hi)) + rng.normal(0.0, 0.03, 3) for _ in range(18)]
    targets.append(np.array([1.0, 0.5, -0.2]))  # three times the arm's reach
    targets.append(np.array([0.02, 0.0, 0.0]))  # nearer the shoulder than the elbow can fold
    ends_on_limit = 0
    for mu_q, target in zip(mu_qs, targets):
        batch = ik_with_prior(chain, target, mu_q, 1.0, 0.01, restarts=8)
        draws = np.random.default_rng(0)
        starts = [chain.clamp(mu_q)] + [draws.uniform(lo, hi) for _ in range(8)]
        alone = [
            ik_with_prior(chain, target, mu_q, 1.0, 0.01, q_init=start, restarts=0)
            for start in starts
        ]
        objs = [s.residual**2 + 0.01 * float(((s.q - mu_q) ** 2).sum()) for s in alone]
        best = alone[int(np.argmin(objs))]
        np.testing.assert_array_equal(batch.q, best.q)
        assert batch.residual == best.residual
        assert batch.converged == best.converged
        assert batch.iterations == sum(s.iterations for s in alone)
        ends_on_limit += bool(np.any((batch.q == lo) | (batch.q == hi)))
    assert ends_on_limit >= 2


def test_jacobian_matches_analytic_planar():
    c = planar_chain((1.0, 1.0))
    q = np.array([0.3, 0.8])
    jac = jacobian(c, q)
    s1, c1 = np.sin(q[0]), np.cos(q[0])
    s12, c12 = np.sin(q.sum()), np.cos(q.sum())
    expected = np.array(
        [[-s1 - s12, -s12], [c1 + c12, c12], [0.0, 0.0]]
    )
    np.testing.assert_allclose(jac, expected, atol=1e-8)


def test_fk_points_ends_at_fk():
    chain = default_arm_chain()
    q = np.array([0.2, -0.1, 0.4, 1.2])
    pts = _frames(chain, q[None])[0][0]
    np.testing.assert_allclose(pts[-1], fk(chain, q), atol=1e-12)
    assert pts.shape == (5, 3)


def test_chain_json_round_trip(tmp_path):
    chain = default_arm_chain()
    doc = {
        "joints": [
            {
                "offset": {"translation": j.offset[:3, 3].tolist()},
                "axis": j.axis.tolist(),
                "limits": [j.lo, j.hi],
            }
            for j in chain.joints
        ],
        "tool": {"translation": chain.tool[:3, 3].tolist()},
    }
    import json

    p = tmp_path / "chain.json"
    p.write_text(json.dumps(doc))
    loaded = load_chain(p)
    q = np.array([0.1, 0.2, 0.3, 0.4])
    np.testing.assert_allclose(fk(loaded, q), fk(chain, q), atol=1e-12)


# ---------------------------------------------------------------------------
# the one-start prior-IK descent against the compacting lockstep search
# ---------------------------------------------------------------------------


def _cap_step(step):
    """Scale each row of ``step`` (B, n) down so no entry exceeds 0.5 rad."""
    biggest = np.abs(step).max(axis=1, keepdims=True)
    return step * (0.5 / np.maximum(biggest, 0.5))


def prior_search_reference(chain, x_target, mu_q, lambda_x, lambda_q, starts, grad_tol, max_iters):
    """The compacting lockstep search: each round gathers the runs still
    searching, advances only them, and scatters the accepted steps back.
    Returns each run's end point, objective, task residual, iteration count
    and convergence flag."""
    lo, hi = chain.limits
    eye = np.eye(chain.n_joints)
    q = starts.copy()
    obj, rx, jac = _prior_score(chain, q, x_target, mu_q, lambda_x, lambda_q)
    lam = np.full(q.shape[0], 1e-3)
    iters = np.zeros(q.shape[0], dtype=np.int64)
    converged = obj == 0.0
    searching = ~converged
    fresh = np.ones(q.shape[0], dtype=bool)
    while searching.any():
        a = np.flatnonzero(searching)
        qa, jt = q[a], np.swapaxes(jac[a], 1, 2)
        g = 2.0 * ((lambda_x * jt @ rx[a, :, None])[..., 0] + lambda_q * (qa - mu_q))
        free = ~(((qa <= lo) & (g > 0)) | ((qa >= hi) & (g < 0)))
        g[~free] = 0.0
        flat = np.linalg.norm(g, axis=1) < grad_tol
        spent = fresh[a] & (iters[a] == max_iters)
        iters[a] += fresh[a] & ~spent
        done = fresh[a] & (flat | spent)
        converged[a[done]] = flat[done]
        searching[a[done]] = False
        go = ~done
        if not go.any():
            continue
        a, qa, jt, g, free = a[go], qa[go], jt[go], g[go], free[go]
        h = 2.0 * (lambda_x * jt @ np.swapaxes(jt, 1, 2) + lambda_q * eye)
        h = np.where(free[:, :, None] & free[:, None, :], h + lam[a, None, None] * eye, eye)
        step = np.linalg.solve(h, -g[..., None])[..., 0]
        cand = np.clip(qa + _cap_step(step), lo, hi)
        obj_cand, rx_cand, jac_cand = _prior_score(
            chain, cand, x_target, mu_q, lambda_x, lambda_q
        )
        better = obj_cand < obj[a]
        won = a[better]
        stalled = obj[won] - obj_cand[better] <= STALL_REL * obj[won]
        q[won], obj[won], rx[won], jac[won] = (
            cand[better], obj_cand[better], rx_cand[better], jac_cand[better]
        )
        lam[a] = np.where(better, np.maximum(lam[a] * 0.5, 1e-9), lam[a] * 4.0)
        fresh[a] = better
        converged[won[stalled]] = True
        searching[won[stalled]] = False
        searching[a[lam[a] >= 1e8]] = False
    return q, obj, rx, iters, converged


def ik_with_prior_reference(
    chain, x_target, mu_q, lambda_x, lambda_q, q_init=None, grad_tol=1e-6, max_iters=200,
    restarts=8,
):
    """``ik_with_prior`` on the compacting search, with the warm start scored
    alone before the restarts are drawn."""
    q0 = chain.clamp(mu_q if q_init is None else q_init)
    obj, rx, _ = _prior_score(chain, q0[None], x_target, mu_q, lambda_x, lambda_q)
    if obj[0] == 0.0:
        return IkSolution(q0, float(np.linalg.norm(rx[0])), 0, True)
    lo, hi = chain.limits
    draws = np.random.default_rng(0).uniform(lo, hi, size=(restarts, chain.n_joints))
    q, obj, rx, iters, converged = prior_search_reference(
        chain, x_target, mu_q, lambda_x, lambda_q, np.vstack([q0, draws]), grad_tol, max_iters
    )
    best = int(np.argmin(obj))
    return IkSolution(
        q[best], float(np.linalg.norm(rx[best])), int(iters.sum()), bool(converged[best])
    )


def _limit_chain():
    """Two planar links whose first joint can swing only +-0.5 rad."""
    z = np.array([0.0, 0.0, 1.0])
    return KinematicChain(
        (Joint(np.eye(4), z, -0.5, 0.5), Joint(translation([1.0, 0.0, 0.0]), z, -np.pi, np.pi)),
        np.eye(4),
        translation([1.0, 0.0, 0.0]),
    )


def _oracle_cases():
    arm = default_arm_chain()
    planar = planar_chain((1.0, 1.0))
    rng = np.random.default_rng(21)
    lo, hi = arm.limits
    cases = [
        pytest.param(
            arm, fk(arm, rng.uniform(lo, hi)) + rng.normal(0.0, 0.03, 3), rng.uniform(lo, hi),
            0.01, {}, id=f"reachable-{i}",
        )
        for i in range(6)
    ]
    mu_q = rng.uniform(lo, hi)
    return cases + [
        pytest.param(arm, np.array([1.0, 0.5, -0.2]), mu_q, 0.01, {}, id="three-times-reach"),
        pytest.param(arm, np.array([0.02, 0.0, 0.0]), mu_q, 0.01, {}, id="inside-elbow-fold"),
        pytest.param(
            _limit_chain(), np.array([0.0, 1.5, 0.0]), np.zeros(2), 0.01, {"restarts": 0},
            id="ends-on-joint-limit",
        ),
        pytest.param(
            planar, fk(planar, [0.4, 1.1]), np.array([-2.0, 0.3]), 0.0, {"grad_tol": 1e-9},
            id="lambda-q-zero",
        ),
        pytest.param(
            arm, fk(arm, rng.uniform(lo, hi)), mu_q, 0.01, {"restarts": 0}, id="no-restarts"
        ),
        pytest.param(arm, fk(arm, mu_q), mu_q, 0.01, {}, id="exact-warm-start"),
    ]


@pytest.mark.parametrize("chain, target, mu_q, lambda_q, kwargs", _oracle_cases())
def test_ik_prior_search_matches_compacting_reference(chain, target, mu_q, lambda_q, kwargs):
    """Running each start alone changes no run's arithmetic: the descent
    from each start ends on the end point, objective, task residual,
    iterations and convergence of that start's run in the compacting
    lockstep search, bit for bit, and so does the solution."""
    grad_tol = kwargs.get("grad_tol", 1e-6)
    restarts = kwargs.get("restarts", 8)
    lo, hi = chain.limits
    draws = np.random.default_rng(0).uniform(lo, hi, size=(restarts, chain.n_joints))
    starts = np.vstack([chain.clamp(mu_q), draws])
    ref_q, ref_obj, ref_rx, ref_iters, ref_conv = prior_search_reference(
        chain, target, mu_q, 1.0, lambda_q, starts, grad_tol, 200
    )
    for i, start in enumerate(starts):
        q, obj, rx, iters, conv = _prior_descent(
            chain, target, mu_q, 1.0, lambda_q, start[None], grad_tol, 200
        )
        np.testing.assert_array_equal(q[0], ref_q[i])
        np.testing.assert_array_equal(obj[0], ref_obj[i])
        np.testing.assert_array_equal(rx[0], ref_rx[i])
        assert (iters, conv) == (ref_iters[i], ref_conv[i])

    sol = ik_with_prior(chain, target, mu_q, 1.0, lambda_q, **kwargs)
    assert type(sol.iterations) is int and type(sol.converged) is bool
    ref = ik_with_prior_reference(chain, target, mu_q, 1.0, lambda_q, **kwargs)
    np.testing.assert_array_equal(sol.q, ref.q)
    assert (sol.residual, sol.iterations, sol.converged) == (
        ref.residual, ref.iterations, ref.converged
    )


def test_ik_prior_oracle_cases_cover_their_outcomes():
    """The cases above reach what they are named for: an exact warm start
    returns at once, a run ends on a joint limit, and the unreachable targets
    stop short."""
    cases = {p.id: p.values for p in _oracle_cases()}
    chain, target, mu_q, lambda_q, kwargs = cases["exact-warm-start"]
    assert ik_with_prior(chain, target, mu_q, 1.0, lambda_q, **kwargs).iterations == 0
    chain, target, mu_q, lambda_q, kwargs = cases["ends-on-joint-limit"]
    assert ik_with_prior(chain, target, mu_q, 1.0, lambda_q, **kwargs).q[0] == 0.5
    for name in ("three-times-reach", "inside-elbow-fold"):
        chain, target, mu_q, lambda_q, kwargs = cases[name]
        assert ik_with_prior(chain, target, mu_q, 1.0, lambda_q, **kwargs).residual > 0.01

import numpy as np
import pytest

from comotion.kin import (
    KinematicChain,
    Joint,
    default_arm_chain,
    fk,
    fk_points,
    fk_pose,
    ik_baseline,
    ik_with_prior,
    jacobian,
    load_chain,
    planar_chain,
    rotation_about,
    translation,
)


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
        mats = [chain.base] + [j.transform(qi) for j, qi in zip(chain.joints, q)] + [chain.tool]
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
    sol = ik_baseline(c, fk(c, q0), q0)
    np.testing.assert_allclose(sol.q, q0, atol=1e-12)
    assert sol.residual < 1e-10
    assert sol.iterations <= 1 and sol.converged


def test_ik_reachable_targets_converge():
    rng = np.random.default_rng(2)
    for chain in (planar_chain((1.0, 1.0)), default_arm_chain()):
        lo, hi = chain.limits
        for _ in range(25):
            target = fk(chain, rng.uniform(lo, hi))
            sol = ik_baseline(chain, target)
            assert sol.residual < 1e-4
            np.testing.assert_allclose(fk(chain, sol.q), target, atol=2e-4)


def test_ik_unreachable_reports_gap():
    c = planar_chain((1.0, 1.0))
    sol = ik_baseline(c, [3.0, 0.0, 0.0])
    assert not sol.converged
    assert sol.residual == pytest.approx(1.0, abs=1e-3)


def test_ik_rejects_non_finite_target():
    with pytest.raises(ValueError, match="finite"):
        ik_baseline(planar_chain(), [np.nan, 0.0, 0.0])
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
    chain = planar_chain((1.0, 1.0))
    rng = np.random.default_rng(4)
    lo, hi = chain.limits
    for _ in range(10):
        target = fk(chain, rng.uniform(lo, hi))
        base = ik_baseline(chain, target)
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
    rng = np.random.default_rng(7)
    for chain in (default_arm_chain(), _random_chain(rng, 5)):
        lo, hi = chain.limits
        q = rng.uniform(lo, hi)
        t = chain.base.copy()
        origins = []
        for joint, qi in zip(chain.joints, q):
            t = t @ joint.offset @ rotation_about(joint.axis, qi)
            origins.append(t[:3, 3])
        expected = np.vstack(origins + [(t @ chain.tool)[:3, 3]])
        np.testing.assert_allclose(fk_points(chain, q), expected, rtol=0, atol=1e-12)


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
    pts = fk_points(chain, q)
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

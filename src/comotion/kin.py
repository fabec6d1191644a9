"""Serial-chain forward kinematics and two position-only IK solvers.

A chain is an ordered list of revolute joints, each a fixed offset
transform followed by a rotation about a unit axis, with a final tool
transform. IK is damped least squares (Levenberg-Marquardt style
adaptation) on the geometric Jacobian, ``J_i = a_i x (p_ee - p_i)``, which
comes out of the same forward pass as the end effector, batched over
configurations. The prior-regularized variant trades task-space error
against distance to a preferred joint configuration, and runs its restarts
as one batch.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)


def rotation_about(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation as a 4x4 homogeneous transform."""
    x, y, z = axis
    c, s = math.cos(angle), math.sin(angle)
    C = 1.0 - c
    t = np.eye(4)
    t[:3, :3] = [
        [x * x * C + c, x * y * C - z * s, x * z * C + y * s],
        [y * x * C + z * s, y * y * C + c, y * z * C - x * s],
        [z * x * C - y * s, z * y * C + x * s, z * z * C + c],
    ]
    return t


def translation(xyz) -> np.ndarray:
    t = np.eye(4)
    t[:3, 3] = xyz
    return t


@dataclass(frozen=True)
class Joint:
    offset: np.ndarray  # 4x4 fixed transform preceding the rotation
    axis: np.ndarray  # unit rotation axis
    lo: float
    hi: float

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=np.float64)
        n = np.linalg.norm(axis)
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"joint axis must be a unit vector, |axis|={n}")
        if not self.lo < self.hi:
            raise ValueError(f"joint limits [{self.lo}, {self.hi}] are empty")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "offset", np.asarray(self.offset, dtype=np.float64))

    def transform(self, q: float) -> np.ndarray:
        return self.offset @ rotation_about(self.axis, q)


@dataclass(frozen=True)
class KinematicChain:
    joints: tuple[Joint, ...]
    base: np.ndarray
    tool: np.ndarray

    @property
    def n_joints(self) -> int:
        return len(self.joints)

    @property
    def limits(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([j.lo for j in self.joints])
        hi = np.array([j.hi for j in self.joints])
        return lo, hi

    def clamp(self, q: np.ndarray, warn: bool = False) -> np.ndarray:
        lo, hi = self.limits
        clamped = np.clip(q, lo, hi)
        if warn and not np.allclose(clamped, q):
            log.warning("joint vector clamped to limits: %s -> %s", q, clamped)
        return clamped

    @property
    def reach(self) -> float:
        """Upper bound on distance from base: sum of per-link offsets."""
        total = float(np.linalg.norm(self.tool[:3, 3]))
        for j in self.joints:
            total += float(np.linalg.norm(j.offset[:3, 3]))
        return total

    @cached_property
    def _link_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``offset @ rotation_about(axis, q)`` of every joint as ``a + cos(q) b
        + sin(q) c``, each term (n, 4, 4), and the joint axes, (n, 3).

        Rodrigues' rotation is ``u u^T + cos(q) (I - u u^T) + sin(q) [u]x`` for
        the unit axis ``u``; the offset is folded into each term.
        """
        n = self.n_joints
        a, b, c = np.zeros((n, 4, 4)), np.zeros((n, 4, 4)), np.zeros((n, 4, 4))
        for i, j in enumerate(self.joints):
            x, y, z = j.axis
            uu = np.outer(j.axis, j.axis)
            skew = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
            rot = j.offset[:3, :3]
            a[i] = j.offset
            a[i, :3, :3] = rot @ uu
            b[i, :3, :3] = rot @ (np.eye(3) - uu)
            c[i, :3, :3] = rot @ skew
        return a, b, c, np.array([j.axis for j in self.joints])


def fk_pose(chain: KinematicChain, q) -> np.ndarray:
    """Full end-effector pose as a 4x4 homogeneous transform."""
    q = chain.clamp(np.asarray(q, dtype=np.float64), warn=True)
    if q.shape[0] != chain.n_joints:
        raise ValueError(f"expected {chain.n_joints} joint values, got {q.shape[0]}")
    return _joint_frames(chain, q[None])[0, -1] @ chain.tool


def fk(chain: KinematicChain, q) -> np.ndarray:
    """End-effector position in meters."""
    return fk_pose(chain, q)[:3, 3]


def fk_points(chain: KinematicChain, q) -> np.ndarray:
    """Origins of every joint frame plus the end effector, shape (n+1, 3)."""
    q = chain.clamp(np.asarray(q, dtype=np.float64), warn=True)
    return _frames(chain, q[None])[0][0]


def jacobian(chain: KinematicChain, q) -> np.ndarray:
    """Geometric position Jacobian (3, n) at ``q``, which is not clamped."""
    return _frames(chain, np.asarray(q, dtype=np.float64)[None])[1][0]


def _joint_frames(chain: KinematicChain, Q: np.ndarray) -> np.ndarray:
    """World frame of every joint after its rotation, (B, n, 4, 4), for the
    configurations ``Q`` (B, n), not clamped: the one forward pass."""
    a, b, c, _ = chain._link_terms
    links = a + np.cos(Q)[..., None, None] * b + np.sin(Q)[..., None, None] * c
    frames = np.empty_like(links)
    t = chain.base
    for i in range(chain.n_joints):
        t = frames[:, i] = t @ links[:, i]
    return frames


def _frames(chain: KinematicChain, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint origins followed by the end effector (B, n+1, 3), and geometric
    position Jacobians (B, 3, n), of the configurations ``Q`` (B, n), not
    clamped, from one forward pass.

    Column i of a Jacobian is ``a_i x (p_ee - p_i)`` for the world axis
    ``a_i`` and origin ``p_i`` of joint i, with the cross product written out.
    """
    frames = _joint_frames(chain, Q)
    last = frames[:, -1]
    points = np.empty((Q.shape[0], chain.n_joints + 1, 3))
    points[:, :-1] = frames[..., :3, 3]
    points[:, -1] = last[:, :3, :3] @ chain.tool[:3, 3] + last[:, :3, 3]
    axes = (frames[..., :3, :3] @ chain._link_terms[3][..., None])[..., 0]
    d = points[:, -1:] - points[:, :-1]
    ax, ay, az = axes[..., 0], axes[..., 1], axes[..., 2]
    dx, dy, dz = d[..., 0], d[..., 1], d[..., 2]
    jac = np.stack((ay * dz - az * dy, az * dx - ax * dz, ax * dy - ay * dx), axis=1)
    return points, jac


@dataclass
class IkSolution:
    q: np.ndarray
    residual: float
    iterations: int
    converged: bool


def ik_baseline(
    chain: KinematicChain,
    x_target,
    q_init=None,
    tol: float = 1e-4,
    max_iters: int = 200,
    restarts: int = 12,
) -> IkSolution:
    """Damped-least-squares IK toward a 3D position target.

    Stalls at kinematic folds (e.g. a fully extended start) are escaped by
    deterministic restarts sampled uniformly inside the joint box.
    """
    x_target = np.asarray(x_target, dtype=np.float64)
    if not np.all(np.isfinite(x_target)):
        raise ValueError("target position must be finite")
    q0 = chain.clamp(
        np.zeros(chain.n_joints) if q_init is None else np.asarray(q_init, dtype=np.float64)
    )
    best: IkSolution | None = None
    total_iters = 0
    restart_rng = np.random.default_rng(0)
    lo, hi = chain.limits
    for attempt in range(restarts + 1):
        start = q0 if attempt == 0 else restart_rng.uniform(lo, hi)
        sol = _dls_run(chain, x_target, start, tol, max_iters)
        total_iters += sol.iterations
        if best is None or sol.residual < best.residual:
            best = sol
        if best.converged:
            break
    return IkSolution(best.q, best.residual, total_iters, best.converged)


_MAX_STEP = 0.5  # radians; large unconstrained steps jump into limit traps


def _cap_step(step: np.ndarray) -> np.ndarray:
    """Scale each row of ``step`` (B, n) down so no entry exceeds ``_MAX_STEP``."""
    biggest = np.abs(step).max(axis=1, keepdims=True)
    return step * (_MAX_STEP / np.maximum(biggest, _MAX_STEP))


def _dls_run(chain, x_target, q, tol, max_iters) -> IkSolution:
    points, jac = _frames(chain, q[None])
    r = points[0, -1] - x_target
    jac = jac[0]
    res = float(np.linalg.norm(r))
    if res < tol:
        return IkSolution(q, res, 0, True)
    lam = 1e-3
    it = 0
    for it in range(1, max_iters + 1):
        g = jac.T @ r
        if np.linalg.norm(g) < 1e-12:
            break
        jtj = jac.T @ jac
        improved = False
        while lam < 1e8:
            step = np.linalg.solve(jtj + lam * np.eye(chain.n_joints), -g)
            cand = chain.clamp(q + _cap_step(step[None])[0])
            points, jac_cand = _frames(chain, cand[None])
            r_cand = points[0, -1] - x_target
            res_cand = float(np.linalg.norm(r_cand))
            if res_cand < res:
                q, r, res, jac = cand, r_cand, res_cand, jac_cand[0]
                lam = max(lam * 0.5, 1e-9)
                improved = True
                break
            lam *= 4.0
        if res < tol:
            return IkSolution(q, res, it, True)
        if not improved:
            break
    return IkSolution(q, res, it, False)


def ik_with_prior(
    chain: KinematicChain,
    x_target,
    mu_q,
    lambda_x: float = 1.0,
    lambda_q: float = 0.01,
    q_init=None,
    grad_tol: float = 1e-6,
    max_iters: int = 200,
    restarts: int = 8,
) -> IkSolution:
    """Minimize lambda_x ||x - f(q)||^2 + lambda_q ||mu_q - q||^2.

    Warm-started at the joint-space prior; accepted steps never increase
    the objective within a run. The objective has distinct basins (elbow
    branches), so deterministic restarts are taken and the lowest objective
    wins, ties going to the earliest start. The warm start and the restarts
    run as one batch (``_prior_search``); a warm start that is already
    exact is returned with 0 iterations. ``residual`` reports the
    task-space error of the result and ``iterations`` sums all runs.
    """
    if lambda_x < 0 or lambda_q < 0:
        raise ValueError("lambda weights must be non-negative")
    x_target = np.asarray(x_target, dtype=np.float64)
    if not np.all(np.isfinite(x_target)):
        raise ValueError("target position must be finite")
    mu_q = np.asarray(mu_q, dtype=np.float64)
    q0 = mu_q if q_init is None else np.asarray(q_init, dtype=np.float64)
    if not (np.all(np.isfinite(mu_q)) and np.all(np.isfinite(q0))):
        raise ValueError("joint prior and initial joints must be finite")
    q0 = chain.clamp(q0)
    obj, rx, _ = _prior_score(chain, q0[None], x_target, mu_q, lambda_x, lambda_q)
    if obj[0] == 0.0:
        return IkSolution(q0, float(np.linalg.norm(rx[0])), 0, True)
    lo, hi = chain.limits
    restart_rng = np.random.default_rng(0)
    starts = np.vstack([q0, restart_rng.uniform(lo, hi, size=(restarts, chain.n_joints))])
    q, obj, rx, iters, converged = _prior_search(
        chain, x_target, mu_q, lambda_x, lambda_q, starts, grad_tol, max_iters
    )
    best = int(np.argmin(obj))
    return IkSolution(
        q[best], float(np.linalg.norm(rx[best])), int(iters.sum()), bool(converged[best])
    )


def _prior_score(chain, Q, x_target, mu_q, lambda_x, lambda_q):
    """Prior-IK objective (B,), task residuals (B, 3) and Jacobians (B, 3, n) at ``Q``."""
    points, jac = _frames(chain, Q)
    rx = points[:, -1] - x_target
    rq = Q - mu_q
    obj = lambda_x * np.einsum("bi,bi->b", rx, rx) + lambda_q * np.einsum("bi,bi->b", rq, rq)
    return obj, rx, jac


STALL_REL = 1e-7  # a prior-IK run stops once a step gains no more than this share


def _prior_search(chain, x_target, mu_q, lambda_x, lambda_q, starts, grad_tol, max_iters):
    """Damped Gauss-Newton descents of the prior-IK objective, one from each
    row of ``starts`` (S, n), run in lockstep.

    Each round scores one candidate for every run still searching, with one
    batched forward pass and one batched solve. A run begins an iteration
    after an accepted step; after a rejected one it retries the same point
    with four times the damping, and it gives up, unconverged, once the
    damping reaches 1e8. Joints pinned at a limit by the gradient take no
    step and are left out of the gradient test: their gradient entries are
    zero and their rows and columns of the system are the identity, which
    leaves the system of the free joints as it is. So a minimum on the joint
    box's boundary counts as converged. A run also stops, converged, once an
    accepted step lowers the objective by at most ``STALL_REL`` of its value:
    at large-residual minima Gauss-Newton converges only linearly, and the
    objective stops moving long before the absolute gradient test is met.

    Returns each run's end point, objective, task residual, iteration count
    and convergence flag. The Jacobian at an accepted point is the one from
    the pass that scored it.
    """
    lo, hi = chain.limits
    eye = np.eye(chain.n_joints)
    q = starts.copy()
    obj, rx, jac = _prior_score(chain, q, x_target, mu_q, lambda_x, lambda_q)
    lam = np.full(q.shape[0], 1e-3)
    iters = np.zeros(q.shape[0], dtype=np.int64)
    converged = obj == 0.0
    searching = ~converged
    fresh = np.ones(q.shape[0], dtype=bool)  # the next candidate begins an iteration
    while searching.any():
        a = np.flatnonzero(searching)
        qa, jt = q[a], np.swapaxes(jac[a], 1, 2)
        g = 2.0 * ((lambda_x * jt @ rx[a, :, None])[..., 0] + lambda_q * (qa - mu_q))
        free = ~(((qa <= lo) & (g > 0)) | ((qa >= hi) & (g < 0)))
        g[~free] = 0.0
        flat = np.linalg.norm(g, axis=1) < grad_tol
        # a run that begins an iteration ends on a flat gradient or a spent budget
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


# ---------------------------------------------------------------------------
# chain construction and serialization
# ---------------------------------------------------------------------------


def _transform_from_dict(d: dict | None) -> np.ndarray:
    if d is None:
        return np.eye(4)
    t = translation(d.get("translation", [0.0, 0.0, 0.0]))
    rot = d.get("rotation")
    if rot:
        t = t @ rotation_about(
            np.asarray(rot["axis"], dtype=np.float64), float(rot["angle"])
        )
    return t


def chain_from_dict(d: dict) -> KinematicChain:
    joints = tuple(
        Joint(
            _transform_from_dict(j.get("offset")),
            np.asarray(j["axis"], dtype=np.float64),
            float(j["limits"][0]),
            float(j["limits"][1]),
        )
        for j in d["joints"]
    )
    return KinematicChain(
        joints, _transform_from_dict(d.get("base")), _transform_from_dict(d.get("tool"))
    )


def load_chain(path: str | Path) -> KinematicChain:
    with open(path) as f:
        return chain_from_dict(json.load(f))


def default_arm_chain() -> KinematicChain:
    """The packaged 4-DoF arm (shoulder pitch/yaw/roll + elbow)."""
    text = resources.files("comotion").joinpath("chains/arm_4dof.json").read_text()
    return chain_from_dict(json.loads(text))


def planar_chain(lengths=(1.0, 1.0)) -> KinematicChain:
    """N-link planar chain in the xy plane, links along x, z rotation axes."""
    joints = []
    offset = np.eye(4)
    for length in lengths:
        joints.append(Joint(offset, np.array([0.0, 0.0, 1.0]), -np.pi, np.pi))
        offset = translation([length, 0.0, 0.0])
    return KinematicChain(tuple(joints), np.eye(4), offset)

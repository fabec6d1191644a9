"""Serial-chain forward kinematics and one position-only IK solver.

A chain is an ordered list of revolute joints, each a fixed offset
transform followed by a rotation about a unit axis, with a final tool
transform. IK trades task-space error against distance to a preferred
joint configuration, by damped Gauss-Newton (Levenberg-Marquardt style) on
the geometric Jacobian, ``J_i = a_i x (p_ee - p_i)``, which comes out of the
same forward pass as the end effector, batched over configurations; with
the prior's weight at 0 it is plain damped least squares. Its restarts
serve ``comotion ik-demo``'s global search over the objective's basins; the
reactive loop runs the warm start alone, at 20 Hz. Each start runs its own
descent, in order; a rejected step only raises the damping and solves again.
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

from comotion.data import read_json
from comotion.errors import ConfigError

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


@dataclass(frozen=True)
class KinematicChain:
    joints: tuple[Joint, ...]
    base: np.ndarray
    tool: np.ndarray

    @property
    def n_joints(self) -> int:
        return len(self.joints)

    @cached_property
    def limits(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper joint limits (n,), built once and shared, so read-only."""
        lo, hi = np.array([j.lo for j in self.joints]), np.array([j.hi for j in self.joints])
        lo.flags.writeable = hi.flags.writeable = False
        return lo, hi

    def clamp(self, q: np.ndarray, warn: bool = False) -> np.ndarray:
        lo, hi = self.limits
        clamped = np.clip(q, lo, hi)
        if warn and not np.allclose(clamped, q):
            log.warning("joint vector clamped to limits: %s -> %s", q, clamped)
        return clamped

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
    q = chain.clamp(_joint_vector(chain, q, "joint values"), warn=True)
    return _joint_frames(chain, q[None])[0, -1]


def _joint_vector(chain: KinematicChain, q, what: str) -> np.ndarray:
    """``q`` as a float array, checked to hold one value per joint: a vector
    of another length would broadcast against the limits in ``clamp``."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (chain.n_joints,):
        raise ValueError(f"expected {chain.n_joints} {what}, got shape {q.shape}")
    return q


def fk(chain: KinematicChain, q) -> np.ndarray:
    """End-effector position in meters."""
    return fk_pose(chain, q)[:3, 3]


def jacobian(chain: KinematicChain, q) -> np.ndarray:
    """Geometric position Jacobian (3, n) at ``q``, which is not clamped."""
    return _frames(chain, np.asarray(q, dtype=np.float64)[None])[1][0]


def _joint_frames(chain: KinematicChain, Q: np.ndarray) -> np.ndarray:
    """World frame of every joint after its rotation, then of the end effector,
    (B, n+1, 4, 4), at the configurations ``Q`` (B, n), not clamped: the one pass."""
    a, b, c, _ = chain._link_terms
    links = a + np.cos(Q)[..., None, None] * b + np.sin(Q)[..., None, None] * c
    frames = np.empty((Q.shape[0], chain.n_joints + 1, 4, 4))
    t = chain.base
    for i, link in enumerate([*np.swapaxes(links, 0, 1), chain.tool]):
        t = np.matmul(t, link, out=frames[:, i])
    return frames


_CROSS = np.cross(np.eye(3)[:, None], np.eye(3)).reshape(9, 3)  # e_k x e_l at row 3 k + l


def _frames(chain: KinematicChain, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint origins followed by the end effector (B, n+1, 3), and geometric
    position Jacobians (B, 3, n), of the configurations ``Q`` (B, n), not
    clamped, from one forward pass.

    Column i of a Jacobian is ``a_i x (p_ee - p_i)`` for the world axis
    ``a_i`` and origin ``p_i`` of joint i: the outer products of the axes and
    offsets contracted with the Levi-Civita symbol.
    """
    frames = _joint_frames(chain, Q)
    points = frames[..., :3, 3]
    axes = (frames[:, :-1, :3, :3] @ chain._link_terms[3][..., None])[..., 0]
    d = points[:, -1:] - points[:, :-1]
    outer = (axes[..., :, None] * d[..., None, :]).reshape(*d.shape[:2], 9)
    return points, np.swapaxes(outer @ _CROSS, 1, 2)


@dataclass
class IkSolution:
    q: np.ndarray
    residual: float
    iterations: int
    converged: bool


_MAX_STEP = 0.5  # radians, the largest entry of a step; larger ones jump into limit traps


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
    wins, ties going to the earliest start. The warm start, then each
    restart, runs its own ``_prior_descent``; a warm start that is already
    exact is returned with 0 iterations. ``residual`` reports the task-space
    error of the result and ``iterations`` sums all runs. ValueError when
    ``restarts`` or ``max_iters`` is negative, ``grad_tol`` is not finite
    and non-negative, or a start is out of range (see ``_prior_descent``).
    """
    if not all(0.0 <= v < math.inf for v in (lambda_x, lambda_q, grad_tol)):  # a nan fails too
        raise ValueError(f"lambda weights and grad_tol must be finite and non-negative: "
                         f"{lambda_x}, {lambda_q}, {grad_tol}")
    if restarts < 0 or max_iters < 0:
        raise ValueError(f"restarts {restarts} and max_iters {max_iters} must be non-negative")
    x_target = np.asarray(x_target, dtype=np.float64)
    if x_target.shape != (3,) or not np.all(np.isfinite(x_target)):
        raise ValueError(f"target position must be 3 finite values, got {x_target.tolist()}")
    mu_q = _joint_vector(chain, mu_q, "prior joint values")
    q0 = mu_q if q_init is None else _joint_vector(chain, q_init, "initial joint values")
    if not (np.all(np.isfinite(mu_q)) and np.all(np.isfinite(q0))):
        raise ValueError("joint prior and initial joints must be finite")
    draws = np.random.default_rng(0).uniform(*chain.limits, (restarts, len(q0))) if restarts else ()
    runs = []
    for start in [chain.clamp(q0), *draws]:
        runs.append(_prior_descent(chain, x_target, mu_q, lambda_x, lambda_q, start[None],
                                   grad_tol, max_iters))
        if runs[0][1][0] == 0.0 and runs[0][3] == 0:  # an exact warm start is the answer
            break
    q, _, rx, _, converged = min(runs, key=lambda run: run[1][0])  # the first of equals
    return IkSolution(q[0], float(np.linalg.norm(rx[0])), sum(run[3] for run in runs),
                      bool(converged))


def _prior_score(chain, Q, x_target, mu_q, lambda_x, lambda_q):
    """Prior-IK objective (B,), task residuals (B, 3) and Jacobians (B, 3, n) at ``Q``."""
    points, jac = _frames(chain, Q)
    rx = points[:, -1] - x_target
    rq = Q - mu_q
    obj = lambda_x * (rx * rx).sum(axis=1) + lambda_q * (rq * rq).sum(axis=1)
    return obj, rx, jac


STALL_REL = 1e-7  # a prior-IK run stops once a step gains no more than this share


def _prior_descent(chain, x_target, mu_q, lambda_x, lambda_q, q, grad_tol, max_iters):
    """Damped Gauss-Newton descent of the prior-IK objective from ``q`` (1, n):
    the end point (1, n), its objective (1,) and task residual (1, 3), the
    iteration count and the convergence flag.

    Each accepted point (the start is one) forms the gradient and undamped
    system once and runs the convergence tests; a rejected step only raises
    the damping fourfold and solves again, and the run gives up, unconverged,
    at 1e8. Joints pinned at a limit by the gradient take no step: their
    gradient entries are zero and their rows and columns of the system the
    identity, so a minimum on the joint box's boundary counts as converged.
    So does a step that lowers the objective by at most ``STALL_REL`` of it,
    as Gauss-Newton converges only linearly at large-residual minima. No
    overflow warns: a start whose objective or system is not finite is a
    ValueError naming the argument at fault, a candidate's is rejected.
    """
    lo, hi = chain.limits
    eye = np.eye(chain.n_joints)
    prior_h = lambda_q * eye
    lam, iters = 1e-3, 0
    with np.errstate(over="ignore", invalid="ignore"):
        obj, rx, jac = _prior_score(chain, q, x_target, mu_q, lambda_x, lambda_q)
        while True:
            xjt = lambda_x * np.swapaxes(jac, 1, 2)
            g = 2.0 * ((xjt @ rx[:, :, None])[..., 0] + lambda_q * (q - mu_q))
            system = 2.0 * (xjt @ jac + prior_h)
            if iters == 0 and not (np.isfinite(obj[0]) and np.isfinite(system).all()):
                # the target or prior whose squared distance overflows, else the larger weight
                task, prior = (rx * rx).sum(), ((q - mu_q) ** 2).sum()
                heavy_x = lambda_x * max(task, (jac * jac).sum()) > lambda_q * max(prior, 1.0)
                name = ("x_target" if task == np.inf else "mu_q" if prior == np.inf
                        else "lambda_x" if heavy_x else "lambda_q")
                raise ValueError(f"{name} out of range: the prior-IK objective or system at the "
                                 f"start {q[0].tolist()} is not finite")
            if iters == 0 and obj[0] == 0.0:
                return q, obj, rx, 0, True
            at_lo, at_hi, free = q <= lo, q >= hi, None  # None: every joint free
            if (at_lo | at_hi).any():
                free = ~((at_lo & (g > 0)) | (at_hi & (g < 0)))
                g = np.where(free, g, 0.0)
            flat = np.sqrt((g * g).sum(axis=1))[0] < grad_tol
            if iters == max_iters:
                return q, obj, rx, iters, flat
            iters += 1
            if flat:
                return q, obj, rx, iters, True
            while True:
                h = system + lam * eye
                if free is not None:
                    h = np.where(free[:, :, None] & free[:, None, :], h, eye)
                step = np.linalg.solve(h, -g[..., None])[..., 0]
                step *= _MAX_STEP / max(np.abs(step).max(), _MAX_STEP)
                cand = np.minimum(np.maximum(q + step, lo), hi)
                obj_c, rx_c, jac_c = _prior_score(chain, cand, x_target, mu_q, lambda_x, lambda_q)
                if obj_c[0] < obj[0]:
                    break
                lam *= 4.0
                if lam >= 1e8:
                    return q, obj, rx, iters, False
            stalled = obj[0] - obj_c[0] <= STALL_REL * obj[0]
            q, obj, rx, jac = cand, obj_c, rx_c, jac_c
            lam = max(lam * 0.5, 1e-9)
            if stalled:
                return q, obj, rx, iters, True


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
    """Read a chain file; one that is missing, unreadable or malformed is a
    ConfigError naming the file."""
    doc = read_json(path, "chain file", ConfigError)
    try:
        return chain_from_dict(doc)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"chain file {path}: {exc!r}") from None


def default_arm_chain() -> KinematicChain:
    """The packaged 4-DoF arm (shoulder pitch/yaw/roll + elbow)."""
    text = resources.files("comotion").joinpath("chains/arm_4dof.json").read_text()
    return chain_from_dict(json.loads(text))

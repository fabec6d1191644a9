"""Minimal feed-forward machinery: MLPs, manual backprop, Adam, grad checks.

The networks here are small (two hidden layers around 40 and 20 units), so
the forward/backward passes are hand-rolled on top of numpy GEMMs. All
arithmetic is float64; the covariance and KL terms downstream are too
ill-conditioned for single precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from comotion.errors import NumericalError


def xavier_init(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Uniform Glorot initialization over +/- sqrt(6 / (rows + cols))."""
    rows, cols = shape
    if rows <= 0 or cols <= 0:
        raise ValueError(f"invalid shape {shape}")
    bound = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


@dataclass
class Mlp:
    """Fully connected net, leaky-rectifier hidden units, identity output.

    Weight ``l`` has shape (out_l, in_l); a batch x of shape (B, in) maps to
    x @ W.T + b per layer.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    negative_slope: float = 0.01

    @classmethod
    def create(
        cls, sizes: list[int], rng: np.random.Generator, negative_slope: float = 0.01
    ) -> "Mlp":
        weights = [
            xavier_init((sizes[i + 1], sizes[i]), rng) for i in range(len(sizes) - 1)
        ]
        biases = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]
        return cls(weights, biases, negative_slope)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy(self) -> "Mlp":
        return Mlp(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.negative_slope,
        )

    def to_dict(self) -> dict:
        return {
            "sizes": [self.in_dim] + [w.shape[0] for w in self.weights],
            "negative_slope": self.negative_slope,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Mlp":
        """Inverse of ``to_dict``; ValueError when the layers do not chain."""
        weights = [np.asarray(w, dtype=np.float64) for w in d["weights"]]
        biases = [np.asarray(b, dtype=np.float64) for b in d["biases"]]
        width = weights[0].shape[-1]
        for w, b in zip(weights, biases, strict=True):
            if b.ndim != 1 or w.shape != (b.shape[0], width):
                raise ValueError(f"layer of weight {w.shape} and bias {b.shape} does not chain")
            width = w.shape[0]
        return cls(weights, biases, float(d["negative_slope"]))


@dataclass
class Tape:
    """Activation record from one forward pass.

    ``factors`` holds the per-unit rectifier derivative (1 on the positive
    side, the leaky slope elsewhere) of each hidden layer; the backward
    pass multiplies by it directly.
    """

    inputs: list[np.ndarray]
    factors: list[np.ndarray]
    out_shape: tuple
    single: bool


def mlp_forward(m: Mlp, x: np.ndarray) -> tuple[np.ndarray, Tape]:
    """Forward pass; accepts a single vector or a (B, in) batch."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    a = x[None, :] if single else x
    if a.shape[1] != m.in_dim:
        raise ValueError(f"input width {a.shape[1]} != expected {m.in_dim}")
    inputs, factors = [], []
    slope = m.negative_slope
    for l, (w, b) in enumerate(zip(m.weights, m.biases)):
        inputs.append(a)
        z = a @ w.T
        z += b
        if l < m.n_layers - 1:
            factor = slope + (1.0 - slope) * (z > 0.0)
            z *= factor
            factors.append(factor)
        a = z
    out = a[0] if single else a
    return out, Tape(inputs, factors, a.shape, single)


def mlp_backward(
    m: Mlp, tape: Tape, out_grad: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Gradients of the scalar loss whose output-gradient is ``out_grad``.

    Returns (param_grads ordered as Mlp.params, input_grad). Batched
    out_grad rows are summed into the parameter gradients.
    """
    if len(tape.inputs) != m.n_layers or tape.inputs[0].shape[1] != m.in_dim:
        raise ValueError("tape does not match this network")
    g = np.asarray(out_grad, dtype=np.float64)
    if tape.single:
        g = g[None, :]
    if g.shape != tape.out_shape:
        raise ValueError(f"out_grad shape {g.shape} != output {tape.out_shape}")
    grads: list[np.ndarray] = [None] * (2 * m.n_layers)
    for l in range(m.n_layers - 1, -1, -1):
        if l < m.n_layers - 1:
            g = g * tape.factors[l]
        grads[2 * l] = g.T @ tape.inputs[l]
        grads[2 * l + 1] = g.sum(axis=0)
        g = g @ m.weights[l]
    input_grad = g[0] if tape.single else g
    return grads, input_grad


@dataclass
class AdamState:
    """Adam moment accumulators with decoupled weight decay."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    lr: float = 5e-4
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.0

    @classmethod
    def for_params(cls, params: list[np.ndarray], **kwargs) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            **kwargs,
        )


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState
) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam update; decay is applied before the step.

    Parameter arrays are updated in place and returned with the advanced
    state.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params/grads/state length mismatch")
    state.step += 1
    b1, b2 = state.betas
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    for i, (p, g) in enumerate(zip(params, grads)):
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient in parameter block {i}")
        if state.weight_decay:
            p -= state.lr * state.weight_decay * p
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * g * g
        m_hat = state.m[i] / c1
        v_hat = state.v[i] / c2
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params, state


def grad_check(loss, params: list[np.ndarray], h: float = 1e-5) -> float:
    """Worst relative error between analytic and central-difference gradients.

    ``loss(params)`` must return ``(value, grads)`` with grads ordered like
    ``params`` and must be deterministic (freeze any sampling noise). The
    relative scale is floored at 1e-3 so near-zero gradients compare
    absolutely.
    """
    _, analytic = loss(params)
    worst = 0.0
    for i, p in enumerate(params):
        flat = p.reshape(-1)
        a_flat = analytic[i].reshape(-1)
        for j in range(flat.shape[0]):
            orig = flat[j]
            flat[j] = orig + h
            f_plus, _ = loss(params)
            flat[j] = orig - h
            f_minus, _ = loss(params)
            flat[j] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            denom = max(abs(a_flat[j]), abs(numeric), 1e-3)
            worst = max(worst, abs(a_flat[j] - numeric) / denom)
    return worst

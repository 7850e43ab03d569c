"""Small feed-forward regressor trained from scratch with numpy.

The architecture is fixed at three fully connected ReLU layers followed
by a linear output layer. Training is mini-batch gradient descent with
the Adam update rule on mean squared error, applied to all parameters
as one flat vector (see :func:`train`). There is deliberately no
regularization or early stopping: these networks act as conditional
averagers, and fitting the training set closely is the point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .errors import DimensionMismatch, NonFiniteLoss

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class MlpConfig:
    input_dim: int
    hidden_widths: tuple[int, int, int] = (64, 64, 64)
    output_dim: int = 1
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(self.hidden_widths))
        if len(self.hidden_widths) != 3:
            raise ValueError("hidden_widths must have exactly 3 entries")
        if self.input_dim < 1 or self.output_dim < 1 or min(self.hidden_widths) < 1:
            raise ValueError("all layer widths must be >= 1")

    @property
    def layer_widths(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_widths, self.output_dim)


@dataclass
class TrainReport:
    """Per-epoch mean MSE over the training set."""

    epoch_losses: list[float]

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1]


class Mlp:
    """Feed-forward network: 3 hidden ReLU layers + linear output.

    Weight matrices are stored as (fan_out, fan_in); biases match fan_out.
    """

    def __init__(self, config: MlpConfig, weights: list[np.ndarray], biases: list[np.ndarray]):
        widths = config.layer_widths
        if len(weights) != 4 or len(biases) != 4:
            raise DimensionMismatch("expected 4 weight matrices and 4 bias vectors")
        for layer, (w, b) in enumerate(zip(weights, biases)):
            expect = (widths[layer + 1], widths[layer])
            if w.shape != expect or b.shape != (widths[layer + 1],):
                raise DimensionMismatch(
                    f"layer {layer}: weight shape {w.shape}, expected {expect}"
                )
        self.config = config
        self.weights = weights
        self.biases = biases

    @classmethod
    def init(cls, config: MlpConfig) -> "Mlp":
        """Deterministic uniform initialization scaled by 1/sqrt(fan_in)."""
        rng = np.random.default_rng(config.seed)
        widths = config.layer_widths
        weights, biases = [], []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(config, weights, biases)

    @property
    def n_parameters(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def copy(self) -> "Mlp":
        return Mlp(self.config, [w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Evaluate one input vector; returns the output vector."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.shape[0] != self.config.input_dim:
            raise DimensionMismatch(
                f"expected input of length {self.config.input_dim}, got shape {x.shape}"
            )
        return self.forward_batch(x[None, :])[0]

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        """Evaluate a batch of rows; returns (n, output_dim)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.config.input_dim:
            raise DimensionMismatch(
                f"expected (n, {self.config.input_dim}) inputs, got shape {x.shape}"
            )
        h = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = h @ w.T
            h += b
            np.maximum(0.0, h, out=h)
        return h @ self.weights[-1].T + self.biases[-1]

    def _backprop_batch(self, x: np.ndarray, targets: np.ndarray, work: _Workspace) -> float:
        """MSE loss (mean over batch and output dims); its gradient goes into ``work.grad``.

        Every intermediate lives in ``work``'s buffers, so a step allocates
        nothing of batch size. Writing into a buffer changes no arithmetic:
        loss and gradient are bitwise those of the unbuffered expressions.
        """
        n = x.shape[0]
        act = [x]
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = np.matmul(act[-1], w.T, out=work.z[layer][:n])
            z += b
            if layer < 3:
                np.greater(z, 0.0, out=work.mask[layer][:n])
                np.maximum(0.0, z, out=z)
            act.append(z)
        delta = np.subtract(act[-1], targets, out=work.delta[3][:n])
        loss = float(np.mean(delta * delta))
        # d loss / d out for mean over all n * output_dim elements
        delta *= 2.0
        delta /= delta.size
        for layer in range(3, -1, -1):
            np.matmul(delta.T, act[layer], out=work.grad_w[layer])
            delta.sum(axis=0, out=work.grad_b[layer])
            if layer > 0:
                delta = np.matmul(delta, self.weights[layer], out=work.delta[layer - 1][:n])
                delta *= work.mask[layer - 1][:n]
        return loss


def _layer_views(flat: np.ndarray, widths: tuple[int, ...]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer (fan_out, fan_in) weight and bias views of one flat vector.

    The layout is W0, b0, W1, b1, ... in layer order, each block row-major.
    """
    weights, biases = [], []
    at = 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        weights.append(flat[at : at + fan_out * fan_in].reshape(fan_out, fan_in))
        at += fan_out * fan_in
        biases.append(flat[at : at + fan_out])
        at += fan_out
    return weights, biases


class _Workspace:
    """Flat gradient plus per-layer buffers for batches of up to ``rows`` rows.

    ``z[l]`` holds layer ``l``'s output (hidden layers after the in-place
    ReLU), ``mask[l]`` where a hidden pre-activation was positive, and
    ``delta[l]`` the loss gradient with respect to layer ``l``'s output.
    """

    def __init__(self, net: Mlp, rows: int):
        widths = net.config.layer_widths
        self.grad = np.empty(net.n_parameters)
        self.grad_w, self.grad_b = _layer_views(self.grad, widths)
        self.z = [np.empty((rows, width)) for width in widths[1:]]
        self.delta = [np.empty((rows, width)) for width in widths[1:]]
        self.mask = [np.empty((rows, width), dtype=bool) for width in widths[1:-1]]


def _pack(net: Mlp) -> np.ndarray:
    """Copy every parameter into one vector and rebind the net's arrays to views of it."""
    theta = np.empty(net.n_parameters)
    weights, biases = _layer_views(theta, net.config.layer_widths)
    for view, array in zip(weights + biases, net.weights + net.biases):
        view[...] = array
    net.weights, net.biases = weights, biases
    return theta


def _adam_step(
    theta: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    scratch: tuple[np.ndarray, np.ndarray],
    learning_rate: float,
    step: int,
) -> None:
    """One Adam update of ``theta`` in place, over the whole parameter vector.

    The operations and their order are those of the textbook expressions
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g**2`` and
    ``theta -= lr*(m/bc1) / (sqrt(v/bc2) + eps)``. Each is elementwise
    and correctly rounded, so the result is bitwise that of a per-layer
    update.
    """
    bc1 = 1.0 - ADAM_BETA1**step
    bc2 = 1.0 - ADAM_BETA2**step
    s1, s2 = scratch
    m *= ADAM_BETA1
    np.multiply(grad, 1 - ADAM_BETA1, out=s1)
    m += s1
    v *= ADAM_BETA2
    np.multiply(grad, grad, out=s1)
    s1 *= 1 - ADAM_BETA2
    v += s1
    np.divide(v, bc2, out=s2)
    np.sqrt(s2, out=s2)
    s2 += ADAM_EPS
    np.divide(m, bc1, out=s1)
    s1 *= learning_rate
    s1 /= s2
    theta -= s1


def gradient(net: Mlp, x: np.ndarray, target: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gradient of single-sample MSE w.r.t. every parameter.

    Returns per-layer (dW, db) pairs in layer order.
    """
    x = np.asarray(x, dtype=float)
    target = np.asarray(target, dtype=float)
    if x.ndim != 1 or x.shape[0] != net.config.input_dim:
        raise DimensionMismatch(f"input shape {x.shape} does not match net")
    if target.ndim != 1 or target.shape[0] != net.config.output_dim:
        raise DimensionMismatch(f"target shape {target.shape} does not match net")
    work = _Workspace(net, 1)
    net._backprop_batch(x[None, :], target[None, :], work)
    return list(zip(work.grad_w, work.grad_b))


def train(
    net: Mlp,
    inputs: np.ndarray,
    targets: np.ndarray,
    epochs: int,
    batch_size: int = 128,
    learning_rate: float = 1e-3,
    seed: int = 0,
) -> TrainReport:
    """Train in place with Adam on MSE; returns the learning curve.

    Rows are reshuffled every epoch with a generator seeded by ``seed``,
    so identical arguments reproduce identical weights and losses. The
    reported epoch loss is the sample-weighted mean over the epoch's
    batches, i.e. the mean MSE over the training set as visited.

    On entry the net's weights and biases are copied into one contiguous
    vector, and ``net.weights`` / ``net.biases`` are rebound to views of
    it; arrays taken from the net before the call are not updated.
    """
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if inputs.ndim != 2 or targets.ndim != 2 or inputs.shape[0] != targets.shape[0]:
        raise DimensionMismatch("inputs and targets must be matrices with matching row counts")
    if inputs.shape[1] != net.config.input_dim or targets.shape[1] != net.config.output_dim:
        raise DimensionMismatch("input/target widths do not match the network")

    n = inputs.shape[0]
    rng = np.random.default_rng(seed)
    theta = _pack(net)
    work = _Workspace(net, min(batch_size, n))
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    scratch = np.empty_like(theta), np.empty_like(theta)
    step = 0
    epoch_losses: list[float] = []

    for epoch in range(epochs):
        order = rng.permutation(n)
        sq_err_sum = 0.0
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            loss = net._backprop_batch(inputs[batch], targets[batch], work)
            if not np.isfinite(loss):
                raise NonFiniteLoss(epoch)
            sq_err_sum += loss * len(batch)
            step += 1
            _adam_step(theta, work.grad, m, v, scratch, learning_rate, step)
        epoch_losses.append(sq_err_sum / n)
    return TrainReport(epoch_losses=epoch_losses)


def save_mlp(net: Mlp, path: str | Path) -> None:
    data = {
        "config": {
            "input_dim": net.config.input_dim,
            "hidden_widths": list(net.config.hidden_widths),
            "output_dim": net.config.output_dim,
            "seed": net.config.seed,
        },
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }
    with atomic_open(path) as handle:
        handle.write(json.dumps(data))


def load_mlp(path: str | Path) -> Mlp:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    config = MlpConfig(
        input_dim=data["config"]["input_dim"],
        hidden_widths=tuple(data["config"]["hidden_widths"]),
        output_dim=data["config"]["output_dim"],
        seed=data["config"]["seed"],
    )
    weights = [np.array(w, dtype=float) for w in data["weights"]]
    biases = [np.array(b, dtype=float) for b in data["biases"]]
    return Mlp(config, weights, biases)

"""Small feed-forward regressor trained from scratch with numpy.

The architecture is fixed at three fully connected ReLU layers followed
by a linear output layer. Training is mini-batch gradient descent with
the Adam update rule on mean squared error. There is deliberately no
regularization or early stopping: these networks act as conditional
averagers, and fitting the training set closely is the point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
            h = np.maximum(0.0, h @ w.T + b)
        return h @ self.weights[-1].T + self.biases[-1]

    def _forward_trace(self, x: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Forward pass keeping activations and pre-activations for backprop."""
        activations = [x]
        pre = []
        h = x
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w.T + b
            pre.append(z)
            h = z if layer == 3 else np.maximum(0.0, z)
            activations.append(h)
        return activations, pre

    def _backprop_batch(
        self, x: np.ndarray, targets: np.ndarray
    ) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
        """MSE loss (mean over batch and output dims) and its parameter gradients."""
        n = x.shape[0]
        activations, pre = self._forward_trace(x)
        out = activations[-1]
        diff = out - targets
        loss = float(np.mean(diff * diff))
        # d loss / d out for mean over all n * output_dim elements
        delta = 2.0 * diff / diff.size
        grads_w: list[np.ndarray] = [None] * 4  # type: ignore[list-item]
        grads_b: list[np.ndarray] = [None] * 4  # type: ignore[list-item]
        for layer in range(3, -1, -1):
            grads_w[layer] = delta.T @ activations[layer]
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights[layer]) * (pre[layer - 1] > 0)
        return loss, grads_w, grads_b


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
    _, grads_w, grads_b = net._backprop_batch(x[None, :], target[None, :])
    return list(zip(grads_w, grads_b))


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
    m_w = [np.zeros_like(w) for w in net.weights]
    v_w = [np.zeros_like(w) for w in net.weights]
    m_b = [np.zeros_like(b) for b in net.biases]
    v_b = [np.zeros_like(b) for b in net.biases]
    step = 0
    epoch_losses: list[float] = []

    for epoch in range(epochs):
        order = rng.permutation(n)
        sq_err_sum = 0.0
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            loss, grads_w, grads_b = net._backprop_batch(inputs[batch], targets[batch])
            if not np.isfinite(loss):
                raise NonFiniteLoss(epoch)
            sq_err_sum += loss * len(batch)
            step += 1
            bc1 = 1.0 - ADAM_BETA1**step
            bc2 = 1.0 - ADAM_BETA2**step
            for layer in range(4):
                m_w[layer] = ADAM_BETA1 * m_w[layer] + (1 - ADAM_BETA1) * grads_w[layer]
                v_w[layer] = ADAM_BETA2 * v_w[layer] + (1 - ADAM_BETA2) * grads_w[layer] ** 2
                m_b[layer] = ADAM_BETA1 * m_b[layer] + (1 - ADAM_BETA1) * grads_b[layer]
                v_b[layer] = ADAM_BETA2 * v_b[layer] + (1 - ADAM_BETA2) * grads_b[layer] ** 2
                net.weights[layer] -= learning_rate * (m_w[layer] / bc1) / (
                    np.sqrt(v_w[layer] / bc2) + ADAM_EPS
                )
                net.biases[layer] -= learning_rate * (m_b[layer] / bc1) / (
                    np.sqrt(v_b[layer] / bc2) + ADAM_EPS
                )
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
    Path(path).write_text(json.dumps(data), encoding="utf-8")


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

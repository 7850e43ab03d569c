import numpy as np
import pytest

from fleetrank import neural
from fleetrank.errors import DimensionMismatch, NonFiniteLoss
from fleetrank.neural import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    BLOCK_ROWS,
    Mlp,
    MlpConfig,
    gradient,
    load_mlp,
    save_mlp,
    train,
)


def relu_pattern(net, x):
    """Sign pattern of every hidden pre-activation for a single input."""
    pattern = []
    h = x
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = w @ h + b
        pattern.append(z > 0)
        h = np.maximum(0.0, z)
    return pattern


def numeric_gradient_check(net, x, target, h=1e-5, tol=1e-4):
    """Central-difference comparison for every parameter coordinate.

    Coordinates whose perturbation flips any ReLU sign are excluded; the
    analytic gradient is undefined across kinks. Returns the number of
    coordinates checked.
    """
    def loss():
        d = net.forward_batch(x[None, :])[0] - target
        return float(np.mean(d * d))

    base_pattern = relu_pattern(net, x)
    grads = gradient(net, x, target)
    checked = 0
    for layer in range(4):
        for tensor, analytic in ((net.weights[layer], grads[layer][0]),
                                 (net.biases[layer], grads[layer][1])):
            flat = tensor.reshape(-1)
            aflat = analytic.reshape(-1)
            for i in range(flat.size):
                old = flat[i]
                flat[i] = old + h
                lp, pp = loss(), relu_pattern(net, x)
                flat[i] = old - h
                lm, pm = loss(), relu_pattern(net, x)
                flat[i] = old
                stable = all(
                    np.array_equal(a, b) and np.array_equal(a, c)
                    for a, b, c in zip(base_pattern, pp, pm)
                )
                if not stable:
                    continue
                numeric = (lp - lm) / (2 * h)
                denom = max(abs(numeric), abs(aflat[i]), 1e-8)
                assert abs(numeric - aflat[i]) / denom < tol, (
                    f"layer {layer} coord {i}: analytic {aflat[i]} vs numeric {numeric}"
                )
                checked += 1
    return checked


def all_ones_chain():
    config = MlpConfig(input_dim=1, hidden_widths=(1, 1, 1), output_dim=1, seed=0)
    weights = [np.ones((1, 1)) for _ in range(4)]
    biases = [np.zeros(1) for _ in range(4)]
    return Mlp(config, weights, biases)


def test_parameter_counts():
    assert Mlp.init(MlpConfig(29, (64, 64, 64), 1, seed=0)).n_parameters == 10305
    assert Mlp.init(MlpConfig(1, (1, 1, 1), 1, seed=0)).n_parameters == 8


def test_init_deterministic():
    a = Mlp.init(MlpConfig(5, (8, 8, 8), 2, seed=42))
    b = Mlp.init(MlpConfig(5, (8, 8, 8), 2, seed=42))
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    c = Mlp.init(MlpConfig(5, (8, 8, 8), 2, seed=43))
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))


def test_config_validation():
    with pytest.raises(ValueError):
        MlpConfig(1, (4, 4), 1)
    with pytest.raises(ValueError):
        MlpConfig(0, (4, 4, 4), 1)


def test_forward_zero_net():
    config = MlpConfig(3, (4, 4, 4), 2, seed=0)
    net = Mlp(config, [np.zeros((4, 3)), np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((2, 4))],
              [np.zeros(4), np.zeros(4), np.zeros(4), np.zeros(2)])
    np.testing.assert_array_equal(net.forward_batch(np.array([[1.0, -2.0, 3.0]]))[0], np.zeros(2))


def test_forward_hand_trace():
    net = all_ones_chain()
    # positive input passes every ReLU unchanged
    np.testing.assert_array_equal(net.forward_batch(np.array([[2.0]]))[0], [2.0])
    # negative input clamps at the first ReLU
    np.testing.assert_array_equal(net.forward_batch(np.array([[-2.0]]))[0], [0.0])


def test_forward_dimension_error():
    net = all_ones_chain()
    with pytest.raises(DimensionMismatch):
        net.forward_batch(np.zeros((1, 2)))
    with pytest.raises(DimensionMismatch):
        net.forward_batch(np.zeros((3, 2)))


def test_gradient_all_zero_params():
    config = MlpConfig(3, (4, 4, 4), 2, seed=0)
    net = Mlp(config, [np.zeros((4, 3)), np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((2, 4))],
              [np.zeros(4), np.zeros(4), np.zeros(4), np.zeros(2)])
    target = np.array([1.0, -0.5])
    grads = gradient(net, np.array([0.3, 0.7, -0.1]), target)
    # loss is mean over output dims, so d/d_bias = 2 (0 - t) / output_dim
    np.testing.assert_allclose(grads[3][1], 2 * (0 - target) / 2, rtol=0, atol=0)
    for layer in range(3):
        np.testing.assert_array_equal(grads[layer][0], 0.0)
        np.testing.assert_array_equal(grads[layer][1], 0.0)
    np.testing.assert_array_equal(grads[3][0], 0.0)


def test_gradient_at_minimum_is_zero():
    net = Mlp.init(MlpConfig(4, (6, 6, 6), 3, seed=1))
    x = np.array([0.2, -0.4, 1.1, 0.9])
    target = net.forward_batch(x[None, :])[0]
    for dw, db in gradient(net, x, target):
        np.testing.assert_array_equal(dw, 0.0)
        np.testing.assert_array_equal(db, 0.0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for seed in range(5):
        config = MlpConfig(
            input_dim=int(rng.integers(1, 5)),
            hidden_widths=tuple(int(rng.integers(1, 8)) for _ in range(3)),
            output_dim=int(rng.integers(1, 4)),
            seed=seed,
        )
        net = Mlp.init(config)
        x = rng.normal(size=config.input_dim)
        target = rng.normal(size=config.output_dim)
        checked = numeric_gradient_check(net, x, target)
        assert checked > 0


def test_train_linear_fit():
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, size=(256, 1))
    y = 2.0 * x
    # least-squares oracle: an exactly linear target has ~zero residual
    coef, residual, *_ = np.linalg.lstsq(np.hstack([x, np.ones_like(x)]), y, rcond=None)
    oracle_mse = float(residual[0]) / len(x) if len(residual) else 0.0
    assert oracle_mse < 1e-12

    net = Mlp.init(MlpConfig(1, (16, 16, 16), 1, seed=2))
    report = train(net, x, y, epochs=100, batch_size=32, learning_rate=1e-3, seed=3)
    assert len(report.epoch_losses) == 100
    assert report.final_loss == report.epoch_losses[-1]
    assert report.final_loss < 1e-3
    assert report.epoch_losses[-1] < report.epoch_losses[0]


def test_train_constant_target():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(128, 3))
    y = np.full((128, 1), 0.75)
    net = Mlp.init(MlpConfig(3, (8, 8, 8), 1, seed=5))
    report = train(net, x, y, epochs=200, batch_size=32, learning_rate=3e-3, seed=6)
    assert report.final_loss < 1e-4
    out = net.forward_batch(rng.normal(size=(16, 3)))
    np.testing.assert_allclose(out, 0.75, atol=0.15)


def test_train_rejects_zero_epochs():
    net = Mlp.init(MlpConfig(1, (2, 2, 2), 1, seed=0))
    with pytest.raises(ValueError):
        train(net, np.zeros((4, 1)), np.zeros((4, 1)), epochs=0)


def test_train_deterministic():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(64, 2))
    y = rng.normal(size=(64, 1))
    reports = []
    nets = []
    for _ in range(2):
        net = Mlp.init(MlpConfig(2, (8, 8, 8), 1, seed=10))
        reports.append(train(net, x, y, epochs=20, batch_size=16, learning_rate=1e-3, seed=11))
        nets.append(net)
    assert reports[0].epoch_losses == reports[1].epoch_losses
    for wa, wb in zip(nets[0].weights, nets[1].weights):
        np.testing.assert_array_equal(wa, wb)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_non_finite_loss_aborts_cleanly():
    net = Mlp.init(MlpConfig(1, (4, 4, 4), 1, seed=0))
    before = net.copy()
    x = np.array([[1.0], [np.inf]])
    y = np.zeros((2, 1))
    with pytest.raises(NonFiniteLoss) as err:
        train(net, x, y, epochs=3, batch_size=2)
    assert err.value.epoch == 0
    for wa, wb in zip(net.weights, before.weights):
        np.testing.assert_array_equal(wa, wb)


def test_serialization_roundtrip(tmp_path):
    net = Mlp.init(MlpConfig(3, (8, 8, 8), 2, seed=21))
    rng = np.random.default_rng(0)
    x = rng.normal(size=(10, 3))
    train(net, x, rng.normal(size=(10, 2)), epochs=5, batch_size=4)
    path = tmp_path / "net.json"
    save_mlp(net, path)
    back = load_mlp(path)
    for trained, loaded in zip(net.weights + net.biases, back.weights + back.biases):
        assert trained.shape == loaded.shape
        assert trained.tobytes() == loaded.tobytes()
    probe = rng.normal(size=(20, 3))
    np.testing.assert_array_equal(net.forward_batch(probe), back.forward_batch(probe))


def reference_train(net, inputs, targets, epochs, batch_size, learning_rate, seed):
    """Per-layer Adam on per-layer backprop, one fresh array per intermediate.

    The plainest form of the same arithmetic; ``train`` must reproduce its
    losses and parameters bit for bit.
    """
    n = inputs.shape[0]
    rng = np.random.default_rng(seed)
    m_w = [np.zeros_like(w) for w in net.weights]
    v_w = [np.zeros_like(w) for w in net.weights]
    m_b = [np.zeros_like(b) for b in net.biases]
    v_b = [np.zeros_like(b) for b in net.biases]
    step = 0
    epoch_losses = []
    for _ in range(epochs):
        order = rng.permutation(n)
        sq_err_sum = 0.0
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            activations, pre = [inputs[batch]], []
            for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
                z = activations[-1] @ w.T + b
                pre.append(z)
                activations.append(z if layer == 3 else np.maximum(0.0, z))
            diff = activations[-1] - targets[batch]
            loss = float(np.mean(diff * diff))
            delta = 2.0 * diff / diff.size
            grads_w, grads_b = [None] * 4, [None] * 4
            for layer in range(3, -1, -1):
                grads_w[layer] = delta.T @ activations[layer]
                grads_b[layer] = delta.sum(axis=0)
                if layer > 0:
                    delta = (delta @ net.weights[layer]) * (pre[layer - 1] > 0)
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
    return epoch_losses


@pytest.mark.parametrize(
    "rows, widths, batch_size",
    [(203, (5, 16, 9, 12, 2), 32), (37, (29, 8, 8, 8, 1), 64)],
    ids=["tail-batch", "batch-over-rows"],
)
def test_train_matches_per_layer_reference_bitwise(rows, widths, batch_size):
    rng = np.random.default_rng(rows)
    x = rng.normal(size=(rows, widths[0]))
    y = np.tanh(x[:, :1] * x[:, -1:]) + rng.normal(scale=0.1, size=(rows, widths[-1]))
    config = MlpConfig(widths[0], widths[1:4], widths[-1], seed=3)
    net, ref = Mlp.init(config), Mlp.init(config)
    report = train(net, x, y, epochs=7, batch_size=batch_size, learning_rate=3e-3, seed=4)
    ref_losses = reference_train(ref, x, y, 7, batch_size, 3e-3, seed=4)
    assert report.epoch_losses == ref_losses
    for trained, expected in zip(net.weights + net.biases, ref.weights + ref.biases):
        assert trained.tobytes() == expected.tobytes()


def test_parameters_round_trip_bitwise():
    rng = np.random.default_rng(6)
    net = Mlp.init(MlpConfig(3, (6, 5, 4), 2, seed=9))
    train(net, rng.normal(size=(20, 3)), rng.normal(size=(20, 2)), epochs=2, batch_size=8)
    theta = net.parameters()
    assert theta.shape == (net.n_parameters,)
    # the layout train packs: W0, b0, W1, b1, ... in layer order, each row-major
    assert theta[: 6 * 3].tobytes() == net.weights[0].tobytes()
    assert theta[6 * 3 : 6 * 3 + 6].tobytes() == net.biases[0].tobytes()
    back = Mlp.from_parameters(net.config, theta)
    for trained, rebuilt in zip(net.weights + net.biases, back.weights + back.biases):
        assert trained.tobytes() == rebuilt.tobytes()
    with pytest.raises(DimensionMismatch, match="parameters"):
        Mlp.from_parameters(net.config, theta[:-1])


def test_copy_of_trained_net_shares_no_memory():
    rng = np.random.default_rng(5)
    net = Mlp.init(MlpConfig(3, (6, 6, 6), 2, seed=8))
    train(net, rng.normal(size=(20, 3)), rng.normal(size=(20, 2)), epochs=2, batch_size=8)
    twin = net.copy()
    for a in net.weights + net.biases:
        for b in twin.weights + twin.biases:
            assert not np.shares_memory(a, b)


def unblocked_forward(net, x):
    """``forward_batch`` as one product per layer over every row."""
    h = x
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        h = h @ w.T
        h += b
        np.maximum(0.0, h, out=h)
    return h @ net.weights[-1].T + net.biases[-1]


def random_net(d_out, seed):
    rng = np.random.default_rng(seed)
    net = Mlp.init(MlpConfig(7, (16, 12, 16), d_out, seed=seed))
    for b in net.biases:
        b[...] = rng.normal(scale=0.5, size=b.shape)
    net.biases[-1] += 4.0  # outputs well away from zero, where a relative tolerance is fair
    return net, rng


@pytest.mark.parametrize("d_out", [1, 2])
@pytest.mark.parametrize("n", [1, 17, BLOCK_ROWS - 1, BLOCK_ROWS])
def test_short_batch_is_the_unblocked_expression(n, d_out):
    net, rng = random_net(d_out, n)
    x = rng.normal(size=(n, 7))
    assert net.forward_batch(x).tobytes() == unblocked_forward(net, x).tobytes()


class MatmulRows:
    """Stands in for ``numpy`` inside ``neural``, recording each ``np.matmul``'s row count."""

    def __init__(self):
        self.rows = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, **kwargs):
        self.rows.append(len(a))
        return np.matmul(a, b, **kwargs)


@pytest.mark.parametrize("d_out", [1, 2])
@pytest.mark.parametrize(
    "n",
    [BLOCK_ROWS + 1, 2 * BLOCK_ROWS - 1, 2 * BLOCK_ROWS, 2 * BLOCK_ROWS + 1, 5 * BLOCK_ROWS + 3],
)
def test_long_batch_runs_in_blocks_of_at_least_block_rows(monkeypatch, n, d_out):
    # Bitwise agreement with the unblocked expression holds for the OpenBLAS
    # kernels this block size was chosen on, not on every BLAS, so only a
    # tolerance is asserted here.
    net, rng = random_net(d_out, n)
    x = rng.normal(size=(n, 7))
    recorder = MatmulRows()
    monkeypatch.setattr(neural, "np", recorder)
    out = net.forward_batch(x)
    monkeypatch.undo()
    np.testing.assert_allclose(out, unblocked_forward(net, x), rtol=1e-12, atol=0)
    # four layer products per block, in row order
    blocks = recorder.rows[::4]
    assert recorder.rows == [rows for rows in blocks for _ in range(4)]
    assert sum(blocks) == n
    assert min(blocks) >= BLOCK_ROWS

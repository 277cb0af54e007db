"""Tests for network serialization."""

import numpy as np
import pytest

from repro.nn.builders import lenet_conv, mlp, xor_network
from repro.nn.layers import Dense, ReLU
from repro.nn.network import Network
from repro.nn.serialize import load_network, save_network


class TestRoundtrip:
    def test_mlp(self, tmp_path):
        net = mlp(6, [10, 10], 4, rng=0)
        path = tmp_path / "net.npz"
        save_network(net, path)
        loaded = load_network(path)
        x = np.random.default_rng(0).normal(size=6)
        np.testing.assert_array_equal(loaded.logits(x), net.logits(x))

    def test_conv(self, tmp_path):
        net = lenet_conv(input_shape=(1, 4, 4), num_classes=3, rng=0)
        path = tmp_path / "conv.npz"
        save_network(net, path)
        loaded = load_network(path)
        x = np.random.default_rng(1).uniform(size=16)
        np.testing.assert_array_equal(loaded.logits(x), net.logits(x))
        assert loaded.input_shape == (1, 4, 4)

    def test_exact_bit_preservation(self, tmp_path):
        net = xor_network()
        path = tmp_path / "xor.npz"
        save_network(net, path)
        loaded = load_network(path)
        for p, q in zip(net.params(), loaded.params()):
            np.testing.assert_array_equal(p, q)

    def test_conv_hyperparams_preserved(self, tmp_path):
        from repro.nn.layers import Conv2d, Flatten

        conv = Conv2d.initialize(1, 2, kernel_size=3, stride=2, padding=1, rng=0)
        net = Network(
            [conv, Flatten(), Dense(np.ones((2, 8)), np.zeros(2))],
            input_shape=(1, 4, 4),
        )
        path = tmp_path / "c.npz"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.layers[0].stride == 2
        assert loaded.layers[0].padding == 1

    def test_unknown_layer_rejected(self, tmp_path):
        class Weird(Dense):
            pass

        net = Network([Weird(np.ones((2, 2)), np.zeros(2))], input_shape=(2,))
        # Subclasses of Dense serialize as Dense — that is acceptable; a
        # genuinely unknown layer type must raise.
        from repro.nn import serialize

        class Alien:
            def params(self):
                return []

        with pytest.raises(TypeError, match="serialize"):
            serialize._layer_spec(Alien())


class TestDigestChain:
    """layer_digests: one link per layer prefix, last link == digest."""

    def test_last_link_is_network_digest(self):
        from repro.nn.serialize import layer_digests, network_digest

        net = mlp(6, [10, 8], 4, rng=0)
        chain = layer_digests(net)
        assert len(chain) == len(net.layers)
        assert chain[-1] == network_digest(net)

    def test_chain_survives_roundtrip(self, tmp_path):
        from repro.nn.serialize import layer_digests

        net = mlp(6, [10, 8], 4, rng=0)
        save_network(net, tmp_path / "net.npz")
        assert layer_digests(load_network(tmp_path / "net.npz")) == layer_digests(net)

    def test_chain_is_memoized(self):
        from repro.nn.serialize import layer_digests

        net = mlp(4, [6], 3, rng=1)
        first = layer_digests(net)
        assert layer_digests(net) == first
        net.thaw_params()
        net.layers[0].weight += 1.0
        net.invalidate_ops()
        assert layer_digests(net) != first

    def test_fine_tune_shares_prefix_links(self):
        from repro.nn.serialize import common_prefix_layers, layer_digests

        net = mlp(6, [10, 8], 4, rng=0)  # D R D R D: 5 layers
        tuned = mlp(6, [10, 8], 4, rng=0)
        tuned.layers[-1].weight += 1e-6
        chain, chain_t = layer_digests(net), layer_digests(tuned)
        assert chain[:-1] == chain_t[:-1]
        assert chain[-1] != chain_t[-1]
        assert common_prefix_layers(net, tuned) == len(net.layers) - 1

    @pytest.mark.parametrize("param", ["weight", "bias"])
    @pytest.mark.parametrize("layer", [0, 2, 4])
    def test_perturbed_layer_changes_exactly_the_later_links(
        self, layer, param
    ):
        from repro.nn.serialize import common_prefix_layers, layer_digests

        net = mlp(6, [10, 8], 4, rng=0)  # D R D R D: 5 layers
        tuned = mlp(6, [10, 8], 4, rng=0)
        getattr(tuned.layers[layer], param)[0] += 1e-6
        chain, chain_t = layer_digests(net), layer_digests(tuned)
        assert [a == b for a, b in zip(chain, chain_t)] == [
            k < layer for k in range(len(net.layers))
        ]
        assert common_prefix_layers(net, tuned) == layer

    def test_extension_shares_every_link_of_the_shorter_network(self):
        """Appending layers keeps the whole shorter network as a common
        prefix, although its last link is the whole-network digest and
        the longer network's link at that depth is a chained one."""
        from repro.nn.serialize import common_prefix_layers, layer_digests

        net = mlp(6, [10, 8], 4, rng=0)
        rng = np.random.default_rng(1)
        extended = Network(
            [*net.layers, ReLU(), Dense(rng.normal(size=(3, 4)), np.zeros(3))],
            input_shape=net.input_shape,
        )
        depth = len(net.layers)
        assert common_prefix_layers(net, extended) == depth
        assert common_prefix_layers(extended, net) == depth
        assert layer_digests(extended)[: depth - 1] == layer_digests(net)[:-1]

    def test_common_prefix_identical_and_divergent(self):
        from repro.nn.serialize import common_prefix_layers

        a = mlp(6, [10, 8], 4, rng=0)
        b = mlp(6, [10, 8], 4, rng=0)
        assert common_prefix_layers(a, b) == len(a.layers)
        c = mlp(6, [10, 8], 4, rng=1)  # first layer already differs
        assert common_prefix_layers(a, c) == 0
        d = mlp(6, [9, 8], 4, rng=0)  # different architecture
        assert common_prefix_layers(a, d) == 0


class TestFreezeOnDigest:
    def test_mutation_after_digest_raises(self):
        from repro.nn.serialize import network_digest

        net = mlp(4, [6], 3, rng=0)
        network_digest(net)
        with pytest.raises(ValueError, match="read-only"):
            net.layers[0].weight[0, 0] = 5.0

    def test_mutation_after_chain_digest_raises(self):
        from repro.nn.serialize import layer_digests

        net = mlp(4, [6], 3, rng=0)
        layer_digests(net)
        with pytest.raises(ValueError, match="read-only"):
            net.layers[-1].bias += 1.0

    def test_thaw_reopens_and_drops_memo(self):
        from repro.nn.serialize import network_digest

        net = mlp(4, [6], 3, rng=0)
        before = network_digest(net)
        net.thaw_params()
        net.layers[0].weight[0, 0] += 1.0  # must not raise
        net.invalidate_ops()
        assert network_digest(net) != before

    def test_set_params_still_works_after_digest(self):
        from repro.nn.serialize import network_digest

        net = mlp(4, [6], 3, rng=0)
        before = network_digest(net)
        net.set_params([np.array(p) + 1.0 for p in net.params()])
        assert network_digest(net) != before

    def test_training_after_digest_does_not_raise(self):
        from repro.nn.serialize import network_digest
        from repro.nn.training import TrainConfig, train_classifier

        net = mlp(2, [8], 2, rng=0)
        before = network_digest(net)
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(20, 2))
        ys = (xs.sum(axis=1) > 0).astype(int)
        train_classifier(
            net, xs, ys, TrainConfig(epochs=1, batch_size=10), rng=0
        )
        assert network_digest(net) != before

"""Failure injection: message loss in the simulated network."""

import networkx as nx
import numpy as np
import pytest

from repro.graphs.adjacency import CompressedAdjacency
from repro.gsp.filters import PersonalizedPageRank
from repro.gsp.normalization import transition_matrix
from repro.runtime.gossip import AsyncPPRDiffusion
from repro.runtime.network import LatencyModel, SimNetwork
from repro.runtime.node import SimNode


class Counter(SimNode):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = 0

    def on_message(self, src, message):
        self.received += 1


class TestLossInjection:
    def _network(self, loss):
        adjacency = CompressedAdjacency.from_networkx(nx.path_graph(2))
        net = SimNetwork(
            adjacency, latency=LatencyModel(1.0, 0.0), drop_probability=loss, seed=0
        )
        nodes = [Counter(0), Counter(1)]
        net.attach_all(nodes)
        net.start()
        return net, nodes

    def test_zero_loss_delivers_all(self):
        net, nodes = self._network(0.0)
        for _ in range(50):
            nodes[0].send(1, "x")
        net.run()
        assert nodes[1].received == 50
        assert net.stats.dropped == 0

    def test_half_loss_drops_roughly_half(self):
        net, nodes = self._network(0.5)
        for _ in range(400):
            nodes[0].send(1, "x")
        net.run()
        assert 120 < nodes[1].received < 280
        assert net.stats.dropped == 400 - nodes[1].received

    def test_dropped_still_counted_as_sent(self):
        net, nodes = self._network(0.5)
        for _ in range(100):
            nodes[0].send(1, "x")
        net.run()
        assert net.stats.messages == 100

    def test_invalid_loss_rejected(self):
        adjacency = CompressedAdjacency.from_networkx(nx.path_graph(2))
        with pytest.raises(ValueError):
            SimNetwork(adjacency, drop_probability=1.0)
        with pytest.raises(ValueError):
            SimNetwork(adjacency, drop_probability=-0.1)


class TestDropAccounting:
    """The drop path is observable: counts, per-type keys, determinism."""

    def _run_once(self, seed=0, n_messages=200):
        adjacency = CompressedAdjacency.from_networkx(nx.path_graph(2))
        net = SimNetwork(
            adjacency,
            latency=LatencyModel(1.0, 0.0),
            drop_probability=0.4,
            seed=seed,
        )
        nodes = [Counter(0), Counter(1)]
        net.attach_all(nodes)
        net.start()
        for _ in range(n_messages):
            nodes[0].send(1, "x")
        net.run()
        return net, nodes

    def test_drop_actually_drops(self):
        net, nodes = self._run_once()
        assert net.stats.dropped > 0
        assert nodes[1].received == 200 - net.stats.dropped

    def test_dropped_counted_by_type(self):
        net, _ = self._run_once()
        # sends and drops are both visible, per message class
        assert net.stats.by_type["str"] == 200
        assert net.stats.by_type["dropped:str"] == net.stats.dropped

    def test_no_drop_key_without_drops(self):
        adjacency = CompressedAdjacency.from_networkx(nx.path_graph(2))
        net = SimNetwork(adjacency, latency=LatencyModel(1.0, 0.0), seed=0)
        nodes = [Counter(0), Counter(1)]
        net.attach_all(nodes)
        net.start()
        nodes[0].send(1, "x")
        net.run()
        assert "dropped:str" not in net.stats.by_type

    def test_same_seed_identical_stats(self):
        first, _ = self._run_once(seed=7)
        second, _ = self._run_once(seed=7)
        assert first.stats == second.stats
        third, _ = self._run_once(seed=8)
        assert third.stats != first.stats


class TestChurnSendRules:
    """Sends are only legal along live edges — churn closes them."""

    def _network(self):
        adjacency = CompressedAdjacency.from_networkx(nx.path_graph(3))
        net = SimNetwork(adjacency, latency=LatencyModel(1.0, 0.0), seed=0)
        nodes = [Counter(i) for i in range(3)]
        net.attach_all(nodes)
        net.start()
        return net, nodes

    def test_send_along_removed_edge_rejected(self):
        net, nodes = self._network()
        net.remove_edge(0, 1)
        with pytest.raises(ValueError, match="no edge"):
            nodes[0].send(1, "x")

    def test_send_to_removed_node_rejected(self):
        net, nodes = self._network()
        net.remove_node(1)
        with pytest.raises(ValueError, match="no edge"):
            nodes[0].send(1, "x")

    def test_in_flight_message_to_cut_edge_not_delivered(self):
        net, nodes = self._network()
        nodes[0].send(1, "x")  # in flight (latency 1.0)
        net.remove_edge(0, 1)
        net.run()
        assert nodes[1].received == 0


class TestDiffusionUnderLoss:
    def test_periodic_mode_converges_despite_loss(self):
        """Periodic gossip retransmits, so loss only delays convergence."""
        adjacency = CompressedAdjacency.from_networkx(nx.cycle_graph(10))
        rng = np.random.default_rng(4)
        personalization = rng.standard_normal((10, 3))
        diffusion = AsyncPPRDiffusion(
            adjacency,
            personalization,
            alpha=0.5,
            tol=1e-9,
            mode="periodic",
            period=1.0,
            loss_probability=0.2,
            seed=5,
        )
        outcome = diffusion.run(until=400.0)
        operator = transition_matrix(adjacency, "column")
        reference = PersonalizedPageRank(0.5, method="solve").apply(
            operator, personalization
        )
        assert np.max(np.abs(outcome.embeddings - reference)) < 5e-2
        assert diffusion.network.stats.dropped > 0

    def test_loss_probability_is_the_network_drop_probability(self):
        """The gossip's loss argument is its network's one drop probability."""
        adjacency = CompressedAdjacency.from_networkx(nx.cycle_graph(6))
        lossy = AsyncPPRDiffusion(
            adjacency, np.zeros((6, 2)), mode="periodic", loss_probability=0.2
        )
        assert lossy.network.drop_probability == 0.2
        clean = AsyncPPRDiffusion(adjacency, np.zeros((6, 2)), mode="periodic")
        assert clean.network.drop_probability == 0.0

    @pytest.mark.parametrize("loss", [1.0, 1.5, -0.1])
    def test_invalid_loss_probability_rejected(self, loss):
        adjacency = CompressedAdjacency.from_networkx(nx.cycle_graph(6))
        with pytest.raises(ValueError, match="drop_probability"):
            AsyncPPRDiffusion(
                adjacency, np.zeros((6, 2)), mode="periodic", loss_probability=loss
            )

    def test_push_mode_with_loss_rejected(self):
        """Push mode has no retransmission; the constructor refuses loss."""
        adjacency = CompressedAdjacency.from_networkx(nx.cycle_graph(6))
        with pytest.raises(ValueError, match="stall"):
            AsyncPPRDiffusion(
                adjacency, np.zeros((6, 2)), mode="push", loss_probability=0.1
            )


class TestTrafficStatsNamespacing:
    """record_dropped keys live in their own ``dropped:`` namespace."""

    def test_prefixed_key_and_counter(self):
        from repro.runtime.network import TrafficStats

        stats = TrafficStats()
        stats.record("hello")
        stats.record_dropped("hello")
        assert stats.by_type["str"] == 1
        assert stats.by_type["dropped:str"] == 1
        assert stats.dropped == 1

    def test_sends_never_touch_drop_keys(self):
        from repro.runtime.network import TrafficStats

        stats = TrafficStats()
        for _ in range(5):
            stats.record("x")
        assert stats.by_type == {"str": 5}
        assert all(not k.startswith("dropped:") for k in stats.by_type)

    def test_distinct_types_get_distinct_drop_keys(self):
        from repro.runtime.network import TrafficStats

        class Ping:
            pass

        class Pong:
            pass

        stats = TrafficStats()
        stats.record_dropped(Ping())
        stats.record_dropped(Ping())
        stats.record_dropped(Pong())
        assert stats.by_type["dropped:Ping"] == 2
        assert stats.by_type["dropped:Pong"] == 1
        assert stats.dropped == 3

"""Tests for the simulated network and node actors."""

import networkx as nx
import pytest

from repro.graphs.adjacency import CompressedAdjacency
from repro.runtime.network import LatencyModel, SimNetwork
from repro.runtime.node import SimNode


class Recorder(SimNode):
    """Test actor that logs everything it observes."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []
        self.timers = []
        self.started = False
        self.topology_events = []

    def on_start(self):
        self.started = True

    def on_message(self, src, message):
        self.received.append((src, message))

    def on_timer(self, tag):
        self.timers.append(tag)

    def on_neighbor_added(self, neighbor):
        self.topology_events.append(("added", neighbor))

    def on_neighbor_removed(self, neighbor):
        self.topology_events.append(("removed", neighbor))


@pytest.fixture
def network():
    adjacency = CompressedAdjacency.from_networkx(nx.path_graph(4))
    net = SimNetwork(adjacency, latency=LatencyModel(1.0, 0.0), seed=0)
    nodes = [Recorder(i) for i in range(4)]
    net.attach_all(nodes)
    return net, nodes


class TestMessaging:
    def test_delivery_to_neighbor(self, network):
        net, nodes = network
        net.start()
        nodes[0].send(1, "hello")
        net.run()
        assert nodes[1].received == [(0, "hello")]

    def test_send_to_non_neighbor_rejected(self, network):
        net, nodes = network
        net.start()
        with pytest.raises(ValueError, match="only message neighbors"):
            nodes[0].send(2, "nope")

    def test_latency_applied(self, network):
        net, nodes = network
        net.start()
        nodes[0].send(1, "x")
        net.run()
        assert net.now == pytest.approx(1.0)

    def test_message_counting(self, network):
        net, nodes = network
        net.start()
        nodes[0].send(1, "a")
        nodes[1].send(2, "b")
        net.run()
        assert net.stats.messages == 2
        assert net.stats.by_type["str"] == 2

    def test_bytes_use_size_hook(self, network):
        class Sized:
            def size_bytes(self):
                return 100.0

        net, nodes = network
        net.start()
        nodes[0].send(1, Sized())
        net.run()
        assert net.stats.bytes == pytest.approx(100.0)

    def test_detached_node_cannot_send(self):
        node = Recorder(0)
        with pytest.raises(RuntimeError, match="not attached"):
            node.send(1, "x")


class TestBaseNode:
    def test_default_hooks_ignore_events(self):
        """A bare SimNode accepts every event and does nothing with it."""
        adjacency = CompressedAdjacency.from_networkx(nx.path_graph(3))
        net = SimNetwork(adjacency, latency=LatencyModel(1.0, 0.0), seed=0)
        nodes = [SimNode(i) for i in range(3)]
        net.attach_all(nodes)
        net.start()
        nodes[0].send(1, "hello")
        nodes[1].set_timer(2.0, "tick")
        assert net.run() == 2  # one delivery, one timer
        net.add_edge(0, 2)
        net.remove_edge(0, 1)
        assert net.stats.messages == 1
        assert nodes[1].neighbors() == [2]
        assert nodes[0].neighbors() == [2]


class TestTimers:
    def test_timer_fires(self, network):
        net, nodes = network
        net.start()
        nodes[2].set_timer(3.0, "ping")
        net.run()
        assert nodes[2].timers == ["ping"]
        assert net.now == pytest.approx(3.0)

    def test_timer_cancel(self, network):
        net, nodes = network
        net.start()
        handle = nodes[2].set_timer(3.0, "ping")
        handle.cancel()
        net.run()
        assert nodes[2].timers == []


class TestLifecycle:
    def test_start_invokes_on_start(self, network):
        net, nodes = network
        net.start()
        assert all(node.started for node in nodes)

    def test_start_idempotent(self, network):
        net, nodes = network
        net.start()
        net.start()
        assert all(node.started for node in nodes)

    def test_attach_after_start_starts_node(self, network):
        net, nodes = network
        net.start()
        net.add_node(99)
        late = Recorder(99)
        net.attach(late)
        assert late.started

    def test_attach_unknown_node_rejected(self, network):
        net, _ = network
        with pytest.raises(ValueError, match="not in the topology"):
            net.attach(Recorder(42))

    def test_double_attach_rejected(self, network):
        net, _ = network
        with pytest.raises(ValueError, match="already has an actor"):
            net.attach(Recorder(0))


class TestTopologyChanges:
    def test_add_edge_notifies_both(self, network):
        net, nodes = network
        net.start()
        net.add_edge(0, 3)
        assert ("added", 3) in nodes[0].topology_events
        assert ("added", 0) in nodes[3].topology_events

    def test_remove_edge_notifies_both(self, network):
        net, nodes = network
        net.start()
        net.remove_edge(1, 2)
        assert ("removed", 2) in nodes[1].topology_events
        assert ("removed", 1) in nodes[2].topology_events

    def test_add_existing_edge_noop(self, network):
        net, nodes = network
        net.start()
        net.add_edge(0, 1)
        assert nodes[0].topology_events == []

    def test_self_loop_rejected(self, network):
        net, _ = network
        with pytest.raises(ValueError):
            net.add_edge(1, 1)

    def test_remove_node_strips_edges(self, network):
        net, nodes = network
        net.start()
        net.remove_node(1)
        assert 1 not in net.node_ids
        assert net.neighbors_of(0) == []
        assert net.neighbors_of(2) == [3]

    def test_message_to_departed_node_dropped(self, network):
        net, nodes = network
        net.start()
        nodes[0].send(1, "late")
        net.remove_node(1)  # departs while the message is in flight
        net.run()
        # no crash, nothing delivered anywhere
        assert all(not node.received for node in nodes if node.node_id != 1)

    def test_duplicate_node_id_rejected(self, network):
        net, _ = network
        with pytest.raises(ValueError, match="already exists"):
            net.add_node(2)

    def test_degree_follows_topology_changes(self, network):
        net, _ = network
        assert [net.degree_of(i) for i in range(4)] == [1, 2, 2, 1]
        net.add_edge(0, 3)
        assert net.degree_of(0) == net.degree_of(3) == 2
        net.remove_node(1)
        assert net.degree_of(0) == 1
        assert net.degree_of(2) == 1

    def test_to_adjacency_snapshot(self, network):
        net, _ = network
        net.add_edge(0, 2)
        adjacency = net.to_adjacency()
        assert adjacency.has_edge(0, 2)
        assert adjacency.n_edges == 4


class TestLatencyModel:
    def test_zero_jitter_is_constant(self):
        import numpy as np

        model = LatencyModel(2.0, 0.0)
        rng = np.random.default_rng(0)
        assert model.sample(rng) == 2.0

    def test_jitter_within_bounds(self):
        import numpy as np

        model = LatencyModel(1.0, 0.5)
        rng = np.random.default_rng(0)
        for _ in range(100):
            delay = model.sample(rng)
            assert 1.0 <= delay <= 1.5

    def test_negative_base_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(-1.0, 0.0)

"""Benchmark: full vs incremental re-diffusion cost as churn grows.

A 1000-node overlay re-diffuses after documents move.  The full strategy
re-runs the whole push diffusion; the incremental strategy pushes only the
sparse personalization delta and patches the cached scores
(:mod:`repro.simulation.refresh`).  Both restore identical routing hints, so
the decision-relevant numbers are the sweep / edge-operation counts recorded
here: for a single moved document the incremental refresh does a fraction of
the work, and the advantage narrows as the change approaches the whole
network.
"""

import numpy as np
import pytest

from benchmarks.conftest import emit_report
from repro.core.backends import SparseDiffusionBackend
from repro.core.search import DiffusionSearchNetwork
from repro.graphs.adjacency import CompressedAdjacency
from repro.graphs.social import FacebookLikeConfig, facebook_like_graph
from repro.gsp.normalization import transition_matrix
from repro.simulation.refresh import SignalRefresher
from repro.simulation.reporting import format_rows

N_NODES = 1000
N_DOCUMENTS = 1000
ALPHA = 0.5
TOL = 1e-8
CHURN_SIZES = (1, 5, 20, 100, 500)


@pytest.fixture(scope="module")
def overlay():
    graph = facebook_like_graph(
        FacebookLikeConfig(n_nodes=N_NODES, target_edges=15000, n_egos=8), seed=5
    )
    return CompressedAdjacency.from_networkx(graph)


@pytest.fixture(scope="module")
def placement(overlay):
    """Document scores and nodes for a uniform M=1000 placement."""
    rng = np.random.default_rng(11)
    doc_scores = rng.standard_normal(N_DOCUMENTS)
    nodes = rng.integers(0, overlay.n_nodes, size=N_DOCUMENTS)
    return doc_scores, nodes


def _signal(doc_scores, nodes):
    return np.bincount(nodes, weights=doc_scores, minlength=N_NODES)


def test_refresh_cost_vs_churn(benchmark, overlay, placement):
    """Sweep churn size; record the full-vs-incremental cost table."""
    doc_scores, nodes = placement
    operator = transition_matrix(overlay, "column")
    refresher = SignalRefresher(operator, ALPHA, tol=TOL)
    signal = _signal(doc_scores, nodes)
    base = refresher.cold_start(signal)
    rng = np.random.default_rng(12)

    rows = []
    single_doc = None
    for n_moved in CHURN_SIZES:
        moved = nodes.copy()
        which = rng.choice(N_DOCUMENTS, size=n_moved, replace=False)
        moved[which] = rng.integers(0, N_NODES, size=n_moved)
        new_signal = _signal(doc_scores, moved)
        incremental = refresher.refresh(
            "incremental", base.scores, signal, new_signal
        )
        full = refresher.refresh("full", base.scores, signal, new_signal)
        assert np.max(np.abs(incremental.scores - full.scores)) < 1e-6
        rows.append(
            {
                "docs moved": n_moved,
                "incr sweeps": incremental.sweeps,
                "incr edge ops": incremental.edge_operations,
                "full sweeps": full.sweeps,
                "full edge ops": full.edge_operations,
                "ops ratio": round(
                    incremental.edge_operations / max(1, full.edge_operations), 3
                ),
            }
        )
        if n_moved == 1:
            single_doc = (incremental, full, new_signal)

    emit_report(
        "incremental_refresh",
        format_rows(
            rows,
            title=(
                f"incremental vs full push re-diffusion cost, "
                f"{N_NODES}-node overlay, M={N_DOCUMENTS}, alpha={ALPHA}"
            ),
        ),
        data={
            "n_nodes": N_NODES,
            "n_documents": N_DOCUMENTS,
            "alpha": ALPHA,
            "rows": rows,
        },
    )
    # A single moved document must cost measurably less than a full redo.
    incremental, full, new_signal = single_doc
    assert incremental.edge_operations < 0.5 * full.edge_operations
    assert incremental.sweeps <= full.sweeps + 5

    benchmark(
        lambda: refresher.refresh(
            "incremental", base.scores, signal, new_signal
        )
    )


def test_facade_single_placement_refresh(benchmark, overlay):
    """DiffusionSearchNetwork: patching one placement beats a full redo."""
    rng = np.random.default_rng(13)
    dim = 16
    net = DiffusionSearchNetwork(overlay, dim=dim, alpha=ALPHA)
    for i in range(300):
        net.place_document(
            f"d{i}", rng.standard_normal(dim), int(rng.integers(N_NODES))
        )
    exact = SparseDiffusionBackend(epsilon=0.0)
    cold = net.diffuse(method=exact, tol=TOL)

    def place_and_refresh():
        net.place_document("hot", rng.standard_normal(dim), 7)
        outcome = net.diffuse(method=exact, tol=TOL)
        net.remove_document("hot")
        net.diffuse(method=exact, tol=TOL)
        return outcome

    outcome = benchmark.pedantic(place_and_refresh, rounds=3, iterations=1)
    assert outcome.incremental
    assert outcome.operations < 0.5 * cold.operations

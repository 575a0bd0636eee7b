"""Tests for the hot-loop kernels (``repro.kernels``) and what rides on them.

* reference semantics — each kernel bit-identical to the inline numpy it
  was extracted from (a scalar re-derivation here);
* patch points — every production caller reaches its kernel through the
  ``repro.kernels.dispatch`` module attribute, the binding profilers wrap,
  and every kernel the benchmark wraps stays defined;
* the float32 pipeline and coalesced dirty-row refresh built on top of them.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.batch import run_queries
from repro.core.engine import WalkConfig
from repro.core.forwarding import EmbeddingGuidedPolicy, PrecomputedScorePolicy
from repro.core.search import DiffusionSearchNetwork
from repro.core.backends.sparse import SparseDiffusionBackend
from repro.graphs.adjacency import CompressedAdjacency
from repro.graphs.generators import connected_watts_strogatz
from repro.gsp.filters import SparsePersonalizedPageRank, coerce_sparse_signal
from repro.gsp.normalization import transition_matrix
from repro.gsp.push import forward_push
from repro.kernels import dispatch, kernel_info


@pytest.fixture(scope="module")
def adjacency():
    return CompressedAdjacency.from_networkx(
        connected_watts_strogatz(60, 4, 0.2, seed=11)
    )


@pytest.fixture(scope="module")
def operator(adjacency):
    return transition_matrix(adjacency, "column")


def _argmax_cases(rng, n_cases=50):
    """Randomized (scores, unseen, seg_starts, segments) segment layouts."""
    for _ in range(n_cases):
        n_seg = int(rng.integers(1, 8))
        lens = rng.integers(1, 6, size=n_seg)
        seg_starts = np.concatenate(([0], np.cumsum(lens)[:-1])).astype(np.int64)
        total = int(lens.sum())
        segments = np.repeat(np.arange(n_seg, dtype=np.int64), lens)
        # Duplicate score values force tie-breaks; some segments all-seen.
        scores = rng.choice([-1.0, 0.0, 0.25, 0.25, 1.0], size=total)
        unseen = rng.random(total) < rng.choice([0.0, 0.3, 0.8, 1.0])
        yield scores, unseen, seg_starts, segments


def _argmax_scalar(scores, unseen, seg_starts, segments):
    """Straight-line per-segment re-derivation of the selection contract."""
    n_seg = seg_starts.shape[0]
    out = np.empty(n_seg, dtype=np.int64)
    bounds = np.append(seg_starts, scores.shape[0])
    for s in range(n_seg):
        lo, hi = int(bounds[s]), int(bounds[s + 1])
        pool = [
            (scores[i], i)
            for i in range(lo, hi)
            if unseen[i] or not unseen[lo:hi].any()
        ]
        best = max(v for v, _ in pool)
        out[s] = min(i for v, i in pool if v == best)
    return out


class TestReferenceKernels:
    def test_masked_segment_argmax_matches_scalar(self):
        rng = np.random.default_rng(1)
        for scores, unseen, seg_starts, segments in _argmax_cases(rng):
            iota = np.arange(scores.shape[0], dtype=np.int64)
            got = dispatch.masked_segment_argmax(
                scores, unseen, seg_starts, segments, iota
            )
            want = _argmax_scalar(scores, unseen, seg_starts, segments)
            assert np.array_equal(got, want)

    def test_sparse_key_lookup_matches_dense_gather(self):
        rng = np.random.default_rng(2)
        keys = np.unique(rng.integers(0, 200, size=40)).astype(np.int64)
        values = rng.standard_normal(keys.shape[0])
        wanted = rng.integers(0, 200, size=120).astype(np.int64)
        dense = np.zeros(200)
        dense[keys] = values
        got = dispatch.sparse_key_lookup(keys, values, wanted)
        assert np.array_equal(got, dense[wanted])

    def test_sparse_key_lookup_empty_keys(self):
        got = dispatch.sparse_key_lookup(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float32),
            np.array([3, 7], dtype=np.int64),
        )
        assert got.dtype == np.float32
        assert np.array_equal(got, np.zeros(2, dtype=np.float32))

    def test_csr_row_peaks_matches_dense_scan(self):
        rng = np.random.default_rng(3)
        matrix = sp.random(30, 7, density=0.2, random_state=4, format="csr")
        rows, peaks = dispatch.csr_row_peaks(matrix.data, matrix.indptr)
        dense = np.abs(matrix.toarray()).max(axis=1)
        lens = np.diff(matrix.indptr)
        assert np.array_equal(rows, np.flatnonzero(lens))
        assert np.array_equal(peaks, dense[rows])

    def test_csr_row_peaks_empty(self):
        empty = sp.csr_matrix((5, 3))
        rows, peaks = dispatch.csr_row_peaks(empty.data, empty.indptr)
        assert rows.size == 0 and peaks.size == 0

    def test_scatter_matches_explicit_loop(self):
        rng = np.random.default_rng(4)
        residual = rng.standard_normal((12, 5))
        want = residual.copy()
        rows = rng.integers(0, 12, size=30).astype(np.int64)
        cols = rng.integers(0, 12, size=30).astype(np.int64)
        data = rng.standard_normal(30)
        pushed = rng.standard_normal((12, 5))
        for r, c, w in zip(rows, cols, data):
            want[r] += 0.5 * w * pushed[c]
        dispatch.scatter_add_weighted_rows(
            residual, rows, cols, data, pushed, 0.5
        )
        assert np.allclose(residual, want, atol=1e-12)


PERFBENCH_LAYERS = Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"


def perfbench_kernels():
    """The ``KERNELS`` names ``perfbench/layers.py`` patches on ``dispatch``."""
    for node in ast.parse(PERFBENCH_LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "KERNELS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/layers.py defines no KERNELS")


class TestPatchPoints:
    """Profilers count kernel calls by rebinding ``dispatch.<name>``.

    A caller that imported a kernel by name, or inlined it, would bypass the
    rebinding and silently report zero calls.
    """

    def test_benchmark_kernels_stay_defined(self):
        """The benchmark patches these by name, so each must exist even
        once no production caller reaches it."""
        names = perfbench_kernels()
        assert len(names) == 4
        for name in names:
            assert callable(vars(dispatch).get(name)), name

    def test_every_benchmark_patch_point_exists_and_restores(self, monkeypatch):
        """The traced benchmark patches attributes across ``src/`` by name
        (``perfbench/layers.py`` ``install``).  A missing one fails only
        the traced run, so install the shims here on a fresh tracer and
        check that restoring puts every original back."""
        import repro.core.batch
        import repro.core.engine
        import repro.serving.service

        monkeypatch.syspath_prepend(str(PERFBENCH_LAYERS.parents[1]))
        from perfbench.layers import install
        from perfbench.tracer import Tracer

        tracer = Tracer()
        try:
            install(tracer)
            patches = list(tracer._patches)
            assert patches
            for owner, attr, original in patches:
                assert vars(owner)[attr] is not original, (owner, attr)
        finally:
            tracer.restore()
        for owner, attr, original in patches:
            assert vars(owner)[attr] is original, (owner, attr)
        # The service no longer calls run_query, but the shims patch it there.
        assert repro.serving.service.run_query is repro.core.engine.run_query
        assert repro.serving.service.run_queries is repro.core.batch.run_queries

    def test_production_callers_reach_patched_kernels(
        self, adjacency, monkeypatch
    ):
        assert kernel_info()["backend"] == "numpy"
        rng = np.random.default_rng(19)
        n = adjacency.n_nodes
        callers = {
            "masked_segment_argmax": lambda: run_queries(
                adjacency,
                {},
                [PrecomputedScorePolicy(rng.random(n)) for _ in range(3)],
                np.ones(2),
                [0, 1, 2],
                WalkConfig(ttl=5),
            ),
        }
        calls = dict.fromkeys(callers, 0)

        def counting(name, kernel):
            def shim(*args):
                calls[name] += 1
                return kernel(*args)

            return shim

        for name in callers:
            monkeypatch.setattr(
                dispatch, name, counting(name, getattr(dispatch, name))
            )
        for name, call in callers.items():
            before = calls[name]
            call()
            assert calls[name] > before, name


class TestFloat32Pipeline:
    def test_coercers_honor_dtype(self):
        dense, _ = coerce_sparse_signal(np.ones((4, 2)), 4, np.float32)
        assert dense.dtype == np.float32

    def test_filter_dtype_validation(self):
        with pytest.raises(ValueError, match="float32 or float64"):
            SparsePersonalizedPageRank(0.5, dtype=np.float16)

    def test_backend_dtype_validation(self):
        with pytest.raises(ValueError, match="float32 or float64"):
            SparseDiffusionBackend(dtype=np.int32)

    def test_facade_dtype_validation(self):
        graph = connected_watts_strogatz(10, 4, 0.2, seed=1)
        with pytest.raises(ValueError, match="float32 or float64"):
            DiffusionSearchNetwork(graph, dim=3, dtype=np.float16)

    def test_sparse_filter_float32_cache(self, operator):
        rng = np.random.default_rng(10)
        signal = sp.csr_matrix(
            np.where(rng.random((60, 4)) < 0.1, rng.standard_normal((60, 4)), 0.0)
        )
        ppr32 = SparsePersonalizedPageRank(0.5, epsilon=0.0, dtype=np.float32)
        ppr64 = SparsePersonalizedPageRank(0.5, epsilon=0.0, dtype=np.float64)
        out32 = ppr32.apply_detailed(operator, signal).signal
        out64 = ppr64.apply_detailed(operator, signal).signal
        assert out32.dtype == np.float32
        assert out64.dtype == np.float64
        dense32 = out32.toarray().astype(np.float64)
        dense64 = out64.toarray()
        assert np.allclose(dense32, dense64, atol=5e-5)

    def test_sparse_push_float32(self, operator):
        signal = sp.lil_matrix((60, 3))
        signal[0, 0] = 1.0
        signal[5, 2] = -2.0
        block, _ = coerce_sparse_signal(signal, 60)
        out = forward_push(
            operator, block, alpha=0.4, tol=1e-5, dtype=np.float32
        )
        assert out.estimate.dtype == np.float32

    def test_policy_preserves_float32(self):
        rng = np.random.default_rng(13)
        emb32 = rng.standard_normal((20, 4)).astype(np.float32)
        policy = EmbeddingGuidedPolicy(emb32)
        assert policy.embeddings.dtype == np.float32
        block, _ = coerce_sparse_signal(emb32, 20, np.float32)
        block_policy = EmbeddingGuidedPolicy(block)
        assert block_policy.embeddings.dtype == np.float32
        scores32 = PrecomputedScorePolicy(emb32[:, 0])
        assert scores32.node_scores.dtype == np.float32

    def test_sparse_key_lookup_float32(self):
        keys = np.array([2, 5], dtype=np.int64)
        values = np.array([1.5, -0.5], dtype=np.float32)
        got = dispatch.sparse_key_lookup(
            keys, values, np.array([5, 3], dtype=np.int64)
        )
        assert got.dtype == np.float32
        assert np.array_equal(got, np.array([-0.5, 0.0], dtype=np.float32))

    def test_facade_float32_end_to_end(self):
        graph = connected_watts_strogatz(40, 4, 0.2, seed=5)
        rng = np.random.default_rng(14)
        docs = [(f"d{i}", rng.standard_normal(8), i % 40) for i in range(25)]

        def build(dtype, backend):
            net = DiffusionSearchNetwork(graph, dim=8, dtype=dtype)
            net.place_documents(docs)
            net.diffuse(method=backend)
            return net

        net32 = build(np.float32, SparseDiffusionBackend(dtype=np.float32))
        net64 = build(np.float64, SparseDiffusionBackend(dtype=np.float64))
        cache32 = net32.last_diffusion.embeddings
        cache64 = net64.last_diffusion.embeddings
        assert cache32.dtype == np.float32
        assert cache64.dtype == np.float64
        assert np.allclose(
            cache32.toarray().astype(np.float64), cache64.toarray(), atol=1e-4
        )
        query = rng.standard_normal(8)
        r32 = net32.search(query, start_node=0, ttl=12, k=3, seed=1)
        r64 = net64.search(query, start_node=0, ttl=12, k=3, seed=1)
        assert [item.doc_id for item in r32.tracker.items()] == [
            item.doc_id for item in r64.tracker.items()
        ]


class TestCoalescedDirtyDelta:
    """One refresh per window diffuses the window's whole dirty set."""

    @pytest.mark.parametrize(
        "method_name",
        [SparseDiffusionBackend(epsilon=0.0), "sparse"],
        ids=["exact", "sparse"],
    )
    def test_many_batches_one_refresh(self, method_name):
        graph = connected_watts_strogatz(30, 4, 0.2, seed=7)
        rng = np.random.default_rng(17)
        net = DiffusionSearchNetwork(graph, dim=4)
        net.place_document("seed", rng.standard_normal(4), 0)
        net.diffuse(method=method_name, tol=1e-10)
        # Three separate churn batches accrue before one refresh call.
        for batch in range(3):
            for j in range(2):
                net.place_document(
                    f"b{batch}-{j}",
                    rng.standard_normal(4),
                    (batch * 7 + j) % 30,
                )
        net.remove_document("b0-0")
        assert len(net.dirty_nodes) >= 3
        outcome = net.diffuse(method=method_name, tol=1e-10)
        assert outcome.incremental and outcome.converged
        exact = net.diffuse(method="solve", incremental=False)
        assert np.max(np.abs(net.embeddings - exact.embeddings)) < 1e-6

    def test_repeated_refreshes_stay_exact(self):
        """Row-replacement baseline: drift cannot accumulate over windows."""
        graph = connected_watts_strogatz(30, 4, 0.2, seed=8)
        rng = np.random.default_rng(18)
        net = DiffusionSearchNetwork(graph, dim=3)
        net.place_document("seed", rng.standard_normal(3), 0)
        exact_backend = SparseDiffusionBackend(epsilon=0.0)
        net.diffuse(method=exact_backend, tol=1e-10)
        for i in range(6):
            net.place_document(f"w{i}", rng.standard_normal(3), (i * 5) % 30)
            outcome = net.diffuse(method=exact_backend, tol=1e-10)
            assert outcome.incremental
        exact = net.diffuse(method="solve", incremental=False)
        assert np.max(np.abs(net.embeddings - exact.embeddings)) < 1e-6

"""The benchmark's output checks must pass on valid outputs and fail on
corrupted ones.

Run from the repository root with either::

    python3 -m pytest perfbench -q
    python3 perfbench/test_perfbench_checks.py
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

import numpy as np
import scipy.sparse as sp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import (CheckError, check_augmentation,  # noqa: E402
                    check_completed, check_fairgen_graph,
                    check_recurrent_graphs, check_served_walks,
                    check_simple_graph)


def _graph(n: int, edges) -> sp.csr_matrix:
    edges = np.asarray(edges).reshape(-1, 2)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    return sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))


def _upper(adj) -> np.ndarray:
    upper = sp.triu(adj, k=1).tocoo()
    return np.column_stack([upper.row, upper.col])


class Fixture:
    """A 60-node ring-of-cliques input with 8 protected nodes."""

    n = 60

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        edges = set()
        for block in range(0, self.n, 6):
            for u in range(block, block + 6):
                for v in range(u + 1, block + 6):
                    if rng.random() < 0.7:
                        edges.add((u, v))
            edges.add((block, (block + 6) % self.n))
        self.edges = np.array(sorted(edges))
        self.adj = _graph(self.n, self.edges)
        self.protected = np.zeros(self.n, dtype=bool)
        self.protected[[0, 7, 14, 21, 28, 35, 42, 49]] = True
        self.m = len(self.edges)

    def non_edges(self, count: int) -> np.ndarray:
        existing = {tuple(e) for e in self.edges.tolist()}
        out = []
        for u in range(self.n):
            for v in range(u + 2, self.n):
                if (u, v) not in existing:
                    out.append((u, v))
                if len(out) == count:
                    return np.array(out)
        raise AssertionError("fixture too dense")


class SimpleGraphChecks(unittest.TestCase):
    def setUp(self) -> None:
        self.fx = Fixture()

    def test_valid_graph_passes(self) -> None:
        self.assertEqual(check_simple_graph(self.fx.adj, self.fx.n),
                         self.fx.m)

    def test_asymmetric_adjacency_fails(self) -> None:
        adj = self.fx.adj.tolil()
        u, v = self.fx.edges[0]
        adj[v, u] = 0
        with self.assertRaises(CheckError):
            check_simple_graph(adj.tocsr(), self.fx.n)

    def test_self_loop_fails(self) -> None:
        adj = self.fx.adj.tolil()
        adj[3, 3] = 1
        with self.assertRaises(CheckError):
            check_simple_graph(adj.tocsr(), self.fx.n)

    def test_weighted_entry_fails(self) -> None:
        adj = self.fx.adj.tolil()
        u, v = self.fx.edges[0]
        adj[u, v] = adj[v, u] = 2
        with self.assertRaises(CheckError):
            check_simple_graph(adj.tocsr(), self.fx.n)

    def test_wrong_node_count_fails(self) -> None:
        with self.assertRaises(CheckError):
            check_simple_graph(self.fx.adj, self.fx.n + 1)


class FairGenChecks(unittest.TestCase):
    def setUp(self) -> None:
        self.fx = Fixture()

    def test_copy_of_input_passes(self) -> None:
        check_fairgen_graph(self.fx.adj, self.fx.adj, self.fx.protected)

    def test_missing_edge_fails(self) -> None:
        adj = _graph(self.fx.n, self.fx.edges[1:])
        with self.assertRaises(CheckError):
            check_fairgen_graph(adj, self.fx.adj, self.fx.protected)

    def test_protected_volume_drift_fails(self) -> None:
        # Swap every protected-incident edge for an unprotected non-edge:
        # same edge count, protected volume zero.
        keep = ~(self.fx.protected[self.fx.edges[:, 0]]
                 | self.fx.protected[self.fx.edges[:, 1]])
        dropped = int((~keep).sum())
        free = np.flatnonzero(~self.fx.protected)
        existing = {tuple(e) for e in self.fx.edges.tolist()}
        extra = [(u, v) for i, u in enumerate(free) for v in free[i + 1:]
                 if (u, v) not in existing][:dropped]
        adj = _graph(self.fx.n, np.vstack([self.fx.edges[keep], extra]))
        self.assertEqual(check_simple_graph(adj, self.fx.n), self.fx.m)
        with self.assertRaises(CheckError):
            check_fairgen_graph(adj, self.fx.adj, self.fx.protected)

    def test_random_graph_with_no_overlap_fails(self) -> None:
        adj = _graph(self.fx.n, self.fx.non_edges(self.fx.m))
        with self.assertRaises(CheckError):
            check_fairgen_graph(adj, self.fx.adj,
                                np.zeros(self.fx.n, dtype=bool))


class RecurrentChecks(unittest.TestCase):
    def setUp(self) -> None:
        self.fx = Fixture()

    def test_valid_outputs_pass(self) -> None:
        fewer = _graph(self.fx.n, self.fx.edges[:-5])
        check_recurrent_graphs(fewer, self.fx.adj, self.fx.adj)

    def test_netgan_edge_count_fails(self) -> None:
        fewer = _graph(self.fx.n, self.fx.edges[:-1])
        with self.assertRaises(CheckError):
            check_recurrent_graphs(self.fx.adj, fewer, self.fx.adj)

    def test_graphrnn_asymmetry_fails(self) -> None:
        adj = self.fx.adj.tolil()
        adj[0, 30] = 1
        with self.assertRaises(CheckError):
            check_recurrent_graphs(adj.tocsr(), self.fx.adj, self.fx.adj)


class AugmentationChecks(unittest.TestCase):
    fraction = 0.05

    def setUp(self) -> None:
        self.fx = Fixture()
        self.budget = max(1, int(round(self.fraction * self.fx.m)))
        self.proposals = self.fx.non_edges(self.budget)
        self.augmented = _graph(self.fx.n,
                                np.vstack([self.fx.edges, self.proposals]))

    def check(self, proposals=None, augmented=None, accuracy=0.8) -> None:
        check_augmentation(
            self.fx.adj,
            self.proposals if proposals is None else proposals,
            self.augmented if augmented is None else augmented,
            accuracy, 6, self.fraction)

    def test_valid_study_passes(self) -> None:
        self.check()

    def test_existing_edge_proposed_fails(self) -> None:
        proposals = self.proposals.copy()
        proposals[0] = self.fx.edges[0]
        with self.assertRaises(CheckError):
            self.check(proposals=proposals)

    def test_self_loop_proposed_fails(self) -> None:
        proposals = self.proposals.copy()
        proposals[0] = (5, 5)
        with self.assertRaises(CheckError):
            self.check(proposals=proposals)

    def test_duplicate_proposal_fails(self) -> None:
        proposals = self.proposals.copy()
        proposals[1] = proposals[0][::-1]
        with self.assertRaises(CheckError):
            self.check(proposals=proposals)

    def test_budget_miss_fails(self) -> None:
        with self.assertRaises(CheckError):
            self.check(proposals=self.proposals[:-1])

    def test_augmented_graph_missing_proposal_fails(self) -> None:
        augmented = _graph(self.fx.n, np.vstack([self.fx.edges,
                                                 self.proposals[1:]]))
        with self.assertRaises(CheckError):
            self.check(augmented=augmented)

    def test_augmented_graph_with_other_edge_fails(self) -> None:
        other = self.fx.non_edges(self.budget + 1)[-1:]
        augmented = _graph(self.fx.n, np.vstack([self.fx.edges,
                                                 self.proposals[1:], other]))
        with self.assertRaises(CheckError):
            self.check(augmented=augmented)

    def test_chance_level_accuracy_fails(self) -> None:
        with self.assertRaises(CheckError):
            self.check(accuracy=1 / 6)


class ServingChecks(unittest.TestCase):
    def setUp(self) -> None:
        self.walks = np.random.default_rng(1).integers(0, 324, (16, 8))

    def test_identical_walks_pass(self) -> None:
        check_served_walks(self.walks.copy(), self.walks)

    def test_one_changed_node_fails(self) -> None:
        served = self.walks.copy()
        served[3, 5] = (served[3, 5] + 1) % 324
        with self.assertRaises(CheckError):
            check_served_walks(served, self.walks)

    def test_truncated_walks_fail(self) -> None:
        with self.assertRaises(CheckError):
            check_served_walks(self.walks[:, :-1], self.walks)

    def test_dtype_change_fails(self) -> None:
        with self.assertRaises(CheckError):
            check_served_walks(self.walks.astype(np.int32), self.walks)

    def test_incomplete_requests_fail(self) -> None:
        check_completed(200, 200, "batcher")
        with self.assertRaises(CheckError):
            check_completed(200, 199, "batcher")


class OpReferenceTime(unittest.TestCase):
    def test_cpu_seconds_scale_with_kernel(self) -> None:
        from speed import REFERENCE_S, cpu_ref_seconds

        self.assertAlmostEqual(cpu_ref_seconds(2.0, REFERENCE_S), 2.0)
        self.assertAlmostEqual(cpu_ref_seconds(2.0, 2 * REFERENCE_S), 1.0)

    def test_reference_speed_keeps_wall_time(self) -> None:
        from speed import REFERENCE_S, op_ref_seconds

        self.assertAlmostEqual(op_ref_seconds(3.0, 2.0, REFERENCE_S), 3.0)

    def test_only_cpu_time_is_rescaled(self) -> None:
        from speed import REFERENCE_S, op_ref_seconds

        # The kernel ran twice as slow: CPU seconds halve, waits stay.
        self.assertAlmostEqual(
            op_ref_seconds(3.0, 2.0, 2 * REFERENCE_S), 1.0 + 1.0)


class SpeedSampling(unittest.TestCase):
    def test_span_leaves_out_the_sampler_time(self) -> None:
        import time

        from speed import PERIOD_S, SpeedSampler

        sampler = SpeedSampler()
        sampler.start()
        try:
            mark = sampler.mark()
            start = time.perf_counter()
            while time.perf_counter() - start < 4 * PERIOD_S:
                pass
            timing = sampler.since(mark)
        finally:
            sampler.stop()
        self.assertGreaterEqual(len(sampler.samples), 3)
        spent = sum(sampler.samples)
        self.assertLess(timing.wall_s, time.perf_counter() - start)
        self.assertAlmostEqual(timing.wall_s + spent,
                               time.perf_counter() - start, delta=0.05)
        self.assertGreater(timing.kernel_s, 0.0)


class BenchmarkSpec(unittest.TestCase):
    """The traced run reports exactly the per-layer metrics declared in
    BENCHMARK.json, with the declared units."""

    def test_per_layer_metrics_match_spec(self) -> None:
        spec_path = HERE.parent / "BENCHMARK.json"
        spec = json.loads(spec_path.read_text())
        sys.path.insert(0, str(HERE.parent / "src"))
        from run import layer_metrics, layer_unit

        reported = layer_metrics([], {}, 1, [], 1.0)
        self.assertEqual(list(reported),
                         [m["name"] for m in spec["per_layer"]])
        for metric in spec["per_layer"]:
            self.assertEqual(layer_unit(metric["name"]), metric["unit"],
                             metric["name"])


if __name__ == "__main__":
    unittest.main()

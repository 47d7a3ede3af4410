import numpy as np
import pytest

import zonegraph.nn as nn
from zonegraph.controller import (
    GraphState,
    adapt_graph,
    graph_feature,
    locate_current_zone,
    max_product_path,
    plan_subgoal,
    target_zone,
)
from zonegraph.errors import UsageError
from zonegraph.graph import KnowledgeGraph
from zonegraph.selfcheck import enumerate_max_product, random_edge_matrix


def graph_of(nodes, edges=None):
    nodes = np.asarray(nodes, dtype=float)
    m = nodes.shape[0]
    if edges is None:
        edges = np.eye(m)
    return KnowledgeGraph(nodes, np.asarray(edges, dtype=float), "kitchen")


class TestLocate:
    def test_exact_node_match(self):
        rng = np.random.default_rng(0)
        nodes = rng.normal(size=(5, 4))
        gs = GraphState(graph_of(nodes))
        assert locate_current_zone(gs, nodes[3].copy()) == 3

    def test_tie_goes_to_lowest_id(self):
        gs = GraphState(graph_of(np.ones((4, 3))))
        assert locate_current_zone(gs, np.zeros(3)) == 0

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            nodes = rng.normal(size=(5, 6))
            gs = GraphState(graph_of(nodes))
            f = rng.normal(size=6)
            best = min(range(5), key=lambda m: float(((nodes[m] - f) ** 2).sum()))
            assert locate_current_zone(gs, f) == best

    @staticmethod
    def _old_formula(gs, f_obs):
        return int(np.argmin(np.sum((gs.adapted - f_obs[None, :]) ** 2, axis=1)))

    def test_matches_old_formula(self):
        # the in-place distances against the one-expression form: random
        # nodes, exact ties between duplicate rows, and a zero observation
        rng = np.random.default_rng(2)
        for trial in range(200):
            m, d = int(rng.integers(1, 12)), int(rng.integers(1, 70))
            nodes = rng.normal(size=(m, d)) * 10.0 ** rng.integers(-3, 4)
            if m > 2 and trial % 2:
                nodes[m - 1] = nodes[1]  # an exact tie, possibly the nearest
                nodes[0] = nodes[m - 2]
            gs = GraphState(graph_of(nodes))
            for f in (rng.normal(size=d), np.zeros(d), nodes[m // 2].copy(),
                      0.5 * (nodes[0] + nodes[m - 1])):
                assert locate_current_zone(gs, f) == self._old_formula(gs, f)

    def test_tied_rows_at_zero_observation(self):
        nodes = np.array([[0.0, 3.0], [3.0, 0.0], [-3.0, 0.0], [0.0, -3.0]])
        gs = GraphState(graph_of(nodes))
        zero = np.zeros(2)
        assert locate_current_zone(gs, zero) == self._old_formula(gs, zero) == 0
        nodes[0] = [0.0, 4.0]
        gs = GraphState(graph_of(nodes))
        assert locate_current_zone(gs, zero) == self._old_formula(gs, zero) == 1

    def test_uses_adapted_features(self):
        nodes = np.array([[1.0, 0.0], [0.0, 1.0]])
        gs = GraphState(graph_of(nodes), lam=1.0)
        probe = np.array([5.0, 5.0])
        adapt_graph(gs, probe, 1)  # row 1 becomes (5, 5)
        assert locate_current_zone(gs, probe) == 1


class TestAdapt:
    def test_lambda_zero_no_change(self):
        rng = np.random.default_rng(2)
        nodes = rng.normal(size=(4, 3))
        gs = GraphState(graph_of(nodes), lam=0.0)
        adapt_graph(gs, rng.normal(size=3), 2)
        np.testing.assert_array_equal(gs.adapted, nodes)

    def test_lambda_one_replaces_row(self):
        rng = np.random.default_rng(3)
        nodes = rng.normal(size=(4, 3))
        gs = GraphState(graph_of(nodes), lam=1.0)
        f = rng.normal(size=3)
        adapt_graph(gs, f, 2)
        np.testing.assert_array_equal(gs.adapted[2], f)

    def test_blend_arithmetic(self):
        gs = GraphState(graph_of([[1.0, 0.0], [9.0, 9.0]]), lam=0.3)
        adapt_graph(gs, np.array([0.0, 1.0]), 0)
        np.testing.assert_allclose(gs.adapted[0], [0.7, 0.3], atol=1e-15)
        np.testing.assert_array_equal(gs.adapted[1], [9.0, 9.0])

    def test_locality_other_rows_bit_identical(self):
        rng = np.random.default_rng(4)
        nodes = rng.normal(size=(6, 5))
        for lam in (0.0, 0.25, 0.8, 1.0):
            gs = GraphState(graph_of(nodes), lam=lam)
            before = gs.adapted.copy()
            zone = 3
            adapt_graph(gs, rng.normal(size=5), zone)
            for m in range(6):
                if m != zone:
                    assert np.array_equal(gs.adapted[m], before[m])

    def test_convexity_row_on_segment(self):
        rng = np.random.default_rng(5)
        nodes = rng.normal(size=(3, 4))
        for lam in (0.1, 0.5, 0.9):
            gs = GraphState(graph_of(nodes), lam=lam)
            f = rng.normal(size=4)
            old = gs.adapted[1].copy()
            adapt_graph(gs, f, 1)
            new = gs.adapted[1]
            # new - old must be parallel to f - old with ratio lam
            np.testing.assert_allclose(new - old, lam * (f - old), atol=1e-12)

    def test_base_graph_never_mutated(self):
        rng = np.random.default_rng(7)
        nodes = rng.normal(size=(4, 3))
        g = graph_of(nodes)
        gs = GraphState(g, lam=0.9)
        adapt_graph(gs, rng.normal(size=3), 0)
        np.testing.assert_array_equal(g.nodes, nodes)


class TestTargetZone:
    def test_exact_embedding_match(self):
        rng = np.random.default_rng(8)
        nodes = np.linalg.qr(rng.normal(size=(4, 4)))[0]  # orthonormal rows
        gs = GraphState(graph_of(nodes))
        assert target_zone(gs, nodes[2].copy()) == 2

    def test_all_identical_ties_to_zero(self):
        gs = GraphState(graph_of(np.ones((5, 3))))
        assert target_zone(gs, np.array([1.0, 1.0, 1.0]) / np.sqrt(3)) == 0

    def test_matches_argmax_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            nodes = rng.normal(size=(6, 5))
            goal = rng.normal(size=5)
            goal /= np.linalg.norm(goal)
            gs = GraphState(graph_of(nodes))
            sims = [
                float(nodes[m] @ goal / (np.linalg.norm(nodes[m]) * np.linalg.norm(goal)))
                for m in range(6)
            ]
            assert target_zone(gs, goal) == int(np.argmax(sims))

    def test_uses_base_not_adapted(self):
        nodes = np.array([[1.0, 0.0], [0.0, 1.0]])
        gs = GraphState(graph_of(nodes), lam=1.0)
        goal = np.array([1.0, 0.0])
        adapt_graph(gs, np.array([-1.0, 0.0]), 0)  # adapted row 0 now opposes the goal
        assert target_zone(gs, goal) == 0  # base graph still has node 0 == goal


class TestPlan:
    def test_current_equals_target(self):
        gs = GraphState(graph_of(np.zeros((5, 2))))
        assert plan_subgoal(gs, 4, 4) == 4
        assert max_product_path(gs.base.edges, 4, 4) == ([4], 1.0)

    def test_three_node_derived_example(self):
        edges = np.array([[1.0, 0.9, 0.5], [0.9, 1.0, 0.9], [0.5, 0.9, 1.0]])
        gs = GraphState(graph_of(np.zeros((3, 2)), edges))
        # exhaustive: direct 0.5 vs 0-1-2 = 0.81
        assert enumerate_max_product(edges, 0, 2) == pytest.approx(0.81, abs=1e-15)
        path, prob = max_product_path(edges, 0, 2)
        assert path == [0, 1, 2] and prob == pytest.approx(0.81, abs=1e-12)
        assert plan_subgoal(gs, 0, 2) == 1

    def test_disconnected_falls_back(self):
        gs = GraphState(graph_of(np.zeros((3, 2)), np.eye(3)))
        assert max_product_path(gs.base.edges, 0, 2) == ([], 0.0)
        assert plan_subgoal(gs, 0, 2) == 0

    def test_optimal_on_random_graphs(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            m = int(rng.integers(2, 7))
            edges = random_edge_matrix(rng, m, density=float(rng.uniform(0.3, 1.0)))
            start, goal = (int(v) for v in rng.choice(m, size=2, replace=False))
            path, prob = max_product_path(edges, start, goal)
            assert prob == pytest.approx(enumerate_max_product(edges, start, goal), abs=1e-12)
            if path:
                # reported probability is the product along the returned path
                check = 1.0
                for a, b in zip(path, path[1:]):
                    check *= edges[a, b]
                assert prob == check

    def test_memoised_plans_match_fresh_planner(self):
        # one state answers every (current, target) pair, twice and in a
        # shuffled order, with the plan an unmemoised planner gives
        rng = np.random.default_rng(12)
        for _ in range(20):
            m = int(rng.integers(2, 8))
            edges = random_edge_matrix(rng, m, density=float(rng.uniform(0.2, 1.0)))
            gs = GraphState(graph_of(rng.normal(size=(m, 3)), edges), lam=0.5)
            pairs = [(a, b) for a in range(m) for b in range(m) for _ in range(2)]
            for k in rng.permutation(len(pairs)):
                current, target = pairs[k]
                adapt_graph(gs, rng.normal(size=3), current)  # adaptation leaves plans alone
                plan = plan_subgoal(gs, current, target)
                fresh = plan_subgoal(GraphState(graph_of(np.zeros((m, 3)), edges)), current, target)
                assert plan == fresh
            assert len(gs.subgoals) == m * (m - 1)

    def test_power_scaling_preserves_selection(self):
        # raising every edge to a power c in (0, 1] scales all -log weights
        # by c and cannot change the optimal path or sub-goal
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(3, 7))
            edges = random_edge_matrix(rng, m)
            start, goal = (int(v) for v in rng.choice(m, size=2, replace=False))
            gs = GraphState(graph_of(np.zeros((m, 2)), edges))
            base_subgoal = plan_subgoal(gs, start, goal)
            c = float(rng.uniform(0.05, 1.0))
            scaled = edges ** c
            np.fill_diagonal(scaled, 1.0)
            gs2 = GraphState(graph_of(np.zeros((m, 2)), scaled))
            assert plan_subgoal(gs2, start, goal) == base_subgoal
            assert bool(max_product_path(scaled, start, goal)[0]) == \
                bool(max_product_path(edges, start, goal)[0])

    def test_multiplicative_scaling_can_flip_selection(self):
        # documents why selection invariance holds for powers, not scalars:
        # max-product comparisons across different path lengths flip when all
        # edges shrink by a common factor
        edges = np.array([[1.0, 0.9, 0.5], [0.9, 1.0, 0.9], [0.5, 0.9, 1.0]])
        assert enumerate_max_product(edges, 0, 2) == pytest.approx(0.81)
        scaled = edges * 0.1
        np.fill_diagonal(scaled, 1.0)
        # two-hop path now 0.09 * 0.09 = 0.0081 < direct 0.05
        assert enumerate_max_product(scaled, 0, 2) == pytest.approx(0.05)

    def test_out_of_range_zone_rejected(self):
        gs = GraphState(graph_of(np.zeros((3, 2))))
        with pytest.raises(UsageError):
            plan_subgoal(gs, 0, 7)


class TestGraphFeature:
    def test_identity_gcn_returns_adapted_row(self):
        rng = np.random.default_rng(12)
        nodes = np.abs(rng.normal(size=(4, 4)))
        gs = GraphState(graph_of(nodes, np.eye(4)))
        params = {"gcn_w1": np.eye(4), "gcn_w2": np.eye(4)}
        np.testing.assert_array_equal(graph_feature(params, gs, 2), nodes[2])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(13)
        edges = random_edge_matrix(rng, 3)
        nodes = rng.normal(size=(3, 4))
        gs = GraphState(graph_of(nodes, edges))
        params = {"gcn_w1": rng.normal(size=(4, 4)), "gcn_w2": rng.normal(size=(4, 4))}
        ahat = nn.normalize_adjacency(edges)
        oracle = ahat @ np.maximum(ahat @ nodes @ params["gcn_w1"], 0.0) @ params["gcn_w2"]
        for sub in range(3):
            np.testing.assert_allclose(graph_feature(params, gs, sub), oracle[sub], atol=1e-13)

    def test_output_length(self):
        rng = np.random.default_rng(14)
        gs = GraphState(graph_of(rng.normal(size=(5, 7))))
        params = {"gcn_w1": rng.normal(size=(7, 7)), "gcn_w2": rng.normal(size=(7, 7))}
        assert graph_feature(params, gs, 0).shape == (7,)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(15)
        gs = GraphState(graph_of(rng.normal(size=(3, 4))))
        params = {"gcn_w1": rng.normal(size=(5, 5)), "gcn_w2": rng.normal(size=(5, 5))}
        with pytest.raises(UsageError):
            graph_feature(params, gs, 0)

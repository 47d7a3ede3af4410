import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from zonegraph.errors import FormatError, UsageError
from zonegraph.graph import (
    KnowledgeGraph,
    PositionFeatureMap,
    ZoneAssignment,
    build_room_graph,
    build_scene_graph,
    cluster_zones,
    graph_from_text,
    graph_to_text,
    match_graphs,
    matching_objective,
    merge_graphs,
    sweep_position_features,
    validate_edges,
)
from zonegraph.categories import GOAL_SET, ROOM_CATEGORIES
from zonegraph.sim import CELL, EPS, HALF_FOV, PITCHES, YAWS, generate_scene

from conftest import (assert_same_clustering, cluster_zones_reference, make_scene,
                      near_objects_reference, scenes_with_off_lattice_objects)


def oracle_sweep(scene, provider):
    """Brute-force re-enumeration of the sweep with independent geometry."""
    band_pitch = {"low": -30, "mid": 0, "high": 30}
    out = {}
    for ix, iz in scene.reachable_cells():
        x, z = ix * CELL, iz * CELL
        total = np.zeros(provider.dim)
        n = 0
        for yaw in YAWS:
            heading = complex(math.sin(math.radians(yaw)), math.cos(math.radians(yaw)))
            for pitch in PITCHES:
                for o in scene.objects:
                    if o.category not in __import__("zonegraph").GOAL_CATEGORIES:
                        continue
                    if band_pitch[o.height_band] != pitch:
                        continue
                    rel = complex(o.x - x, o.z - z)
                    if abs(rel) > 1.5 + 1e-9:
                        continue
                    if abs(rel) > 1e-9:
                        ang = math.degrees(abs(math.atan2((rel / heading).real, (rel / heading).imag)))
                        if ang > 45.0 + 1e-9:
                            continue
                    total += provider.object_embedding(o.category)
                    n += 1
        out[(x, z)] = (total / n if n else total, n)
    return out


def _sweep_reference(scene, provider):
    """sweep_position_features as a loop over visible_objects' views, on
    the per-object reference geometry: the summation order the sweep must
    keep, so its features are bitwise the same."""
    positions = sorted((ix * CELL, iz * CELL) for ix, iz in scene.reachable_cells())
    features = np.zeros((len(positions), provider.dim))
    counts = np.zeros(len(positions), dtype=int)
    for i, (x, z) in enumerate(positions):
        total = np.zeros(provider.dim)
        n = 0
        near = near_objects_reference(scene, x, z)
        for yaw in YAWS:
            for pitch in PITCHES:
                # visible_objects' field-of-view test, in object order
                for category, band, ang, _ in near:
                    if band != pitch or category not in GOAL_SET:
                        continue
                    if ang is None or abs((ang - yaw + 180.0) % 360.0 - 180.0) <= HALF_FOV + EPS:
                        total += provider.object_embedding(category)
                        n += 1
        if n:
            features[i] = total / n
        counts[i] = n
    return PositionFeatureMap(tuple(positions), features, np.arange(len(positions)), counts)


def pair_loop_edges(assignment, feature_map, eps):
    """Edge probabilities by counting every cross-zone pair of positions
    within Manhattan distance eps, one pair at a time."""
    m = assignment.zone_count
    members = [[] for _ in range(m)]
    for i, label in enumerate(assignment.labels):
        members[label].append(i)
    edges = np.eye(m)
    pos = feature_map.positions
    for a in range(m):
        for b in range(a + 1, m):
            hits = 0
            for i in members[a]:
                for j in members[b]:
                    d = abs(pos[i][0] - pos[j][0]) + abs(pos[i][1] - pos[j][1])
                    if d <= eps + 1e-9:
                        hits += 1
            edges[a, b] = edges[b, a] = hits / (len(members[a]) * len(members[b]))
    return edges


def kmeans_objective(x, labels, k):
    obj = 0.0
    for c in range(k):
        members = x[labels == c]
        if len(members):
            obj += float(((members - members.mean(axis=0)) ** 2).sum())
    return obj


def best_two_partition(x):
    """Exhaustive optimal 2-partition objective over <= 2^(S-1) splits."""
    s = len(x)
    best = math.inf
    best_labels = None
    for bits in range(1, 2 ** (s - 1)):  # fix point 0 in cluster 0
        labels = np.array([(bits >> i) & 1 for i in range(s)])
        obj = kmeans_objective(x, labels, 2)
        if obj < best - 1e-12:
            best = obj
            best_labels = labels
    return best, best_labels


class TestSweep:
    def test_single_category_every_view(self, provider):
        # one mid-band object on the viewer's own cell: every pitch-0 view
        # detects it and nothing else
        scene = make_scene(5, 5, [("Sink", 2, 2, "mid")])
        fmap = sweep_position_features(scene, provider)
        i = fmap.positions.index((1.0, 1.0))
        assert fmap.counts[i] == 8
        np.testing.assert_allclose(fmap.features[i], provider.object_embedding("Sink"), atol=1e-12)

    def test_position_seeing_nothing(self, provider):
        scene = make_scene(8, 8, [("Sink", 0, 0, "mid")])
        fmap = sweep_position_features(scene, provider)
        i = fmap.positions.index((3.5, 3.5))  # far corner, > 1.5 m away
        assert fmap.counts[i] == 0
        assert np.all(fmap.features[i] == 0.0)
        # invariant: zero feature iff zero count
        for j in range(len(fmap.positions)):
            assert (fmap.counts[j] == 0) == bool(np.all(fmap.features[j] == 0.0))

    def test_two_to_one_detection_ratio(self, provider):
        # A at bearing 0 in two bands (6 detections), B due east in one band
        # (3 detections): mean = (2*emb(A) + emb(B)) / 3
        scene = make_scene(
            6, 6,
            [("Sink", 2, 4, "mid"), ("Sink", 2, 4, "high"), ("Pan", 4, 2, "mid")],
        )
        fmap = sweep_position_features(scene, provider)
        i = fmap.positions.index((1.0, 1.0))
        a = provider.object_embedding("Sink")
        b = provider.object_embedding("Pan")
        assert fmap.counts[i] == 9
        np.testing.assert_allclose(fmap.features[i], (2 * a + b) / 3, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_reenumeration(self, small_provider, seed):
        rng = np.random.default_rng(seed)
        objs = []
        for cat in ("Sink", "Pan", "Bowl", "Fridge"):
            objs.append((cat, int(rng.integers(5)), int(rng.integers(5)),
                         ("low", "mid", "high")[int(rng.integers(3))]))
        scene = make_scene(5, 5, objs)
        fmap = sweep_position_features(scene, small_provider)
        oracle = oracle_sweep(scene, small_provider)
        for i, pos in enumerate(fmap.positions):
            feat, count = oracle[pos]
            assert fmap.counts[i] == count
            np.testing.assert_allclose(fmap.features[i], feat, atol=1e-12)


    @pytest.mark.parametrize("size", [(8, 8), (16, 16)])
    @pytest.mark.parametrize("room", ROOM_CATEGORIES)
    def test_bitwise_equal_reference(self, provider, room, size):
        # a fresh scene, whose near_objects memo is empty
        got = sweep_position_features(generate_scene(room, size, 0), provider)
        want = _sweep_reference(generate_scene(room, size, 0), provider)
        assert got.positions == want.positions
        assert got.features.tobytes() == want.features.tobytes()
        assert got.counts.tobytes() == want.counts.tobytes()

    @given(scenes_with_off_lattice_objects())
    def test_off_lattice_objects_bitwise_equal_reference(self, small_provider, scene):
        # objects up to EPS off the lattice, or at -0.0, take near_geometry's
        # per-offset angles rather than its table
        got = sweep_position_features(scene, small_provider)
        want = _sweep_reference(scene, small_provider)
        assert got.positions == want.positions
        assert got.features.tobytes() == want.features.tobytes()
        assert got.counts.tobytes() == want.counts.tobytes()
        # row ids in order of first use, each row used
        assert got.index.dtype == np.intp
        assert list(dict.fromkeys(got.index.tolist())) == list(range(len(got.rows)))


class TestCluster:
    @pytest.fixture(autouse=True)
    def _checked_against_reference(self, monkeypatch):
        """Every cluster_zones call in these tests is also held bitwise to
        the loop reference."""
        real = cluster_zones

        def checked(feature_map, zones, seed):
            got = real(feature_map, zones, seed)
            assert_same_clustering(got, cluster_zones_reference(feature_map, zones, seed))
            return got

        monkeypatch.setitem(globals(), "cluster_zones", checked)

    def test_all_identical_single_zone(self):
        positions = tuple((0.5 * i, 0.0) for i in range(5))
        feats = np.tile([1.0, 2.0], (5, 1))
        fmap = PositionFeatureMap(positions, feats, np.arange(5), np.ones(5, dtype=int))
        za = cluster_zones(fmap, 1, seed=0)
        assert za.zone_count == 1
        assert set(za.labels.tolist()) == {0}
        np.testing.assert_allclose(za.centers[0], [1.0, 2.0])

    def test_two_separated_clusters_match_exhaustive_oracle(self, small_provider):
        rng = np.random.default_rng(4)
        a = small_provider.object_embedding("Sink")
        b = small_provider.object_embedding("Fridge")
        feats = []
        truth = []
        positions = []
        for i in range(10):
            which = i % 2
            base = a if which == 0 else b
            feats.append(base + rng.normal(0, 0.01, size=8))
            truth.append(which)
            positions.append((0.5 * i, 0.0))
        x = np.array(feats)
        fmap = PositionFeatureMap(tuple(positions), x, np.arange(10), np.ones(10, dtype=int))
        za = cluster_zones(fmap, 2, seed=0)
        labels = za.labels
        # ground-truth partition up to label swap
        assert (labels == truth).all() or (labels == 1 - np.array(truth)).all()
        best_obj, _ = best_two_partition(x)
        assert kmeans_objective(x, labels, 2) == pytest.approx(best_obj, abs=1e-9)

    def test_more_zones_than_distinct_values_drops(self, caplog):
        positions = tuple((0.5 * i, 0.0) for i in range(6))
        feats = np.array([[float(i % 2), 0.0] for i in range(6)])
        fmap = PositionFeatureMap(positions, feats, np.arange(6), np.ones(6, dtype=int))
        with caplog.at_level(logging.INFO, logger="zonegraph.graph"):
            za = cluster_zones(fmap, 5, seed=3)
        assert za.zone_count == 2
        assert "k-means++ produced 2 centers for requested 5" in caplog.text

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(0)
        positions = tuple((0.5 * i, 0.0) for i in range(12))
        feats = rng.normal(size=(12, 4))
        fmap = PositionFeatureMap(positions, feats, np.arange(12), np.ones(12, dtype=int))
        a = cluster_zones(fmap, 3, seed=42)
        b = cluster_zones(fmap, 3, seed=42)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.centers, b.centers)

    def test_centers_are_member_means(self):
        rng = np.random.default_rng(1)
        positions = tuple((0.5 * i, 0.5 * (i % 3)) for i in range(15))
        feats = rng.normal(size=(15, 3))
        fmap = PositionFeatureMap(positions, feats, np.arange(15), np.ones(15, dtype=int))
        za = cluster_zones(fmap, 4, seed=7)
        for z in range(za.zone_count):
            members = [i for i in range(len(positions)) if za.labels[i] == z]
            assert members
            np.testing.assert_allclose(za.centers[z], feats[members].mean(axis=0), atol=1e-12)


def _line_map(feats) -> PositionFeatureMap:
    """A feature map of the given rows, at positions along a line."""
    feats = np.asarray(feats, dtype=float)
    return PositionFeatureMap(tuple((0.5 * i, 0.0) for i in range(len(feats))), feats,
                              np.arange(len(feats)), np.ones(len(feats), dtype=int))


class TestClusterMatchesReference:
    """cluster_zones against the loop reference in tests/conftest.py: the
    same labels, centers and zone count, bit for bit."""

    @pytest.mark.parametrize("size", [(8, 8), (16, 16)], ids=["8x8", "16x16"])
    @pytest.mark.parametrize("room", ROOM_CATEGORIES)
    def test_generated_scenes(self, provider, room, size):
        for scene_seed in range(4):
            fmap = sweep_position_features(generate_scene(room, size, scene_seed), provider)
            for zones, seed in ((8, 0), (8, 1), (3, 5)):
                assert_same_clustering(cluster_zones(fmap, zones, seed),
                                       cluster_zones_reference(fmap, zones, seed))

    def test_known_fault_set_with_fewer_centers(self, provider, caplog):
        # bedroom 8x8 scenes 36-39: scene 38 has 5 distinct features, so
        # k-means++ stops at 5 centers, and the merged build of the set fails
        zone_counts = []
        with caplog.at_level(logging.INFO, logger="zonegraph.graph"):
            for scene_seed in range(36, 40):
                fmap = sweep_position_features(generate_scene("bedroom", (8, 8), scene_seed),
                                               provider)
                za = cluster_zones(fmap, 8, 0)
                assert_same_clustering(za, cluster_zones_reference(fmap, 8, 0))
                zone_counts.append(za.zone_count)
        assert zone_counts == [8, 8, 5, 8]
        assert "k-means++ produced 5 centers for requested 8" in caplog.text

    def test_dropped_cluster(self, caplog, monkeypatch):
        # the second Lloyd iteration empties the middle one of the 3
        # k-means++ clusters here, so cluster 2 becomes cluster 1. Cut off
        # at each iteration limit, the iteration that drops it returns its
        # relabelled members.
        fmap = _line_map([[0.21472622476331082], [-0.21325393919748534], [0.19614643777033397],
                          [8.8010857811025e-05], [-0.0035573094968148877],
                          [0.004376424726178195], [0.299987399800301], [-1.4786436304555446],
                          [5.545566795671874], [-2.7713050208072847], [-1.9040482479430678],
                          [4.625859280254818], [1.1558083040645892]])
        with caplog.at_level(logging.INFO, logger="zonegraph.graph"):
            za = cluster_zones(fmap, 3, 91)
        assert "dropping 1 empty cluster(s)" in caplog.text
        assert za.zone_count == 2
        assert_same_clustering(za, cluster_zones_reference(fmap, 3, 91))
        for max_iter in range(1, 5):
            monkeypatch.setattr("zonegraph.graph._KMEANS_MAX_ITER", max_iter)
            assert_same_clustering(cluster_zones(fmap, 3, 91),
                                   cluster_zones_reference(fmap, 3, 91, max_iter))

    def test_random_maps_with_duplicate_rows(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            s, d = int(rng.integers(1, 40)), int(rng.integers(1, 5))
            distinct = rng.normal(size=(int(rng.integers(1, s + 1)), d))
            fmap = _line_map(distinct[rng.integers(len(distinct), size=s)])
            zones, seed = int(rng.integers(1, 9)), int(rng.integers(1000))
            assert_same_clustering(cluster_zones(fmap, zones, seed),
                                   cluster_zones_reference(fmap, zones, seed))

    @given(rows=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 3)),
                       elements=st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0])
                       | st.floats(-4.0, 4.0)),
           data=st.data(), zones=st.integers(1, 8), seed=st.integers(0, 2**32))
    def test_grouped_rows_cluster_as_one_row_per_position(self, rows, data, zones, seed):
        # the sweep's index groups positions by detection sequence, and two
        # sequences may average to bitwise-equal rows: the last row repeats
        # the first under a second id
        rows = np.concatenate([rows, rows[:1]])
        index = data.draw(arrays(np.intp, st.integers(1, 40),
                                 elements=st.integers(0, len(rows) - 1)))
        positions = tuple((0.5 * i, 0.0) for i in range(len(index)))
        counts = np.ones(len(index), dtype=int)
        grouped = PositionFeatureMap(positions, rows, index, counts)
        flat = PositionFeatureMap(positions, rows[index], np.arange(len(index)), counts)
        got = cluster_zones(grouped, zones, seed)
        assert_same_clustering(got, cluster_zones(flat, zones, seed))
        assert_same_clustering(got, cluster_zones_reference(grouped, zones, seed))


class TestRoomGraph:
    def _fmap(self, positions, feats):
        return PositionFeatureMap(tuple(positions), np.asarray(feats, dtype=float),
                                  np.arange(len(positions)), np.ones(len(positions), dtype=int))

    def test_adjacent_singletons_edge_one(self):
        positions = [(0.0, 0.0), (0.5, 0.0)]
        fmap = self._fmap(positions, [[1.0], [2.0]])
        za = ZoneAssignment(np.array([0, 1]), np.array([[1.0], [2.0]]))
        g = build_room_graph(za, fmap, eps=0.5)
        assert g.edges[0, 1] == 1.0 and g.edges[1, 0] == 1.0
        assert g.edges[0, 0] == 1.0 and g.edges[1, 1] == 1.0

    def test_far_singletons_edge_zero(self):
        positions = [(0.0, 0.0), (1.5, 0.0)]
        fmap = self._fmap(positions, [[1.0], [2.0]])
        za = ZoneAssignment(np.array([0, 1]), np.array([[1.0], [2.0]]))
        g = build_room_graph(za, fmap, eps=0.5)
        assert g.edges[0, 1] == 0.0

    def test_mixed_pairs_edge_half(self):
        # zone A = {a1, a2}, zone B = {b1}; only (a1, b1) adjacent -> 1/2
        a1, a2, b1 = (0.0, 0.0), (0.0, 2.0), (0.5, 0.0)
        fmap = self._fmap([a1, a2, b1], [[1.0], [1.0], [2.0]])
        za = ZoneAssignment(np.array([0, 0, 1]), np.array([[1.0], [2.0]]))
        g = build_room_graph(za, fmap, eps=0.5)
        assert g.edges[0, 1] == pytest.approx(0.5, abs=1e-15)

    def test_node_is_zone_mean_and_linear(self):
        rng = np.random.default_rng(2)
        positions = [(0.5 * i, 0.0) for i in range(6)]
        feats = rng.normal(size=(6, 4))
        labels = np.array([0, 0, 0, 0, 1, 1])

        def assignment(f):  # centers are the member means, as cluster_zones gives them
            return ZoneAssignment(labels, np.array([f[labels == c].mean(axis=0) for c in (0, 1)]))

        fmap = self._fmap(positions, feats)
        g = build_room_graph(assignment(feats), fmap, eps=0.5)
        np.testing.assert_allclose(g.nodes[0], feats[:4].mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(g.nodes[1], feats[4:].mean(axis=0), atol=1e-12)
        # scaling every member feature scales the node
        fmap2 = self._fmap(positions, feats * 2.5)
        g2 = build_room_graph(assignment(feats * 2.5), fmap2, eps=0.5)
        np.testing.assert_allclose(g2.nodes, g.nodes * 2.5, atol=1e-12)

    @pytest.mark.parametrize("labels", [[0, 0, 2], [1, 1, 1]])
    def test_empty_zone_rejected(self, labels):
        fmap = self._fmap([(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)], [[1.0], [2.0], [3.0]])
        with pytest.raises(UsageError, match="empty zones"):
            build_room_graph(ZoneAssignment(np.array(labels), np.zeros((3, 1))), fmap)

    def test_edge_bounds_and_symmetry_random(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            s = int(rng.integers(4, 12))
            positions = [(0.5 * int(rng.integers(6)), 0.5 * int(rng.integers(6))) for _ in range(s)]
            positions = list(dict.fromkeys(positions))  # dedupe
            feats = rng.normal(size=(len(positions), 3))
            fmap = self._fmap(positions, feats)
            m = min(3, len(positions))
            labels = [i % m for i in range(len(positions))]
            za = ZoneAssignment(np.array(labels), np.zeros((m, 3)))
            g = build_room_graph(za, fmap, eps=0.5)
            assert np.allclose(g.edges, g.edges.T)
            assert np.all(np.diag(g.edges) == 1.0)
            assert g.edges.min() >= 0.0 and g.edges.max() <= 1.0

    @pytest.mark.parametrize("room", ["kitchen", "bathroom"])
    def test_edges_bitwise_equal_pair_loop(self, small_provider, room):
        # the counts are exact integers, so the matrix product must give the
        # pair loop's edges bit for bit, at several adjacency thresholds
        for size, seed in (((8, 8), 0), ((12, 9), 1), ((16, 16), 2)):
            fmap = sweep_position_features(generate_scene(room, size, seed), small_provider)
            za = cluster_zones(fmap, 8, seed)
            for eps in (0.5, 1.0, 1.7):
                got = build_room_graph(za, fmap, eps=eps).edges
                assert np.array_equal(got, pair_loop_edges(za, fmap, eps))

    # 1 - 1e-9 puts eps + 1e-9 exactly on the lattice distance 1.0
    @pytest.mark.parametrize("eps", [-1.0, 0.0, 0.5, 0.7, 1.0 - 1e-9, 1.0, 1.7, 100.0])
    def test_offset_count_bitwise_equal_pair_loop(self, small_provider, eps):
        # the pairs are counted one lattice offset at a time: every offset
        # whose Manhattan length passes eps's float comparison, and no other
        for room, size, seed in (("kitchen", (8, 8), 0), ("bedroom", (12, 9), 3),
                                 ("bathroom", (16, 16), 2)):
            fmap = sweep_position_features(generate_scene(room, size, seed), small_provider)
            za = cluster_zones(fmap, 8, seed)
            got = build_room_graph(za, fmap, eps=eps).edges
            assert got.tobytes() == pair_loop_edges(za, fmap, eps).tobytes()

    def test_offset_count_on_a_sparse_lattice(self):
        # positions far apart and out of scan order, negative ones included
        positions = [(-1.5, 2.0), (0.0, 0.0), (4.0, -0.5), (0.5, 0.0), (-1.0, 2.0), (3.5, -0.5)]
        fmap = self._fmap(positions, np.arange(6.0)[:, None])
        za = ZoneAssignment(np.array([0, 1, 2, 2, 1, 0]), np.zeros((3, 1)))
        for eps in (0.5, 1.0, 6.0, 9.5):
            got = build_room_graph(za, fmap, eps=eps).edges
            assert got.tobytes() == pair_loop_edges(za, fmap, eps).tobytes()

    @pytest.mark.parametrize("positions, message", [
        ([(0.0, 0.0), (0.25, 0.0), (1.0, 0.0)], "lattice"),
        ([(0.0, 0.0), (0.5, 1e-12), (1.0, 0.0)], "lattice"),
        ([(0.0, 0.0), (0.5, 0.0), (0.0, 0.0)], "distinct"),
    ])
    def test_off_lattice_or_repeated_position_rejected(self, positions, message):
        fmap = self._fmap(positions, [[1.0], [2.0], [3.0]])
        za = ZoneAssignment(np.array([0, 1, 1]), np.zeros((2, 1)))
        with pytest.raises(UsageError, match=message):
            build_room_graph(za, fmap)


class TestMatch:
    def _graph(self, nodes):
        m = len(nodes)
        return KnowledgeGraph(np.asarray(nodes, dtype=float), np.eye(m), "kitchen")

    def test_identity_on_equal_graphs(self):
        rng = np.random.default_rng(0)
        g = self._graph(rng.normal(size=(4, 6)))
        np.testing.assert_array_equal(match_graphs(g, g), np.arange(4))

    def test_identity_on_full_tie(self):
        g = self._graph(np.ones((3, 4)))
        np.testing.assert_array_equal(match_graphs(g, g), np.arange(3))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_recovers_known_permutation(self, small_provider, m):
        cats = ("Sink", "Pan", "Bowl", "Fridge", "Kettle")[:m]
        nodes = np.array([small_provider.object_embedding(c) for c in cats])
        ga = self._graph(nodes)
        rng = np.random.default_rng(m)
        sigma = rng.permutation(m)
        gb = self._graph(nodes[sigma])
        # ga.nodes[i] == gb.nodes[inv(sigma)[i]]
        inv = np.argsort(sigma)
        perm = match_graphs(ga, gb)
        np.testing.assert_array_equal(perm, inv)
        # brute force over all m! permutations agrees
        best = max(
            matching_objective(ga, gb, np.array(p)) for p in itertools.permutations(range(m))
        )
        assert matching_objective(ga, gb, perm) == pytest.approx(best, abs=1e-12)

    def test_random_objective_equals_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            ga = self._graph(rng.normal(size=(4, 5)))
            gb = self._graph(rng.normal(size=(4, 5)))
            perm = match_graphs(ga, gb)
            best = max(
                matching_objective(ga, gb, np.array(p)) for p in itertools.permutations(range(4))
            )
            assert matching_objective(ga, gb, perm) == pytest.approx(best, abs=1e-12)
            # objective never below the identity assignment
            ident = matching_objective(ga, gb, np.arange(4))
            assert matching_objective(ga, gb, perm) >= ident - 1e-12

    def test_size_mismatch_rejected(self):
        ga = self._graph(np.ones((3, 4)))
        gb = self._graph(np.ones((4, 4)))
        with pytest.raises(UsageError):
            match_graphs(ga, gb)


class TestMerge:
    def _random_graph(self, rng, m=4, n=5):
        nodes = rng.normal(size=(m, n))
        edges = np.zeros((m, m))
        for a in range(m):
            for b in range(a + 1, m):
                edges[a, b] = edges[b, a] = rng.random()
        np.fill_diagonal(edges, 1.0)
        return KnowledgeGraph(nodes, edges, "bedroom")

    def test_single_graph_unchanged(self):
        rng = np.random.default_rng(1)
        g = self._random_graph(rng)
        merged = merge_graphs([g])
        np.testing.assert_array_equal(merged.nodes, g.nodes)
        np.testing.assert_array_equal(merged.edges, g.edges)

    def test_two_identical_graphs(self):
        rng = np.random.default_rng(2)
        g = self._random_graph(rng)
        merged = merge_graphs([g, g])
        np.testing.assert_allclose(merged.nodes, g.nodes, atol=1e-15)
        np.testing.assert_allclose(merged.edges, g.edges, atol=1e-15)

    def test_permuted_copy_merges_to_original(self):
        rng = np.random.default_rng(3)
        g = self._random_graph(rng)
        sigma = rng.permutation(4)
        permuted = KnowledgeGraph(g.nodes[sigma], g.edges[np.ix_(sigma, sigma)], "bedroom")
        merged = merge_graphs([g, permuted])
        np.testing.assert_allclose(merged.nodes, g.nodes, atol=1e-12)
        np.testing.assert_allclose(merged.edges, g.edges, atol=1e-12)

    def test_mixed_rooms_rejected(self):
        rng = np.random.default_rng(4)
        g1 = self._random_graph(rng)
        g2 = KnowledgeGraph(g1.nodes.copy(), g1.edges.copy(), "kitchen")
        with pytest.raises(UsageError):
            merge_graphs([g1, g2])

    def test_merge_preserves_invariants(self):
        rng = np.random.default_rng(5)
        graphs = [self._random_graph(rng) for _ in range(3)]
        merged = merge_graphs(graphs)
        assert np.allclose(merged.edges, merged.edges.T)
        assert np.allclose(np.diag(merged.edges), 1.0)
        assert merged.edges.min() >= 0.0 and merged.edges.max() <= 1.0


class TestEndToEnd:
    def test_micro_scene_pipeline_matches_oracle(self, small_provider):
        # 3x3 scene, two object categories, M=2: recompute everything by hand
        scene = make_scene(3, 3, [("Sink", 0, 0, "mid"), ("Fridge", 2, 2, "mid")],
                           blocked=[(1, 1)])
        fmap = sweep_position_features(scene, small_provider)
        oracle = oracle_sweep(scene, small_provider)
        for i, pos in enumerate(fmap.positions):
            np.testing.assert_allclose(fmap.features[i], oracle[pos][0], atol=1e-12)
        za = cluster_zones(fmap, 2, seed=0)
        best_obj, _ = best_two_partition(fmap.features)
        labels = za.labels
        assert kmeans_objective(fmap.features, labels, za.zone_count) == pytest.approx(
            best_obj, abs=1e-9
        )
        g = build_room_graph(za, fmap, eps=0.5, room_category="kitchen")
        # brute-force edge recomputation
        for a in range(g.zone_count):
            for b in range(g.zone_count):
                if a == b:
                    assert g.edges[a, b] == 1.0
                    continue
                mem_a = [p for p, label in zip(fmap.positions, za.labels) if label == a]
                mem_b = [p for p, label in zip(fmap.positions, za.labels) if label == b]
                hits = sum(
                    1
                    for pa in mem_a
                    for pb in mem_b
                    if abs(pa[0] - pb[0]) + abs(pa[1] - pb[1]) <= 0.5 + 1e-9
                )
                assert g.edges[a, b] == pytest.approx(hits / (len(mem_a) * len(mem_b)), abs=1e-12)
        # node recomputation
        for z in range(g.zone_count):
            mem = [i for i in range(len(fmap.positions)) if za.labels[i] == z]
            np.testing.assert_allclose(g.nodes[z], fmap.features[mem].mean(axis=0), atol=1e-12)


class TestGraphFile:
    def test_round_trip_byte_identical(self, small_provider):
        scene = make_scene(4, 4, [("Sink", 0, 0, "mid"), ("Pan", 3, 3, "low")])
        g = build_scene_graph(scene, small_provider, zones=3, eps=0.5, seed=0)
        text = graph_to_text(g)
        assert graph_to_text(graph_from_text(text)) == text

    def test_version_rejected(self):
        with pytest.raises(FormatError):
            graph_from_text("kg-v2 M=1 N=1 room=kitchen\n0.0\n1.0\n")

    def test_header_fields_required(self):
        with pytest.raises(FormatError):
            graph_from_text("kg-v1 M=1 room=kitchen\n0.0\n1.0\n")

    def test_asymmetric_edges_rejected(self):
        text = "kg-v1 M=2 N=1 room=kitchen\n0.0\n1.0\n1.0 0.5\n0.4 1.0\n"
        with pytest.raises(FormatError):
            graph_from_text(text)

    def test_trailing_content_rejected(self):
        text = "kg-v1 M=1 N=1 room=kitchen\n0.0\n1.0\n0.5\n"
        with pytest.raises(FormatError, match="line 4"):
            graph_from_text(text)

    def test_trailing_blank_lines_accepted(self):
        g = graph_from_text("kg-v1 M=1 N=1 room=kitchen\n0.0\n1.0\n\n  \n")
        assert g.zone_count == 1 and g.feature_dim == 1

    @pytest.mark.parametrize("m", [0, -1])
    def test_zone_count_below_one_rejected(self, m):
        with pytest.raises(FormatError, match="M and N"):
            graph_from_text(f"kg-v1 M={m} N=1 room=kitchen\n")

    @pytest.mark.parametrize("n", [0, -2])
    def test_feature_dim_below_one_rejected(self, n):
        with pytest.raises(FormatError, match="M and N"):
            graph_from_text(f"kg-v1 M=1 N={n} room=kitchen\n\n1.0\n")

    @pytest.mark.parametrize("edges", [
        [[1.0, 0.5], [0.4, 1.0]],
        [[0.0, 0.5], [0.5, 1.0]],
        [[1.0, 7.5], [7.5, 1.0]],
        [[1.0, -3.0], [-3.0, 1.0]],
    ], ids=["asymmetric", "diagonal-0", "above-1", "below-0"])
    def test_edge_rules_reject(self, edges):
        with pytest.raises(FormatError, match="edge matrix"):
            validate_edges(np.array(edges))

    def test_edge_rules_accept_bounds(self):
        validate_edges(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.25], [1.0, 0.25, 1.0]]))

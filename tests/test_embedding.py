import numpy as np
import pytest

from zonegraph.categories import GOAL_CATEGORIES
from zonegraph.embedding import (
    EmbeddingProvider,
    embeddings_from_text,
    embeddings_to_text,
    load_embeddings,
    observation_feature,
    pooled_image_feature,
    save_embeddings,
)
from zonegraph.errors import FormatError, UnknownCategoryError
from zonegraph.sim import CELL, PITCHES, YAWS, Observation, Pose, Sighting, generate_scene, visible_objects

from conftest import image_feature, make_scene

# computed once from synthetic(seed=0, D=64) over all 22 goal categories and
# frozen as a regression fixture
FROZEN_MAX_ABS_COS = 0.3677472736682733


def obs(*sightings):
    return Observation(visible=tuple(sightings))


class TestObjectEmbedding:
    def test_deterministic(self):
        a = EmbeddingProvider.synthetic(dim=64, seed=0)
        b = EmbeddingProvider.synthetic(dim=64, seed=0)
        np.testing.assert_array_equal(a.object_embedding("Sink"), b.object_embedding("Sink"))

    def test_unit_norm(self):
        prov = EmbeddingProvider.synthetic(dim=64, seed=0)
        for cat in GOAL_CATEGORIES:
            assert abs(np.linalg.norm(prov.object_embedding(cat)) - 1.0) < 1e-6

    def test_seed_changes_vectors(self):
        a = EmbeddingProvider.synthetic(dim=64, seed=0)
        b = EmbeddingProvider.synthetic(dim=64, seed=1)
        assert not np.allclose(a.object_embedding("Sink"), b.object_embedding("Sink"))

    def test_pairwise_cosine_fixture(self):
        prov = EmbeddingProvider.synthetic(dim=64, seed=0)
        e = np.array([prov.object_embedding(c) for c in GOAL_CATEGORIES])
        cos = e @ e.T
        np.fill_diagonal(cos, 0.0)
        max_abs = float(np.max(np.abs(cos)))
        assert max_abs < 0.5
        assert max_abs == pytest.approx(FROZEN_MAX_ABS_COS, abs=1e-12)

    def test_synthetic_derives_any_name(self):
        prov = EmbeddingProvider.synthetic(dim=16, seed=0)
        v = prov.object_embedding("TotallyNewThing")
        assert v.shape == (16,) and abs(np.linalg.norm(v) - 1.0) < 1e-9

    def test_lookups_leave_the_served_table_unchanged(self):
        prov = EmbeddingProvider.synthetic(dim=4, seed=0)
        before = embeddings_to_text(prov)
        first = prov.object_embedding("Bowl")
        assert embeddings_to_text(prov) == before == "embeddings-v1 D=4\n"
        assert prov.known_categories() == ()
        assert prov.object_embedding("Bowl") is first


class TestImageFeature:
    def test_empty_observation_all_zero(self, provider):
        grid = image_feature(provider, obs())
        assert grid.shape == (7, 7, 64)
        assert np.all(grid == 0.0)

    def test_center_cell_binning(self, provider):
        grid = image_feature(provider, obs(Sighting("Sink", 0.0, 0.75)))
        np.testing.assert_allclose(grid[3, 3], provider.object_embedding("Sink"), atol=0)
        occupied = np.argwhere(np.any(grid != 0, axis=2))
        assert occupied.tolist() == [[3, 3]]

    def test_binning_matches_quantization_oracle(self, provider):
        # independent oracle: np.digitize over uniform bin edges
        rng = np.random.default_rng(7)
        g = 7
        bearing_edges = np.linspace(-45.0, 45.0, g + 1)[1:-1]
        dist_edges = np.linspace(0.0, 1.5, g + 1)[1:-1]
        for _ in range(300):
            bearing = float(rng.uniform(-45, 45))
            dist = float(rng.uniform(0, 1.5))
            grid = image_feature(provider, obs(Sighting("Sink", bearing, dist)))
            occupied = np.argwhere(np.any(grid != 0, axis=2))
            assert len(occupied) == 1
            row, col = occupied[0]
            assert col == int(np.digitize(bearing, bearing_edges))
            assert row == int(np.digitize(dist, dist_edges))

    def test_identical_objects_in_one_cell_idempotent(self, provider):
        s = Sighting("Sink", 0.0, 0.75)
        grid = image_feature(provider, obs(s, s))
        np.testing.assert_array_equal(grid[3, 3], provider.object_embedding("Sink"))

    def test_mixed_cell_mean_renormalized(self, provider):
        a = Sighting("Sink", 0.0, 0.75)
        b = Sighting("Pan", 0.0, 0.75)
        grid = image_feature(provider, obs(a, b))
        mean = (provider.object_embedding("Sink") + provider.object_embedding("Pan")) / 2
        np.testing.assert_allclose(grid[3, 3], mean / np.linalg.norm(mean), atol=1e-12)
        assert abs(np.linalg.norm(grid[3, 3]) - 1.0) < 1e-12

    def test_permutation_invariance(self, provider):
        rng = np.random.default_rng(3)
        sightings = [
            Sighting(cat, float(rng.uniform(-45, 45)), float(rng.uniform(0, 1.5)))
            for cat in ("Sink", "Pan", "Pot", "Bowl", "Plate")
        ]
        base = image_feature(provider, obs(*sightings))
        for _ in range(5):
            perm = [sightings[i] for i in rng.permutation(len(sightings))]
            np.testing.assert_array_equal(base, image_feature(provider, obs(*perm)))

    def test_alignment_by_construction(self, provider):
        # a cell fed by a single category has cosine exactly 1 with f_obj
        grid = image_feature(provider, obs(Sighting("Kettle", -30.0, 1.2)))
        cell = grid[np.any(grid != 0, axis=2)][0]
        emb = provider.object_embedding("Kettle")
        cos = float(cell @ emb / (np.linalg.norm(cell) * np.linalg.norm(emb)))
        assert cos == pytest.approx(1.0, abs=1e-12)


class TestPooledImageFeature:
    """pooled_image_feature against the grid mean it replaces, bitwise."""

    @staticmethod
    def _same(provider, observation, grid=7):
        want = image_feature(provider, observation, grid=grid).mean(axis=(0, 1))
        got = pooled_image_feature(provider, observation, grid=grid)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_no_sightings(self, provider):
        self._same(provider, obs())
        assert np.all(pooled_image_feature(provider, obs()) == 0.0)

    def test_several_objects_in_one_cell(self, provider):
        cell = [Sighting(c, 3.0, 0.8) for c in ("Sink", "Pan", "Pot", "Sink")]
        other = Sighting("Bowl", -40.0, 0.1)
        self._same(provider, obs(*cell))
        self._same(provider, obs(other, *cell))
        self._same(provider, obs(*cell, other))

    def test_bins_clamped_at_both_edges(self, provider):
        edges = [Sighting("Sink", -45.0, 0.0), Sighting("Pan", 45.0, 1.5),
                 Sighting("Pot", -45.0000001, 1.5000001), Sighting("Bowl", 45.0000001, 0.0),
                 Sighting("Kettle", -50.0, -0.2), Sighting("Plate", 50.0, 2.0)]
        for s in edges:
            self._same(provider, obs(s))
        self._same(provider, obs(*edges))

    def test_object_on_agents_cell(self, provider):
        scene = make_scene(3, 3, [("Sink", 1, 1, "mid"), ("Pan", 2, 1, "mid")])
        for yaw in YAWS:
            view = visible_objects(scene, Pose(CELL, CELL, yaw, 0))
            assert any(s.distance == 0.0 for s in view.visible)
            self._same(provider, view)

    @pytest.mark.parametrize("grid", [1, 3, 7])
    def test_random_sightings(self, provider, grid):
        rng = np.random.default_rng(grid)
        cats = ("Sink", "Pan", "Pot", "Bowl", "Plate", "Kettle")
        for _ in range(300):
            k = int(rng.integers(0, 9))
            view = obs(*(Sighting(cats[int(rng.integers(len(cats)))],
                                  float(rng.uniform(-46, 46)), float(rng.uniform(0, 1.51)))
                         for _ in range(k)))
            self._same(provider, view, grid=grid)

    @pytest.mark.parametrize("room", ["kitchen", "bathroom"])
    def test_every_view_of_generated_scenes(self, provider, room):
        for seed in range(2):
            scene = generate_scene(room, (8, 8), seed)
            for ix, iz in scene.reachable_cells():
                for yaw in YAWS:
                    for pitch in PITCHES:
                        self._same(provider,
                                   visible_objects(scene, Pose(ix * CELL, iz * CELL, yaw, pitch)))


class TestObservationFeature:
    def test_mean_of_goal_detections(self, provider):
        a = Sighting("Sink", 0.0, 0.5)
        b = Sighting("Pan", 10.0, 1.0)
        c = Sighting("NotAGoal", -10.0, 1.0)
        f = observation_feature(provider, obs(a, b, c))
        expect = (provider.object_embedding("Sink") + provider.object_embedding("Pan")) / 2
        np.testing.assert_allclose(f, expect, atol=1e-15)

    def test_empty_is_zero(self, provider):
        assert np.all(observation_feature(provider, obs()) == 0.0)


class TestEmbeddingFile:
    def test_round_trip_identical_lookups(self, tmp_path):
        prov = EmbeddingProvider.synthetic(dim=32, seed=5)
        path = tmp_path / "emb.txt"
        save_embeddings(prov, path, categories=GOAL_CATEGORIES)
        loaded = load_embeddings(path)
        assert loaded.mode == "file" and loaded.dim == 32
        for cat in GOAL_CATEGORIES:
            np.testing.assert_array_equal(loaded.object_embedding(cat), prov.object_embedding(cat))

    def test_round_trip_byte_identical(self, tmp_path):
        prov = EmbeddingProvider.synthetic(dim=16, seed=1)
        text = embeddings_to_text(prov, categories=("Sink", "Pan"))
        assert embeddings_to_text(embeddings_from_text(text)) == text

    def test_dimension_mismatch_rejected(self):
        text = "embeddings-v1 D=3\nSink 1.0 0.0\n"
        with pytest.raises(FormatError):
            embeddings_from_text(text)

    def test_duplicate_category_rejected(self):
        text = "embeddings-v1 D=2\nSink 1.0 0.0\nSink 0.0 1.0\n"
        with pytest.raises(FormatError):
            embeddings_from_text(text)

    def test_unparsable_float_rejected(self):
        text = "embeddings-v1 D=2\nSink 1.0 abc\n"
        with pytest.raises(FormatError):
            embeddings_from_text(text)

    def test_empty_file_valid_but_lookups_error(self):
        prov = embeddings_from_text("embeddings-v1 D=4\n")
        assert prov.dim == 4
        with pytest.raises(UnknownCategoryError):
            prov.object_embedding("Sink")

    def test_non_unit_rows_renormalized_on_load(self):
        text = "embeddings-v1 D=2\nSink 3.0 4.0\n"
        prov = embeddings_from_text(text)
        np.testing.assert_allclose(prov.object_embedding("Sink"), [0.6, 0.8], atol=1e-15)

    def test_bad_version_rejected(self):
        with pytest.raises(FormatError):
            embeddings_from_text("embeddings-v2 D=2\n")

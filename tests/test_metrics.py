import numpy as np
import pytest

import zonegraph.nn as nn
from zonegraph.categories import GOAL_CATEGORIES, GOAL_SET
from zonegraph.errors import ConfigError, UsageError
from zonegraph.graph import build_scene_graph
from zonegraph.metrics import (
    EpisodeRecord,
    dts,
    evaluate,
    general_split,
    judge,
    mean_dts,
    report_summary_line,
    report_to_text,
    run_eval_episode,
    spl,
    sr,
    zero_shot_split,
)
from zonegraph.policy import TrainConfig, train
from zonegraph.sim import Action, Pose, reset_episode, step

from conftest import make_scene


def record(success, p, l, d=0.0, goal="Sink"):
    return EpisodeRecord(success=success, path_length=p, shortest_length=l,
                         final_dts=d, steps=1, goal=goal, scene_id="s")


class TestJudge:
    def test_done_within_range_true(self):
        scene = make_scene(8, 8, [("Sink", 2, 4, "mid")])
        st = reset_episode(scene, "Sink", seed=0)
        st.pose = Pose(1.0, 1.0, 0, 0)
        step(st, Action.DONE)
        assert judge(st) is True

    def test_done_out_of_range_false(self):
        scene = make_scene(10, 10, [("Sink", 2, 8, "mid")])
        st = reset_episode(scene, "Sink", seed=0)
        st.pose = Pose(1.0, 2.0, 0, 0)  # 2.0 m away
        step(st, Action.DONE)
        assert judge(st) is False

    def test_timeout_without_done_false(self):
        scene = make_scene(8, 8, [("Sink", 2, 4, "mid")])
        st = reset_episode(scene, "Sink", seed=0, t_max=2)
        step(st, Action.ROTATE_LEFT)
        step(st, Action.ROTATE_LEFT)
        assert judge(st) is False

    def test_unterminated_rejected(self):
        scene = make_scene(8, 8, [("Sink", 2, 4, "mid")])
        st = reset_episode(scene, "Sink", seed=0)
        with pytest.raises(UsageError):
            judge(st)


class TestSpl:
    def test_perfect_path_scores_100(self):
        assert spl([record(True, 2.0, 2.0)]) == 100.0

    def test_failure_scores_0(self):
        assert spl([record(False, 2.0, 2.0)]) == 0.0

    def test_double_length_scores_50(self):
        assert spl([record(True, 4.0, 2.0)]) == pytest.approx(50.0, abs=1e-12)

    def test_zero_shortest_success_counts_full(self):
        assert spl([record(True, 3.0, 0.0)]) == 100.0

    def test_spl_never_exceeds_sr(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            recs = [
                record(bool(rng.integers(2)), float(rng.uniform(0, 5)), float(rng.uniform(0, 5)))
                for _ in range(10)
            ]
            assert spl(recs) <= sr(recs) + 1e-9

    def test_adding_failure_never_helps(self):
        rng = np.random.default_rng(1)
        recs = [record(True, 2.0, 1.5), record(True, 3.0, 3.0)]
        base_sr, base_spl = sr(recs), spl(recs)
        recs2 = recs + [record(False, 1.0, 1.0, d=2.5)]
        assert sr(recs2) < base_sr and spl(recs2) < base_spl
        assert mean_dts(recs2) >= mean_dts(recs)


class TestDts:
    def test_zero_inside_success_region(self):
        scene = make_scene(8, 8, [("Sink", 2, 4, "mid")])
        st = reset_episode(scene, "Sink", seed=0)
        st.pose = Pose(1.0, 2.5, 0, 0)
        st.terminated = True
        assert dts(scene, st) == 0.0

    def test_three_hops_is_one_and_a_half_meters(self):
        blocked = [(ix, iz) for ix in (0, 2) for iz in range(10)]
        scene = make_scene(3, 10, [("Sink", 1, 9, "mid")], blocked=blocked)
        st = reset_episode(scene, "Sink", seed=0)
        st.pose = Pose(0.5, 1.5, 0, 0)  # cell (1, 3): success starts at cell 6
        st.terminated = True
        assert dts(scene, st) == pytest.approx(1.5)

    def test_detour_matches_flood_fill(self):
        blocked = [(ix, 3) for ix in range(7) if ix != 6]
        scene = make_scene(7, 7, [("Sink", 0, 6, "mid")], blocked=blocked)
        st = reset_episode(scene, "Sink", seed=0)
        st.pose = Pose(0.0, 0.0, 0, 0)
        st.terminated = True
        from test_sim import flood_fill_hops

        targets = {
            (ix, iz)
            for ix in range(7)
            for iz in range(7)
            if scene.reachable[iz, ix]
            and (0.5 * ix) ** 2 + (0.5 * iz - 3.0) ** 2 <= 2.25 + 1e-9
        }
        hops = flood_fill_hops(scene.reachable, (0, 0), targets)
        assert dts(scene, st) == pytest.approx(hops * 0.5)


class TestSplits:
    def test_zero_shot_exact_six(self):
        split = zero_shot_split()
        assert split.test_goals == frozenset(
            {"Bowl", "DeskLamp", "Laptop", "LightSwitch", "Plate", "StoveBurner"}
        )
        assert len(split.test_goals) == 6

    def test_disjoint_and_complete(self):
        split = zero_shot_split()
        assert split.train_goals & split.test_goals == frozenset()
        assert split.train_goals | split.test_goals == GOAL_SET
        assert len(split.train_goals | split.test_goals) == 22

    def test_general_covers_all(self):
        split = general_split()
        assert split.train_goals == GOAL_SET and split.test_goals == GOAL_SET


@pytest.fixture(scope="module")
def world(small_provider):
    scene = make_scene(5, 5, [("Sink", 0, 0, "mid"), ("Pan", 4, 4, "mid"),
                              ("Bowl", 0, 4, "low"), ("Kettle", 4, 0, "mid")])
    graph = build_scene_graph(scene, small_provider, zones=2, eps=0.5, seed=0)
    params = nn.init_params(8, graph.feature_dim, hidden=8, seed=0)
    return scene, graph, params


class TestEvaluate:
    def test_identical_seeds_zero_std(self, small_provider, world):
        scene, graph, params = world
        report = evaluate(params, graph, small_provider, [scene], "general",
                          episodes_per_seed=6, seeds=(7, 7, 7))
        assert report.sr_std == 0.0 and report.spl_std == 0.0 and report.dts_std == 0.0

    def test_random_policy_small_but_nonzero(self, small_provider, world):
        scene, graph, params = world
        report = evaluate(None, graph, small_provider, [scene], "general",
                          episodes_per_seed=120, seeds=(1, 2, 3), policy="random")
        assert 0.0 < report.sr_mean < 60.0
        assert report.spl_mean <= report.sr_mean

    def test_report_fields_present_and_bounded(self, small_provider, world):
        scene, graph, params = world
        report = evaluate(params, graph, small_provider, [scene], "general",
                          episodes_per_seed=5, seeds=(1, 2))
        assert 0.0 <= report.sr_mean <= 100.0
        assert 0.0 <= report.spl_mean <= 100.0
        assert report.dts_mean >= 0.0
        assert report.sr_std >= 0.0 and report.spl_std >= 0.0 and report.dts_std >= 0.0
        assert len(report.per_seed) == 2
        text = report_to_text(report)
        assert text.startswith("report-v1 ")
        assert "summary SR=" in text
        assert "±" in report_summary_line(report)

    def test_episode_schedule_identical_across_seeds(self, small_provider, world):
        scene, graph, params = world
        seen = {}

        def sink(seed, rec):
            seen.setdefault(seed, []).append((rec.scene_id, rec.goal))

        evaluate(params, graph, small_provider, [scene], "general",
                 episodes_per_seed=8, seeds=(1, 2, 3), record_sink=sink)
        assert seen[1] == seen[2] == seen[3]

    def test_zero_shot_requires_coverage(self, small_provider, world):
        scene, graph, params = world
        # scene only contains Bowl of the six test goals -> must fail
        with pytest.raises(ConfigError):
            evaluate(params, graph, small_provider, [scene], "zero_shot",
                     episodes_per_seed=5, seeds=(1,))

    def test_zero_shot_runs_only_held_out_goals(self, small_provider):
        objects = [("Bowl", 0, 0, "low"), ("DeskLamp", 4, 0, "mid"), ("Laptop", 0, 4, "mid"),
                   ("LightSwitch", 4, 4, "high"), ("Plate", 2, 0, "mid"),
                   ("StoveBurner", 0, 2, "mid"), ("Sink", 4, 2, "mid")]
        scene = make_scene(5, 5, objects)
        graph = build_scene_graph(scene, small_provider, zones=2, eps=0.5, seed=0)
        params = nn.init_params(8, graph.feature_dim, hidden=8, seed=0)
        goals = set()

        def sink(seed, rec):
            goals.add(rec.goal)

        evaluate(params, graph, small_provider, [scene], "zero_shot",
                 episodes_per_seed=12, seeds=(1,), record_sink=sink)
        assert goals == zero_shot_split().test_goals

    def test_trainer_goal_log_proves_split(self, small_provider):
        objects = [("Bowl", 0, 0, "low"), ("Sink", 4, 4, "mid"), ("Pan", 0, 4, "mid"),
                   ("Kettle", 4, 0, "mid"), ("Plate", 2, 4, "mid")]
        scene = make_scene(5, 5, objects)
        graph = build_scene_graph(scene, small_provider, zones=2, eps=0.5, seed=0)
        split = zero_shot_split()
        result = train(TrainConfig(episodes=40, seed=0, t_max=10), [scene], graph,
                       small_provider, allowed_goals=split.train_goals, hidden=8)
        assert sum(result.goal_log.values()) == 40
        assert not (set(result.goal_log) & split.test_goals)

    def test_run_eval_episode_records_consistent_fields(self, small_provider, world):
        scene, graph, params = world
        rec = run_eval_episode(scene, "Sink", 3, params, graph, small_provider)
        assert rec.path_length >= 0.0 and rec.shortest_length >= 0.0
        assert rec.steps >= 1
        if rec.success:
            assert rec.final_dts == 0.0

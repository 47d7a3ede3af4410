"""Evaluation harness: success judgment, SR / SPL / DTS, triplicate
aggregation, and the zero-shot goal split."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .categories import GOAL_SET, ZERO_SHOT_TEST_GOALS
from .embedding import EmbeddingProvider
from .errors import ConfigError, UsageError
from .graph import KnowledgeGraph
from .policy import rollout
from .sim import (NUM_ACTIONS, SEED_MASK, EpisodeState, Scene, reset_episode,
                  shortest_path_length, step)


@dataclass
class EpisodeRecord:
    success: bool
    path_length: float  # meters actually traveled
    shortest_length: float  # oracle geodesic from the start
    final_dts: float  # geodesic distance to the goal region at the end
    steps: int
    goal: str
    scene_id: str


@dataclass
class GoalSplit:
    train_goals: frozenset
    test_goals: frozenset
    tag: str


@dataclass
class MetricsReport:
    split: str
    episodes_per_seed: int
    seeds: tuple[int, ...]
    per_seed: list[dict]  # {"seed", "sr", "spl", "dts"}
    sr_mean: float
    sr_std: float
    spl_mean: float
    spl_std: float
    dts_mean: float
    dts_std: float


def zero_shot_split() -> GoalSplit:
    """Six held-out test goals; the other sixteen are trainable."""
    test = frozenset(ZERO_SHOT_TEST_GOALS)
    train = frozenset(GOAL_SET - test)
    return GoalSplit(train_goals=train, test_goals=test, tag="zero_shot")


def general_split() -> GoalSplit:
    return GoalSplit(train_goals=frozenset(GOAL_SET), test_goals=frozenset(GOAL_SET), tag="general")


def split_by_name(name: str) -> GoalSplit:
    if name in ("general",):
        return general_split()
    if name in ("zero_shot", "zero-shot"):
        return zero_shot_split()
    raise ConfigError(f"unknown split {name!r}")


def judge(state: EpisodeState) -> bool:
    """Success iff Done was issued while the goal satisfied the 1.5 m
    visibility rule; the simulator records exactly that."""
    if not state.terminated:
        raise UsageError("judge() on an unterminated episode")
    return state.success


def sr(records: list[EpisodeRecord]) -> float:
    """Success rate, percent."""
    if not records:
        return 0.0
    return 100.0 * sum(1 for r in records if r.success) / len(records)


def spl(records: list[EpisodeRecord]) -> float:
    """Success weighted by path length, percent: mean of S * l / max(p, l).
    A success whose oracle length is 0 counts as a full term."""
    if not records:
        return 0.0
    total = 0.0
    for r in records:
        if not r.success:
            continue
        if r.shortest_length == 0.0:
            total += 1.0
        else:
            total += r.shortest_length / max(r.path_length, r.shortest_length)
    return 100.0 * total / len(records)


def dts(scene: Scene, state: EpisodeState) -> float:
    """Geodesic meters from the final cell to the nearest success cell."""
    return shortest_path_length(scene, state.pose, state.goal)


def mean_dts(records: list[EpisodeRecord]) -> float:
    if not records:
        return 0.0
    return float(np.mean([r.final_dts for r in records]))


def random_rollout(state: EpisodeState, rng: np.random.Generator) -> None:
    """Uniform-action baseline policy."""
    while not state.terminated:
        step(state, int(rng.integers(NUM_ACTIONS)))


def run_eval_episode(scene: Scene, goal: str, reset_seed: int, params, graph, provider,
                     policy: str = "checkpoint", mask: frozenset = frozenset(),
                     t_max: int = 100, sample_rng: np.random.Generator | None = None) -> EpisodeRecord:
    state = reset_episode(scene, goal, seed=reset_seed, t_max=t_max)
    shortest = shortest_path_length(scene, state.pose, goal)
    if policy == "random":
        rng = sample_rng if sample_rng is not None else np.random.default_rng(reset_seed)
        random_rollout(state, rng)
    elif policy == "checkpoint":
        rollout(state, params, graph, provider, rng=sample_rng or 0, greedy=True, mask=mask)
    else:
        raise ConfigError(f"unknown policy {policy!r}")
    return EpisodeRecord(
        success=judge(state),
        path_length=state.traveled,
        shortest_length=shortest,
        final_dts=dts(scene, state),
        steps=state.step_count,
        goal=goal,
        scene_id=scene.id,
    )


def _episode_pairs(scenes: list[Scene], split: GoalSplit, episodes: int) -> list[tuple[Scene, str]]:
    """Deterministic (scene, goal) schedule, identical across seeds."""
    pairs = []
    for scene in sorted(scenes, key=lambda s: s.id):
        for goal in sorted(scene.goal_categories_present() & split.test_goals):
            pairs.append((scene, goal))
    if not pairs:
        raise ConfigError("no (scene, goal) pair matches the evaluation split")
    if split.tag == "zero_shot":
        covered = {g for _, g in pairs}
        missing = split.test_goals - covered
        if missing:
            raise ConfigError(f"no scene contains zero-shot goal(s): {sorted(missing)}")
    return [pairs[i % len(pairs)] for i in range(episodes)]


def evaluate(params, graph: KnowledgeGraph, provider: EmbeddingProvider, scenes: list[Scene],
             split: GoalSplit | str, episodes_per_seed: int, seeds=(1, 2, 3),
             policy: str = "checkpoint", mask: frozenset = frozenset(),
             t_max: int = 100, record_sink=None) -> MetricsReport:
    """Greedy (or uniform-random) evaluation over an identical episode set per
    seed; only reset and baseline-action sampling vary with the seed. Reports
    mean +- standard deviation over seeds."""
    if isinstance(split, str):
        split = split_by_name(split)
    schedule = _episode_pairs(scenes, split, episodes_per_seed)
    per_seed = []
    for seed in seeds:
        records = []
        for i, (scene, goal) in enumerate(schedule):
            ss = np.random.SeedSequence([int(seed) & SEED_MASK, 0xE7A1, i])
            rng = np.random.default_rng(ss)
            reset_seed = int(rng.integers(2**63))
            rec = run_eval_episode(
                scene, goal, reset_seed, params, graph, provider,
                policy=policy, mask=mask, t_max=t_max, sample_rng=rng,
            )
            records.append(rec)
            if record_sink is not None:
                record_sink(seed, rec)
        per_seed.append(
            {"seed": int(seed), "sr": sr(records), "spl": spl(records), "dts": mean_dts(records)}
        )
    srs = np.array([p["sr"] for p in per_seed])
    spls = np.array([p["spl"] for p in per_seed])
    dtss = np.array([p["dts"] for p in per_seed])
    return MetricsReport(
        split=split.tag,
        episodes_per_seed=episodes_per_seed,
        seeds=tuple(int(s) for s in seeds),
        per_seed=per_seed,
        sr_mean=float(srs.mean()),
        sr_std=float(srs.std()),  # population std over the seed runs
        spl_mean=float(spls.mean()),
        spl_std=float(spls.std()),
        dts_mean=float(dtss.mean()),
        dts_std=float(dtss.std()),
    )


def report_summary_line(report: MetricsReport) -> str:
    return (
        f"SR={report.sr_mean:.2f} ±{report.sr_std:.2f} "
        f"SPL={report.spl_mean:.2f} ±{report.spl_std:.2f} "
        f"DTS={report.dts_mean:.2f} ±{report.dts_std:.2f}"
    )


def report_to_text(report: MetricsReport, header_meta: dict | None = None,
                   episode_lines: list[str] | None = None) -> str:
    meta = " ".join(f"{k}={v}" for k, v in (header_meta or {}).items())
    lines = [f"report-v1 split={report.split} episodes={report.episodes_per_seed} "
             f"seeds={','.join(str(s) for s in report.seeds)}" + (" " + meta if meta else "")]
    if episode_lines:
        lines.extend(episode_lines)
    for p in report.per_seed:
        lines.append(json.dumps({"record": "seed", **p}, sort_keys=True))
    lines.append("summary " + report_summary_line(report))
    return "\n".join(lines) + "\n"

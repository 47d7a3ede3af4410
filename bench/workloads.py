"""The benchmark's workloads: inputs made from the seed, the rounds of
operations that drive `zonegraph.cli.run`, and the checks of their outputs.

A round is a fixed list of operations, always run whole, so the share of
failed operations is the same in every run. A round only runs the
subcommands and keeps their outputs; `check()` verifies every round after
the timed loop and fills in its work and failure counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import program

DATA = program.BENCH_DIR / "data"
CHECKPOINT = DATA / "eval.ckpt"
SIZES = ("8x8", "16x16")
ROOMS = ("living_room", "kitchen", "bedroom", "bathroom")
ZONES, EPS = 8, 0.5  # the build-graph defaults
DIM = 64  # the embedding default
SETS_PER_ROUND = 8  # scene sets per room category and size in one build-graph round
TRAIN_EPISODES = 48  # per training call: a multiple of 8 workers and of STATS_EVERY
STATS_EVERY = 16
EVAL_EPISODES = 150
EVAL_SEEDS = (1, 2, 3)
EVAL_T_MAX = 100  # the checkpoint's t_max
# The acceptance suite's world: four 8x8 kitchens seeded 0-3, training seed 0.
FIXTURE_SCENE_SEED = 0
FIXTURE_TRAIN_SEED = 0


@dataclass
class Round:
    seconds: float  # wall time of the timed subcommand calls
    op_seconds: list[float]  # per operation, where the workload times them
    outputs: dict
    ops: int
    failed: int = 0
    work: int = 0  # environment steps; swept views for build-graph
    traced: bool = False


def zonegraph(argv: list[str]) -> tuple[int, str, float]:
    """Run one subcommand in-process: (exit code, its output, seconds)."""
    from zonegraph import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        t0 = perf_counter()
        code = cli.run(argv)
        dt = perf_counter() - t0
    return code, out.getvalue(), dt


def scene_sets() -> dict:
    return json.loads((DATA / "scene_sets.json").read_text())


def gen_scenes(out: Path, room: str, size: str, first_seed: int, count: int) -> None:
    code, text, _ = zonegraph(["gen-scenes", "--room", room, "--count", str(count),
                               "--size", size, "--seed", str(first_seed), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"gen-scenes failed: {text}")


def build_graph(scenes: Path, room: str, out: Path) -> tuple[int, str, float]:
    return zonegraph(["build-graph", "--scenes", str(scenes), "--room", room,
                      "--zones", str(ZONES), "--eps", str(EPS), "--out", str(out)])


def scene_texts(d: Path) -> list[str]:
    return [p.read_text() for p in sorted(d.glob("*.scene"))]


def kept(text: str, first: bool) -> str:
    """The whole text for a workload's first round, a digest for later ones:
    later rounds are only compared with the first, and holding their outputs
    would grow the process by a checkpoint a round."""
    return text if first else hashlib.sha256(text.encode()).hexdigest()


def same_as_first(texts: list[str], what: str) -> list[str]:
    return checks.check_same([kept(texts[0], False)] + texts[1:], what)


def prefixed(where: str, messages: list[str]) -> list[str]:
    return [f"{where}: {m}" for m in messages]


class Workload:
    name = ""
    op_boundary = ""  # the function whose span starts a new operation id
    op_spans: tuple[str, ...] = ()  # functions whose spans time the operations

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.rounds: list[Round] = []

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> Round:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def op_times(self, spans: list[tuple[str, float]]) -> list[float]:
        """Operation times from the (name, seconds) spans of `op_spans`."""
        return [dt for _, dt in spans]

    def layer_figures(self) -> dict[str, float]:
        """Per-layer figures the workload reads from its outputs."""
        return {}


class BuildGraph(Workload):
    """Merged-graph builds for each room category and size, SETS_PER_ROUND
    scene sets each, and the one known-fault build: a scene set whose scene
    graphs differ in zone count. The seed picks the window of scene sets."""

    name = "build-graph"
    op_boundary = "cli.run"

    def setup(self) -> None:
        table = scene_sets()
        per = table["scenes_per_set"]
        self.zone_counts: list[int] = []  # of the scene graphs checked in depth
        self.inputs = []  # (room, scene directory); the first 8 are checked in depth
        for j in range(SETS_PER_ROUND):
            for room in ROOMS:
                for size in SIZES:
                    sets = table["sets"][f"{room} {size}"]
                    k = sets[(self.seed + j) % len(sets)]
                    d = self.work / f"{room}_{size}_set{k}"
                    gen_scenes(d, room, size, per * k, per)
                    self.inputs.append((room, d))
        fault = table["known_fault"]
        self.fault = (fault["room"], self.work / "known_fault")
        gen_scenes(self.fault[1], fault["room"], fault["size"], per * fault["set"], per)

    def round(self) -> Round:
        times, outputs = [], {}
        for room, d in self.inputs:
            out = d.with_suffix(".kg")
            code, text, dt = build_graph(d, room, out)
            times.append(dt)
            kg = kept(out.read_text(), not self.rounds) if code == 0 else text
            outputs[d.name] = (code, kg)
        room, d = self.fault
        outputs["known_fault"] = build_graph(d, room, d.with_suffix(".kg"))[:2]
        return Round(sum(times), times, outputs, len(self.inputs) + 1)

    def check(self) -> list[str]:
        from zonegraph import graph as zg

        out = []
        views = sum(24 * len(checks.parse_scene(t)["cells"])
                    for _, d in self.inputs for t in scene_texts(d))
        for r in self.rounds:
            r.failed = sum(code != 0 for code, _ in r.outputs.values())
            r.work = views
            out += checks.check_known_fault(*r.outputs["known_fault"])
        for i, (room, d) in enumerate(self.inputs):
            results = [r.outputs[d.name] for r in self.rounds]
            code, text = results[0]
            if code != 0:
                out.append(f"{d.name}: build-graph exited {code}: {text.strip()}")
                continue
            out += same_as_first([t for _, t in results], f"{d.name} graph")
            _, nodes, edges = checks.parse_kg(text)
            out += prefixed(d.name, checks.check_edges(edges))
            out += prefixed(d.name, checks.check_roundtrip(
                text, zg.graph_from_text, zg.graph_to_text, "kg-v1 file"))
            if i < len(ROOMS) * len(SIZES):
                out += prefixed(d.name, self.check_in_depth(room, d, nodes, edges))
        return out

    def check_in_depth(self, room: str, d: Path, nodes, edges) -> list[str]:
        """The merge against brute-force matching, and the first scene's own
        graph against visibility geometry recomputed here."""
        from zonegraph import graph as zg
        from zonegraph.categories import GOAL_SET
        from zonegraph.embedding import EmbeddingProvider
        from zonegraph.sim import scene_from_text

        provider = EmbeddingProvider.synthetic(dim=DIM, seed=0)
        texts = scene_texts(d)
        graphs = [zg.build_scene_graph(scene_from_text(t), provider, zones=ZONES, eps=EPS, seed=0)
                  for t in texts]
        self.zone_counts += [g.zone_count for g in graphs]
        perms = [zg.match_graphs(graphs[0], g) for g in graphs[1:]]
        out = checks.check_merge([(g.nodes, g.edges) for g in graphs], perms, nodes, edges)
        one = d.with_name(d.name + "_one")
        one.mkdir(exist_ok=True)
        first = sorted(d.glob("*.scene"))[0]
        shutil.copyfile(first, one / first.name)
        code, text, _ = build_graph(one, room, one.with_suffix(".kg"))
        if code != 0:
            return out + [f"one-scene build-graph exited {code}: {text.strip()}"]
        _, snodes, sedges = checks.parse_kg(one.with_suffix(".kg").read_text())
        positions, feats = checks.position_features(
            checks.parse_scene(texts[0]), provider.object_embedding, GOAL_SET)
        sweep = zg.sweep_position_features(scene_from_text(texts[0]), provider)
        moved = checks.check_sweep_positions(sweep.positions, positions)
        if moved:
            return out + moved
        return out + checks.check_scene_graph(positions, sweep.features, feats, snodes, sedges,
                                              EPS)

    def layer_figures(self) -> dict[str, float]:
        zones = float(np.mean(self.zone_counts)) if self.zone_counts else 0.0
        return {"graph.effective_zones": zones, "policy.a2c_update.skipped": 0}


class Train(Workload):
    """`zonegraph train` from a fresh seeded policy on the acceptance suite's
    world, zero-shot training goals, TRAIN_EPISODES episodes a call. Every
    round repeats the same training, at every seed: how long episodes last
    depends on the training seed and the scenes, and varying them moved
    steps/s by ~10% between seeds, more than the noise of one seed."""

    op_boundary = "policy.rollout"
    op_spans = ("policy.rollout", "policy.a2c_update")

    def __init__(self, seed: int, work: Path, workers: int):
        super().__init__(seed, work)
        self.workers = workers
        self.name = f"train-w{workers}"

    def setup(self) -> None:
        self.scenes = self.work / "scenes"
        gen_scenes(self.scenes, "kitchen", "8x8", FIXTURE_SCENE_SEED, 4)
        self.graph = self.work / "kitchen.kg"
        code, text, _ = build_graph(self.scenes, "kitchen", self.graph)
        if code != 0:
            raise RuntimeError(f"build-graph failed: {text}")
        self.config = self.work / "train.cfg"
        self.config.write_text(f"stats_every = {STATS_EVERY}\n")
        self.ckpt = self.work / "policy.ckpt"
        self.skipped = 0  # updates skipped as non-finite, over all rounds

    def round(self) -> Round:
        code, text, dt = zonegraph([
            "train", "--scenes", str(self.scenes), "--graph", str(self.graph),
            "--config", str(self.config), "--out", str(self.ckpt),
            "--episodes", str(TRAIN_EPISODES), "--seed", str(FIXTURE_TRAIN_SEED),
            "--workers", str(self.workers), "--split", "zero-shot"])
        log = Path(str(self.ckpt) + ".log")
        outputs = {"code": code, "text": text,
                   "log": log.read_text() if log.exists() else "",
                   "ckpt": kept(self.ckpt.read_text(), not self.rounds) if code == 0 else ""}
        return Round(dt, [], outputs, TRAIN_EPISODES)

    def layer_figures(self) -> dict[str, float]:
        return {"graph.effective_zones": float(checks.parse_kg(self.graph.read_text())[0]["M"]),
                "policy.a2c_update.skipped": self.skipped}

    def op_times(self, spans: list[tuple[str, float]]) -> list[float]:
        """An episode's rollout plus its share of the update that uses it."""
        out, pending = [], []
        for name, dt in spans:
            if name == "policy.rollout":
                pending.append(dt)
            else:
                out += [t + dt / len(pending) for t in pending]
                pending = []
        return out

    def check(self) -> list[str]:
        from zonegraph import nn
        from zonegraph.embedding import EmbeddingProvider
        from zonegraph.graph import graph_from_text
        from zonegraph.metrics import zero_shot_split
        from zonegraph.policy import TrainConfig, a2c_loss_and_grads, rollout
        from zonegraph.sim import reset_episode, scene_from_text

        out = []
        for r in self.rounds:
            if r.outputs["code"] != 0:
                r.failed = TRAIN_EPISODES
                out.append(f"train exited {r.outputs['code']}: {r.outputs['text'].strip()[-300:]}")
                continue
            problems, r.work, skipped = checks.check_train_log(
                r.outputs["log"], TRAIN_EPISODES, STATS_EVERY)
            r.failed = min(TRAIN_EPISODES, skipped * self.workers)
            self.skipped += skipped
            out += problems
        if out:
            return sorted(set(out))
        first = self.rounds[0].outputs
        out += checks.check_same([r.outputs["log"] for r in self.rounds], "training log")
        out += same_as_first([r.outputs["ckpt"] for r in self.rounds], "checkpoint")
        out += checks.check_train_summary(first["text"], TRAIN_EPISODES)
        graph_text = self.graph.read_text()
        _, nodes, edges = checks.parse_kg(graph_text)
        _, arrays = checks.parse_ckpt(first["ckpt"])
        init = nn.init_params(DIM, nodes.shape[1], nn.DEFAULT_HIDDEN, seed=FIXTURE_TRAIN_SEED)
        out += checks.check_checkpoint(arrays, init, nodes, edges)
        if out:
            return out
        # finite differences on a batch the trained policy rolls out
        params = {k: arrays[k].copy() for k in init}
        graph = graph_from_text(graph_text)
        provider = EmbeddingProvider.synthetic(dim=DIM, seed=0)
        scene = scene_from_text(scene_texts(self.scenes)[0])
        goals = sorted(zero_shot_split().train_goals & scene.goal_categories_present())
        rng = np.random.default_rng(FIXTURE_TRAIN_SEED)
        batch = [rollout(reset_episode(scene, goals[i % len(goals)], seed=i, t_max=20),
                         params, graph, provider, rng) for i in range(2)]
        cfg = TrainConfig()
        _, grads, stats = a2c_loss_and_grads(params, batch, graph, cfg)
        adv = stats["advantages"]
        out += checks.check_gradients(
            lambda p: a2c_loss_and_grads(p, batch, graph, cfg, frozen_advantages=adv)[0],
            params, grads)
        return out


class EvalZeroShot(Workload):
    """`zonegraph eval`, greedy, zero-shot split, EVAL_EPISODES episodes at
    each of criterion 7's three seeds, of the committed checkpoint on the
    four kitchens it was trained on. The episode set is the same at every
    seed: episode lengths vary with the evaluation seeds, and varying them
    moved steps/s by ~13% between seeds."""

    name = "eval-zero-shot"
    op_boundary = "metrics.run_eval_episode"
    op_spans = ("metrics.run_eval_episode",)

    def setup(self) -> None:
        self.scenes = self.work / "scenes"
        gen_scenes(self.scenes, "kitchen", "8x8", FIXTURE_SCENE_SEED, 4)
        self.seeds = EVAL_SEEDS
        self.report = self.work / "report.txt"

    def round(self) -> Round:
        code, text, dt = zonegraph([
            "eval", "--ckpt", str(CHECKPOINT), "--scenes", str(self.scenes),
            "--split", "zero-shot", "--episodes", str(EVAL_EPISODES),
            "--seeds", ",".join(map(str, self.seeds)), "--out", str(self.report)])
        report = self.report.read_text() if code == 0 else ""
        return Round(dt, [], {"code": code, "text": text, "report": report},
                     EVAL_EPISODES * len(self.seeds))

    def layer_figures(self) -> dict[str, float]:
        return {"graph.effective_zones": float(checks.parse_ckpt_meta(CHECKPOINT)["M"]),
                "policy.a2c_update.skipped": 0}

    def check(self) -> list[str]:
        from zonegraph.categories import ZERO_SHOT_TEST_GOALS

        out = []
        for r in self.rounds:
            if r.outputs["code"] != 0:
                r.failed = r.ops
                out.append(f"eval exited {r.outputs['code']}: {r.outputs['text'].strip()[-300:]}")
                continue
            problems, _, r.work = checks.check_eval_report(
                r.outputs["report"], EVAL_EPISODES, self.seeds, ZERO_SHOT_TEST_GOALS,
                EVAL_T_MAX)
            out += problems
        if not out:
            out += checks.check_same([r.outputs["report"] for r in self.rounds], "eval report")
        return sorted(set(out))


NAMES = ("build-graph", "train-w1", "train-w8", "eval-zero-shot")


def make(name: str, seed: int, work: Path) -> Workload:
    if name == "build-graph":
        return BuildGraph(seed, work)
    if name in ("train-w1", "train-w8"):
        return Train(seed, work, int(name[len("train-w"):]))
    if name == "eval-zero-shot":
        return EvalZeroShot(seed, work)
    raise KeyError(name)

"""Command-line surface: scene generation, graph building, training,
evaluation, graph inspection, and the embedded selfcheck."""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field, fields as dc_fields, is_dataclass
from pathlib import Path

import numpy as np

from . import nn
from .categories import GOAL_CATEGORIES, ROOM_CATEGORIES
from .embedding import EmbeddingProvider, load_embeddings
from .errors import ConfigError, FormatError, UsageError, ZonegraphError
from .graph import (
    DEFAULT_EPS,
    DEFAULT_ZONES,
    KnowledgeGraph,
    build_scene_graph,
    graph_from_text,
    graph_to_text,
    load_graph,
    merge_graphs,
    save_graph,
    validate_edges,
)
from .metrics import evaluate, report_summary_line, report_to_text, split_by_name
from .policy import MASKABLE, TrainConfig, train
from .selfcheck import run_selfcheck
from .sim import DEFAULT_T_MAX, generate_scene, load_scene, save_scene
from .textio import float_row, read_text, write_text


@dataclass
class EmbeddingCfg:
    dim: int = 64
    mode: str = "synthetic"
    seed: int = 0
    path: str = ""


@dataclass
class Config:
    embedding: EmbeddingCfg = field(default_factory=EmbeddingCfg)
    train: TrainConfig = field(default_factory=TrainConfig)
    split: str = "general"
    hidden: int = nn.DEFAULT_HIDDEN
    stats_every: int = 100

    def validate(self) -> None:
        """Raise ConfigError unless every value is one that training can use."""
        if self.hidden < 1 or self.stats_every < 1 or self.embedding.dim < 1:
            raise ConfigError("hidden >= 1, stats_every >= 1 and embedding.dim >= 1 required, "
                              f"got {self.hidden}, {self.stats_every} and {self.embedding.dim}")
        self.train.validate()


def _coerce(raw: str, target):
    if isinstance(target, int):
        return int(raw)
    if isinstance(target, float):
        return float(raw)
    return raw


def _keys(obj) -> set[str]:
    """The names of a config dataclass's fields that hold a value rather
    than a section."""
    return {f.name for f in dc_fields(obj) if not is_dataclass(getattr(obj, f.name))}


def parse_config_text(text: str, cfg: Config | None = None) -> Config:
    """Flat `section.key = value` lines; '#' comments; unknown keys rejected.
    A section is one of Config's dataclass-valued fields, a key one of its
    own other fields or a field of the section's dataclass; each value takes
    the type of the one it replaces."""
    cfg = cfg or Config()
    sections = {f.name: getattr(cfg, f.name) for f in dc_fields(cfg)
                if is_dataclass(getattr(cfg, f.name))}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {ln}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        target, name = cfg, key
        if "." in key:
            section, _, name = key.partition(".")
            if section not in sections:
                raise ConfigError(f"config line {ln}: unknown section {section!r}")
            target = sections[section]
        if name not in _keys(target):
            raise ConfigError(f"config line {ln}: unknown key {key!r}")
        try:
            setattr(target, name, _coerce(raw, getattr(target, name)))
        except ValueError:
            raise ConfigError(f"config line {ln}: bad value {raw!r} for {key!r}") from None
    return cfg


def load_config(path) -> Config:
    try:
        return parse_config_text(read_text(path))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None


def provider_from_config(emb: EmbeddingCfg) -> EmbeddingProvider:
    """The one place the CLI builds an embedding provider."""
    if emb.mode == "synthetic":
        return EmbeddingProvider.synthetic(dim=emb.dim, seed=emb.seed)
    if emb.mode == "file":
        if not emb.path:
            raise ConfigError("embedding.mode=file requires embedding.path")
        return load_embeddings(emb.path)
    raise ConfigError(f"unknown embedding.mode {emb.mode!r}")


def _load_scene_dir(path) -> list:
    d = Path(path)
    if not d.is_dir():
        raise ConfigError(f"scene directory not found: {path}")
    files = sorted(d.glob("*.scene"))
    if not files:
        raise ConfigError(f"no *.scene files in {path}")
    return [load_scene(f) for f in files]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line machine-parsable errors
        raise UsageError(message)


def build_parser() -> _Parser:
    p = _Parser(prog="zonegraph", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-scenes", help="generate procedural scenes")
    g.add_argument("--room", required=True, choices=ROOM_CATEGORIES)
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--size", default="8x8", help="WxD in cells, e.g. 8x8")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    b = sub.add_parser("build-graph", help="sweep scenes and build the merged zone graph")
    b.add_argument("--scenes", required=True)
    b.add_argument("--room", required=True, choices=ROOM_CATEGORIES)
    b.add_argument("--zones", type=int, default=DEFAULT_ZONES)
    b.add_argument("--eps", type=float, default=DEFAULT_EPS)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--dim", type=int, default=64)
    b.add_argument("--emb-seed", type=int, default=0)
    b.add_argument("--out", required=True)

    t = sub.add_parser("train", help="train the navigation policy")
    t.add_argument("--scenes", required=True)
    t.add_argument("--graph", required=True)
    t.add_argument("--config", default="")
    t.add_argument("--out", required=True)
    t.add_argument("--episodes", type=int, default=None)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--workers", type=int, default=None)
    t.add_argument("--split", choices=("general", "zero-shot"), default=None)

    e = sub.add_parser("eval", help="evaluate a checkpoint (or the random baseline)")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--scenes", required=True)
    e.add_argument("--split", choices=("general", "zero-shot"), default="general")
    e.add_argument("--episodes", type=int, default=100)
    e.add_argument("--seeds", default="1,2,3")
    e.add_argument("--policy", choices=("checkpoint", "random"), default="checkpoint")
    e.add_argument("--mask", default="", help="comma list from img,obj,gra,act to zero out")
    e.add_argument("--out", default="")

    i = sub.add_parser("inspect-graph", help="summarize a graph file")
    i.add_argument("path")
    i.add_argument("--emb-seed", type=int, default=0)

    sub.add_parser("selfcheck", help="run the embedded oracle suite")
    return p


def cmd_gen_scenes(args) -> int:
    if args.count < 1:
        raise UsageError(f"--count must be at least 1, got {args.count}")
    w, _, d = args.size.lower().partition("x")
    try:
        size = (int(w), int(d))
    except ValueError:
        raise UsageError(f"bad --size {args.size!r}, expected WxD") from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        seed = args.seed + i
        scene = generate_scene(args.room, size, seed)
        path = out / f"{args.room}_{size[0]}x{size[1]}_s{seed}.scene"
        save_scene(scene, path)
        print(f"wrote {path}")
    return 0


def cmd_build_graph(args) -> int:
    if not (math.isfinite(args.eps) and args.eps >= 0):
        raise UsageError(f"--eps must be finite and >= 0, got {args.eps}")
    scenes = _load_scene_dir(args.scenes)
    rooms = {s.room_category for s in scenes}
    if rooms != {args.room}:
        raise UsageError(
            f"room category mismatch: --room {args.room} but scenes contain {sorted(rooms)}"
        )
    provider = provider_from_config(EmbeddingCfg(dim=args.dim, seed=args.emb_seed))
    graphs = [
        build_scene_graph(s, provider, zones=args.zones, eps=args.eps, seed=args.seed)
        for s in scenes
    ]
    merged = merge_graphs(graphs)
    save_graph(merged, args.out)
    print(f"wrote {args.out} (M={merged.zone_count} N={merged.feature_dim} "
          f"room={merged.room_category} from {len(scenes)} scene(s))")
    return 0


def checkpoint_meta(cfg: Config, graph: KnowledgeGraph) -> dict:
    meta = {
        "D": cfg.embedding.dim,
        "N": graph.feature_dim,
        "M": graph.zone_count,
        "H": cfg.hidden,
        "seed": cfg.train.seed,
        "room": graph.room_category,
        "emb_mode": cfg.embedding.mode,
        "emb_seed": cfg.embedding.seed,
        "split": cfg.split,
        "episodes": cfg.train.episodes,
        "workers": cfg.train.workers,
        "gamma": float_row(cfg.train.gamma),
        "entropy_coef": float_row(cfg.train.entropy_coef),
        "value_coef": float_row(cfg.train.value_coef),
        "lr": float_row(cfg.train.lr),
        "t_max": cfg.train.t_max,
    }
    if cfg.embedding.mode == "file":
        meta["emb_path"] = cfg.embedding.path
    return meta


def cmd_train(args) -> int:
    cfg = load_config(args.config) if args.config else Config()
    if args.episodes is not None:
        cfg.train.episodes = args.episodes
    if args.seed is not None:
        cfg.train.seed = args.seed
    if args.workers is not None:
        cfg.train.workers = args.workers
    if args.split is not None:
        cfg.split = args.split
    cfg.validate()

    scenes = _load_scene_dir(args.scenes)
    graph = load_graph(args.graph)
    rooms = {s.room_category for s in scenes}
    if graph.room_category and rooms != {graph.room_category}:
        raise ConfigError(
            f"graph is for {graph.room_category!r} but scenes contain {sorted(rooms)}"
        )
    provider = provider_from_config(cfg.embedding)
    if provider.dim != graph.feature_dim:
        raise ConfigError(
            f"embedding dim {provider.dim} != graph feature length {graph.feature_dim}"
        )
    split = split_by_name(cfg.split)
    cfg.split = split.tag  # one spelling in the checkpoint meta
    log_path = Path(str(args.out) + ".log")

    with open(log_path, "w", encoding="utf-8") as log_fh:

        def sink(rec):
            line = json.dumps(rec, sort_keys=True)
            print(line)
            log_fh.write(line + "\n")

        result = train(
            cfg.train, scenes, graph, provider,
            allowed_goals=split.train_goals,
            hidden=cfg.hidden,
            stats_every=cfg.stats_every,
            stats_sink=sink,
        )

    arrays = dict(result.params)
    arrays["graph_nodes"] = graph.nodes
    arrays["graph_edges"] = graph.edges
    nn.save_checkpoint(args.out, arrays, checkpoint_meta(cfg, graph))
    trained_goals = ",".join(sorted(result.goal_log))
    print(f"wrote {args.out} (episodes={cfg.train.episodes} "
          f"final_sr_1000={result.final_sr_1000:.4f} goals={trained_goals})")
    return 0


def load_checkpoint_bundle(path):
    """Split a checkpoint into (policy params, graph, provider, meta). The
    arrays must be exactly the policy parameters of the header's D, N and H
    (names and shapes as nn.param_shapes gives them) plus the (M, N) graph
    nodes and (M, M) edges, the edges must keep kg-v1's edge rules, and a
    t_max must be an integer of at least 1 (an absent one is set to the
    default); anything else is a FormatError. The parser has already
    rejected non-finite values."""
    arrays, meta = nn.load_checkpoint(path)
    try:
        dim, n_feat, zones, hidden = (int(meta[k]) for k in ("D", "N", "M", "H"))
        t_max = int(meta.setdefault("t_max", str(DEFAULT_T_MAX)))
        emb = EmbeddingCfg(dim=dim, mode=meta.get("emb_mode", "synthetic"),
                           seed=int(meta.get("emb_seed", 0)), path=meta.get("emb_path", ""))
    except KeyError as e:
        raise FormatError(f"checkpoint missing field {e}") from None
    except ValueError as e:
        raise FormatError(f"checkpoint field is not an integer: {e}") from None
    if min(dim, n_feat, zones, hidden) < 1:
        raise FormatError("checkpoint sizes D, N, M and H must be positive")
    if t_max < 1:
        raise FormatError(f"checkpoint t_max must be at least 1, got {t_max}")
    expected = nn.param_shapes(dim, n_feat, hidden)
    expected.update(graph_nodes=(zones, n_feat), graph_edges=(zones, zones))
    if set(arrays) != set(expected):
        raise FormatError(
            f"checkpoint arrays: missing {sorted(set(expected) - set(arrays))}, "
            f"unexpected {sorted(set(arrays) - set(expected))}"
        )
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise FormatError(f"checkpoint array {name!r} has shape {arrays[name].shape}, "
                              f"expected {shape} for D={dim} N={n_feat} M={zones} H={hidden}")
    nodes = arrays.pop("graph_nodes")
    edges = arrays.pop("graph_edges")
    validate_edges(edges)
    graph = KnowledgeGraph(nodes, edges, meta.get("room", ""))
    return arrays, graph, provider_from_config(emb), meta


def cmd_eval(args) -> int:
    if args.episodes < 1:
        raise UsageError(f"--episodes must be at least 1, got {args.episodes}")
    params, graph, provider, meta = load_checkpoint_bundle(args.ckpt)
    scenes = _load_scene_dir(args.scenes)
    try:
        seeds = tuple(int(s) for s in args.seeds.split(",") if s.strip())
    except ValueError:
        raise UsageError(f"bad --seeds {args.seeds!r}") from None
    if not seeds:
        raise UsageError("--seeds must list at least one integer")
    mask = frozenset(m.strip() for m in args.mask.split(",") if m.strip())
    bad = mask - MASKABLE
    if bad:
        raise UsageError(f"unknown --mask component(s): {sorted(bad)}")
    split = split_by_name(args.split)
    episode_lines: list[str] = []

    def sink(seed, rec):
        episode_lines.append(json.dumps({
            "record": "episode", "seed": int(seed), "scene": rec.scene_id, "goal": rec.goal,
            "success": rec.success, "steps": rec.steps,
            "path_length": round(rec.path_length, 6),
            "shortest_length": rec.shortest_length, "dts": rec.final_dts,
        }, sort_keys=True))

    report = evaluate(
        params, graph, provider, scenes, split,
        episodes_per_seed=args.episodes, seeds=seeds,
        policy=args.policy, mask=mask, t_max=int(meta["t_max"]),
        record_sink=sink,
    )
    header = {"policy": args.policy, "mask": ",".join(sorted(mask)) or "none",
              "ckpt": Path(args.ckpt).name}
    text = report_to_text(report, header_meta=header, episode_lines=episode_lines)
    if args.out:
        write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    print("summary " + report_summary_line(report))
    return 0


def cmd_inspect_graph(args) -> int:
    text = read_text(args.path)
    graph = graph_from_text(text)
    lossless = graph_to_text(graph) == text
    print(f"M={graph.zone_count} N={graph.feature_dim} room={graph.room_category} "
          f"lossless_roundtrip={lossless}")
    provider = provider_from_config(EmbeddingCfg(dim=graph.feature_dim, seed=args.emb_seed))
    embs = np.array([provider.object_embedding(c) for c in GOAL_CATEGORIES])
    for m in range(graph.zone_count):
        node = graph.nodes[m]
        norm = np.linalg.norm(node)
        if norm < 1e-12:
            print(f"node {m}: <empty>")
            continue
        sims = embs @ node / (np.linalg.norm(embs, axis=1) * norm)
        top = np.argsort(-sims)[:3]
        desc = " ".join(f"{GOAL_CATEGORIES[i]}:{sims[i]:+.3f}" for i in top)
        print(f"node {m}: {desc}")
    print("edges:")
    for row in graph.edges:
        print("  " + " ".join(f"{v:.3f}" for v in row))
    return 0


@functools.cache
def _parser() -> _Parser:
    """build_parser(), once per process: parse_args starts every call from a
    fresh namespace, so no parsed value carries over to the next command."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "gen-scenes":
            return cmd_gen_scenes(args)
        if args.command == "build-graph":
            return cmd_build_graph(args)
        if args.command == "train":
            return cmd_train(args)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "inspect-graph":
            return cmd_inspect_graph(args)
        if args.command == "selfcheck":
            return 0 if run_selfcheck(print) else 1
        raise UsageError(f"unknown command {args.command!r}")
    except ZonegraphError as e:
        print(f"error category={e.category}: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # an array too large for this machine, e.g. a huge `hidden`
        print(f"error category=memory: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"error category=missing-file: {e}", file=sys.stderr)
        return 1
    except OSError as e:  # a path that is not a readable or writable file
        print(f"error category=io: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())

"""Remakes the benchmark's committed inputs in bench/data/.

    python3 bench/make_data.py scene-sets   # scene_sets.json, ~30 s
    python3 bench/make_data.py checkpoint   # eval.ckpt, ~5 min on one core

scene_sets.json lists, for every room category and scene size the
build-graph workload uses, the scene-set indices k (scenes seeded 4k..4k+3)
whose merged graph builds. `zonegraph build-graph` fails on the other sets:
k-means drops empty clusters, the scene graphs of a set then differ in zone
count, and the merge refuses them. The file also names the first failing
set, which the workload keeps as its one known-fault operation.

eval.ckpt is the acceptance suite's trained world, made through the command
line: four seeded 8x8 kitchens (scene seeds 0-3), their merged 8-zone graph,
and 20000 training episodes at workers=1, seed 0, on the zero-shot split's
training goals. It is committed so that the eval-zero-shot workload does not
depend on the training code of the commit under test.
"""

from __future__ import annotations

import json
import shutil
import sys

import program

ROOMS = ("living_room", "kitchen", "bedroom", "bathroom")
SIZES = ("8x8", "16x16")
SCENES_PER_SET = 4
SETS_PER_INPUT = 16
SCENE_SETS = program.BENCH_DIR / "data" / "scene_sets.json"
CHECKPOINT = program.BENCH_DIR / "data" / "eval.ckpt"


def make_scene_sets() -> int:
    program.load()
    from zonegraph.embedding import EmbeddingProvider
    from zonegraph.errors import ZonegraphError
    from zonegraph.graph import build_scene_graph, merge_graphs
    from zonegraph.sim import generate_scene

    # the build-graph subcommand's defaults
    provider = EmbeddingProvider.synthetic(dim=64, seed=0)
    sets: dict[str, list[int]] = {}
    known_fault = None
    for room in ROOMS:
        for size in SIZES:
            w, d = (int(v) for v in size.split("x"))
            good: list[int] = []
            k = 0
            while len(good) < SETS_PER_INPUT:
                scenes = [generate_scene(room, (w, d), SCENES_PER_SET * k + i)
                          for i in range(SCENES_PER_SET)]
                try:
                    merge_graphs([build_scene_graph(s, provider, zones=8, eps=0.5, seed=0)
                                  for s in scenes])
                    good.append(k)
                except ZonegraphError as e:
                    if known_fault is None:
                        known_fault = {"room": room, "size": size, "set": k, "error": str(e)}
                k += 1
            sets[f"{room} {size}"] = good
            print(f"{room} {size}: {len(good)} sets from {k} tried", file=sys.stderr)
    lines = [f' "{key}": {json.dumps(ks)}' for key, ks in sets.items()]
    SCENE_SETS.write_text(
        f'{{"scenes_per_set": {SCENES_PER_SET},\n"known_fault": {json.dumps(known_fault)},\n'
        '"sets": {\n' + ",\n".join(lines) + "\n}}\n")
    print(f"wrote {SCENE_SETS}")
    return 0


def make_checkpoint() -> int:
    program.load()
    from zonegraph import cli

    work = program.ROOT / ".bench_work" / "make_checkpoint"
    shutil.rmtree(work, ignore_errors=True)
    scenes = work / "scenes"
    steps = [
        ["gen-scenes", "--room", "kitchen", "--count", "4", "--size", "8x8",
         "--seed", "0", "--out", str(scenes)],
        ["build-graph", "--scenes", str(scenes), "--room", "kitchen", "--zones", "8",
         "--eps", "0.5", "--seed", "0", "--out", str(work / "kitchen.kg")],
        ["train", "--scenes", str(scenes), "--graph", str(work / "kitchen.kg"),
         "--episodes", "20000", "--seed", "0", "--workers", "1",
         "--split", "zero-shot", "--out", str(work / "eval.ckpt")],
    ]
    for argv in steps:
        if cli.run(argv) != 0:
            print(f"failed: zonegraph {' '.join(argv)}", file=sys.stderr)
            return 1
    shutil.copyfile(work / "eval.ckpt", CHECKPOINT)
    shutil.rmtree(work)
    print(f"wrote {CHECKPOINT}")
    return 0


if __name__ == "__main__":
    what = sys.argv[1:] or ["scene-sets"]
    makers = {"scene-sets": make_scene_sets, "checkpoint": make_checkpoint}
    if any(w not in makers for w in what):
        sys.exit(f"usage: python3 bench/make_data.py [{'|'.join(makers)}] ...")
    sys.exit(max(makers[w]() for w in what))

"""Print one SHA-256 per stage of the graph build, over every scene of the
benchmark's scene sets, so that two checkouts can be compared byte for byte.

The scenes are every set of `bench/data/scene_sets.json` plus its
known-fault set, each generated as `zonegraph gen-scenes` would and read
back through the scene-v1 text. Each scene is swept once and clustered at
k-means seeds 0 and 1, with the build-graph defaults (8 zones, eps 0.5, a
64-dimensional synthetic embedding at seed 0). The stages are:

    scene      the scene-v1 text of each generated scene
    sweep      positions, distinct rows, row index and detection counts
    zones      labels and centers of each clustering
    graph      nodes and edges of each scene graph
    text       the kg-v1 text of each scene graph
    near       repr of Scene.near_objects at every reachable cell, asked of
               a freshly read scene so that the memo is filled one position
               at a time

The script reads `bench/data` and writes nothing. To check that a change
leaves every stage as it was, run it against each checkout's `src/` and
compare the outputs:

    PYTHONPATH=<parent>/src python scripts/graph_digest.py > before.txt
    PYTHONPATH=src python scripts/graph_digest.py > after.txt
    diff before.txt after.txt
"""

import hashlib
import json
import sys
from pathlib import Path

from zonegraph.embedding import EmbeddingProvider
from zonegraph.graph import (DEFAULT_EPS, DEFAULT_ZONES, build_room_graph, cluster_zones,
                             graph_to_text, sweep_position_features)
from zonegraph.sim import CELL, generate_scene, scene_from_text, scene_to_text

SCENE_SETS = Path(__file__).resolve().parent.parent / "bench" / "data" / "scene_sets.json"
STAGES = ("scene", "sweep", "zones", "graph", "text", "near")
KMEANS_SEEDS = (0, 1)


def scene_sets() -> list[tuple[str, tuple[int, int], range]]:
    """(room, size, scene seeds) of every set, the known-fault set last."""
    table = json.loads(SCENE_SETS.read_text(encoding="utf-8"))
    per = table["scenes_per_set"]
    sets = [(*key.split(" "), k) for key, ks in table["sets"].items() for k in ks]
    fault = table["known_fault"]
    sets.append((fault["room"], fault["size"], fault["set"]))
    return [(room, tuple(int(v) for v in size.split("x")), range(per * k, per * (k + 1)))
            for room, size, k in sets]


def digest(sets) -> tuple[dict[str, str], int]:
    """The hex digest of each stage over the scenes of `sets`, and how many
    scenes that was."""
    provider = EmbeddingProvider.synthetic(dim=64, seed=0)
    hashes = {stage: hashlib.sha256() for stage in STAGES}
    scenes = 0
    for room, size, seeds in sets:
        for seed in seeds:
            text = scene_to_text(generate_scene(room, size, seed))
            hashes["scene"].update(text.encode())
            fmap = sweep_position_features(scene_from_text(text), provider)
            hashes["sweep"].update(repr(fmap.positions).encode())
            for array in (fmap.rows, fmap.index, fmap.counts):
                hashes["sweep"].update(repr((array.dtype.str, array.shape)).encode())
                hashes["sweep"].update(array.tobytes())
            for kmeans_seed in KMEANS_SEEDS:
                za = cluster_zones(fmap, DEFAULT_ZONES, kmeans_seed)
                hashes["zones"].update(za.labels.tobytes() + za.centers.tobytes())
                graph = build_room_graph(za, fmap, eps=DEFAULT_EPS, room_category=room)
                hashes["graph"].update(graph.nodes.tobytes() + graph.edges.tobytes())
                hashes["text"].update(graph_to_text(graph).encode())
            fresh = scene_from_text(text)
            for ix, iz in fresh.reachable_cells():
                hashes["near"].update(repr(fresh.near_objects(ix * CELL, iz * CELL)).encode())
            scenes += 1
    return {stage: h.hexdigest() for stage, h in hashes.items()}, scenes


def main() -> None:
    if len(sys.argv) != 1:
        raise SystemExit("usage: graph_digest.py")
    digests, scenes = digest(scene_sets())
    print(f"scenes {scenes}")
    for stage, hexdigest in digests.items():
        print(f"{stage} {hexdigest}")


if __name__ == "__main__":
    main()

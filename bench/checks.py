"""Output checks of the benchmark workloads.

Every check returns a list of failure messages, empty when the output
passes. Checks compare against a computation made here, apart from the
program (visibility geometry, member means, pair counts, brute-force
matching, finite differences, SR/SPL/DTS from the episode records), or
against a property the method must have (symmetric edges, finite updates,
bounded path lengths, byte-identical round trips, run-to-run determinism).
`selftest.py` feeds each check a corrupted output and sees it fail.
"""

from __future__ import annotations

import itertools
import json
import math
import re

import numpy as np

CELL = 0.5
VIS_RANGE = 1.5
HALF_FOV = 45.0
YAWS = (0, 45, 90, 135, 180, 225, 270, 315)
PITCHES = (-30, 0, 30)
BAND_PITCH = {"low": -30, "mid": 0, "high": 30}
TOL = 1e-9


# ---------------------------------------------------------------------------
# Artifact parsing, written apart from the program's loaders


def parse_scene(text: str) -> dict:
    lines = text.splitlines()
    fields = {ln.split(" ", 1)[0]: ln.split(" ", 1)[1] for ln in lines[1:7]}
    width, depth = (int(v) for v in fields["size"].split())
    bits = fields["reachable"].strip()
    count = int(fields["objects"])
    objects = []
    for ln in lines[7:7 + count]:
        cat, x, z, band = ln.split()
        objects.append((cat, float(x), float(z), band))
    cells = [(i % width, i // width) for i, b in enumerate(bits) if b == "1"]
    return {"room": fields["room"].strip(), "width": width, "depth": depth,
            "cells": cells, "objects": objects}


def parse_kg(text: str) -> tuple[dict, np.ndarray, np.ndarray]:
    lines = text.splitlines()
    header = dict(p.split("=", 1) for p in lines[0].split()[1:])
    m, n = int(header["M"]), int(header["N"])
    nodes = np.array([[float(v) for v in ln.split()] for ln in lines[1:1 + m]]).reshape(m, n)
    edges = np.array([[float(v) for v in ln.split()] for ln in lines[1 + m:1 + 2 * m]])
    return header, nodes, edges.reshape(m, m)


def parse_ckpt_meta(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return dict(p.split("=", 1) for p in fh.readline().split()[1:])


def parse_ckpt(text: str) -> tuple[dict, dict]:
    lines = text.splitlines()
    meta = dict(p.split("=", 1) for p in lines[0].split()[1:])
    arrays = {}
    for head, values in zip(lines[1::2], lines[2::2]):
        _, name, *shape = head.split()
        flat = np.array([float(v) for v in values.split()])
        arrays[name] = flat.reshape(()) if shape == ["scalar"] else flat.reshape(
            tuple(int(s) for s in shape))
    return meta, arrays


# ---------------------------------------------------------------------------
# Graphs


def check_edges(edges: np.ndarray) -> list[str]:
    """Edge matrix: square, symmetric, diagonal 1, entries in [0, 1]."""
    out = []
    if edges.ndim != 2 or edges.shape[0] != edges.shape[1]:
        return [f"edge matrix has shape {edges.shape}"]
    if not np.all(np.isfinite(edges)):
        out.append("edge matrix has non-finite entries")
    asym = float(np.max(np.abs(edges - edges.T), initial=0.0))
    if asym > 1e-12:
        out.append(f"edge matrix is asymmetric by {asym:.3e}")
    diag = float(np.max(np.abs(np.diag(edges) - 1.0), initial=0.0))
    if diag > 1e-12:
        out.append(f"edge diagonal differs from 1 by {diag:.3e}")
    if edges.size and (edges.min() < 0.0 or edges.max() > 1.0):
        out.append(f"edge entries leave [0, 1]: [{edges.min()}, {edges.max()}]")
    return out


def check_roundtrip(text: str, parse, render, what: str) -> list[str]:
    """render(parse(text)) must reproduce the file byte for byte."""
    again = render(parse(text))
    if again != text:
        at = next((i for i, (a, b) in enumerate(zip(again, text)) if a != b),
                  min(len(again), len(text)))
        return [f"{what} does not round-trip byte-identically (first difference at byte {at})"]
    return []


def _visible(scene: dict, x: float, z: float, yaw: int, pitch: int) -> list[str]:
    """Visibility by complex arithmetic: range 1.5 m, +-45 deg about the
    heading, height band matching the pitch; an object on the viewer's own
    cell is seen at any yaw."""
    heading = complex(math.sin(math.radians(yaw)), math.cos(math.radians(yaw)))
    seen = []
    for cat, ox, oz, band in scene["objects"]:
        if BAND_PITCH[band] != pitch:
            continue
        rel = complex(ox - x, oz - z)
        if abs(rel) > VIS_RANGE + TOL:
            continue
        if abs(rel) > TOL:
            turned = rel / heading
            if abs(math.degrees(math.atan2(turned.real, turned.imag))) > HALF_FOV + TOL:
                continue
        seen.append(cat)
    return seen


def position_features(scene: dict, embed, goals) -> tuple[list, np.ndarray]:
    """Sorted reachable positions and their 24-view mean goal embeddings."""
    positions = sorted((ix * CELL, iz * CELL) for ix, iz in scene["cells"])
    feats = []
    for x, z in positions:
        hits = [embed(c) for yaw in YAWS for pitch in PITCHES
                for c in _visible(scene, x, z, yaw, pitch) if c in goals]
        feats.append(np.mean(hits, axis=0) if hits else np.zeros_like(embed(next(iter(goals)))))
    return positions, np.array(feats)


def check_scene_graph(positions, sweep: np.ndarray, recomputed: np.ndarray, nodes: np.ndarray,
                      edges: np.ndarray, eps: float) -> list[str]:
    """A one-scene graph. The program's sweep features equal the features
    recomputed here; each node row is the mean of the features nearest to
    it (a k-means fixed point); each edge is the share of cross-zone
    position pairs within Manhattan distance `eps`.

    Zones whose rows agree to round-off ("twins") split their positions by
    round-off, which no recomputation can repeat: twins are checked as one
    zone for the node rows, and their edges are not checked."""
    out = []
    dev = float(np.max(np.abs(sweep - recomputed), initial=0.0))
    if dev > TOL:
        out.append(f"sweep features differ from the recomputed visibility by {dev:.3e}")
    m = len(nodes)
    rep = [next(j for j in range(m) if np.max(np.abs(nodes[j] - nodes[i])) <= TOL)
           for i in range(m)]  # lowest id of each twin class
    labels = np.array(rep)[np.argmin(
        np.sum((recomputed[:, None, :] - nodes[None, :, :]) ** 2, axis=2), axis=1)]
    sizes = np.bincount(labels, minlength=m)
    classes = sorted(set(rep))
    if any(sizes[c] == 0 for c in classes):
        return out + [f"zones {[c for c in classes if sizes[c] == 0]} are nearest to no position"]
    node_dev = max(float(np.max(np.abs(recomputed[labels == rep[k]].mean(axis=0) - nodes[k])))
                   for k in range(m))
    if node_dev > TOL:
        out.append(f"node rows differ from their members' mean features by {node_dev:.3e}")
    pos = np.array(positions)
    near = np.abs(pos[:, None, :] - pos[None, :, :]).sum(axis=2) <= eps + TOL
    edge_dev = 0.0
    single = [k for k in range(m) if rep.count(rep[k]) == 1]
    for a, b in itertools.combinations(single, 2):
        share = near[np.ix_(labels == a, labels == b)].sum() / (sizes[a] * sizes[b])
        edge_dev = max(edge_dev, abs(share - edges[a, b]))
    if edge_dev > TOL:
        out.append(f"edges differ from the cross-zone adjacent pair shares by {edge_dev:.3e}")
    return out


def check_sweep_positions(swept, positions) -> list[str]:
    """The program sweeps exactly the scene's reachable cells, in order."""
    if [tuple(p) for p in swept] != [tuple(p) for p in positions]:
        return ["sweep positions differ from the scene's reachable cells"]
    return []


def check_known_fault(code: int, text: str) -> list[str]:
    """A scene set whose scene graphs differ in zone count fails its merge."""
    if code == 0 or "zone counts differ" not in text:
        return [f"known-fault build: unexpected outcome {code} {text.strip()!r}"]
    return []


_PERMS: dict[int, np.ndarray] = {}


def cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    na = np.linalg.norm(a, axis=1)[:, None]
    nb = np.linalg.norm(b, axis=1)[None, :]
    denom = na * nb
    return np.where(denom > 1e-12, (a @ b.T) / np.where(denom > 1e-12, denom, 1.0), 0.0)


def best_matching(base_nodes: np.ndarray, nodes: np.ndarray) -> tuple[float, np.ndarray]:
    """Brute force over all permutations: the largest summed cosine."""
    m = len(base_nodes)
    perms = _PERMS.get(m)
    if perms is None:
        perms = _PERMS[m] = np.array(list(itertools.permutations(range(m))), dtype=np.int64)
    scores = cosine(base_nodes, nodes)[np.arange(m), perms].sum(axis=1)
    best = int(np.argmax(scores))
    return float(scores[best]), perms[best]


def check_merge(scene_graphs, perms, merged_nodes: np.ndarray,
                merged_edges: np.ndarray) -> list[str]:
    """The program's matching of each graph to the first reaches the
    brute-force optimum, and the merged graph is the average of the aligned
    graphs. `scene_graphs` are (nodes, edges) pairs; `perms` the program's
    permutations for graphs 1.."""
    out = []
    base_nodes, base_edges = scene_graphs[0]
    nodes_sum, edges_sum = base_nodes.copy(), base_edges.copy()
    for i, ((nodes, edges), perm) in enumerate(zip(scene_graphs[1:], perms), start=1):
        m = len(base_nodes)
        got = float(cosine(base_nodes, nodes)[np.arange(m), perm].sum())
        best, _ = best_matching(base_nodes, nodes)
        if got < best - TOL:
            out.append(f"graph {i}: matching objective {got:.12f} below the optimum {best:.12f}")
        nodes_sum += nodes[perm]
        edges_sum += edges[np.ix_(perm, perm)]
    n = len(scene_graphs)
    dev = max(float(np.max(np.abs(nodes_sum / n - merged_nodes))),
              float(np.max(np.abs(edges_sum / n - merged_edges))))
    if dev > TOL:
        out.append(f"merged graph differs from the average of the aligned graphs by {dev:.3e}")
    return out


# ---------------------------------------------------------------------------
# Training


def check_train_log(log_text: str, episodes: int, every: int) -> tuple[list[str], int, int]:
    """Returns (failures, environment steps, skipped updates). One record per
    `every` episodes; the last covers all `episodes` (at most 100, the log's
    window), so its mean length times the count is the step total."""
    out = []
    recs = [json.loads(ln) for ln in log_text.splitlines() if ln.strip()]
    want = list(range(every, episodes + 1, every))
    got = [r.get("episode") for r in recs]
    if got != want:
        out.append(f"log records episodes {got}, expected {want}")
    steps = prev_episode = skipped = 0
    for r in recs:
        for key in ("loss", "entropy", "mean_length_100"):
            if not math.isfinite(float(r[key])):
                out.append(f"episode {r['episode']}: non-finite {key}")
        total = r["mean_length_100"] * r["episode"]
        if not (abs(total - round(total)) < 1e-6
                and round(total) >= steps + r["episode"] - prev_episode):
            out.append(f"episode {r['episode']}: step total {total} is not a whole number "
                       f"with at least one step per episode")
        else:
            steps = round(total)
        prev_episode = r["episode"]
        skipped = int(r["skipped_updates"])
    if skipped:
        out.append(f"{skipped} update(s) skipped as non-finite")
    return out, steps, skipped


def check_train_summary(text: str, episodes: int) -> list[str]:
    """The subcommand's closing line reports the episodes asked for."""
    if f"(episodes={episodes} " not in text:
        return [f"train did not report {episodes} episodes"]
    return []


def check_checkpoint(arrays: dict, init: dict, graph_nodes, graph_edges) -> list[str]:
    """Policy arrays have the initial shapes, are finite and have moved away
    from the initial policy; the graph arrays are the training graph's."""
    out = []
    names = set(init) | {"graph_nodes", "graph_edges"}
    if set(arrays) != names:
        out.append(f"checkpoint arrays {sorted(arrays)} differ from {sorted(names)}")
    moved = 0.0
    for name, ref in init.items():
        arr = arrays.get(name)
        if arr is None:
            continue
        if arr.shape != np.shape(ref):
            out.append(f"{name} has shape {arr.shape}, expected {np.shape(ref)}")
            continue
        if not np.all(np.isfinite(arr)):
            out.append(f"{name} has non-finite values")
        moved = max(moved, float(np.max(np.abs(arr - ref), initial=0.0)))
    if moved == 0.0:
        out.append("trained policy equals the initial policy")
    for name, ref in (("graph_nodes", graph_nodes), ("graph_edges", graph_edges)):
        arr = arrays.get(name)
        if arr is None or arr.shape != ref.shape or np.any(arr != ref):
            out.append(f"{name} differs from the training graph")
    return out


FD_STEPS = (1e-3, 3e-4, 1e-4, 3e-5, 1e-5)
FD_TOL = 1e-5


def fd_errors(loss, params: dict, grads: dict) -> dict[str, float]:
    """Relative error of the largest-magnitude gradient entry of every array
    against a central difference of `loss(params)`. The step is the one of
    FD_STEPS whose estimate agrees best with its neighbour's."""
    errs = {}
    for name, arr in params.items():
        g = np.asarray(grads[name]).reshape(-1)
        if not np.any(g):
            continue
        flat = arr.reshape(-1)
        idx = int(np.argmax(np.abs(g)))
        orig = flat[idx]
        est = []
        for d in FD_STEPS:
            flat[idx] = orig + d
            lp = loss(params)
            flat[idx] = orig - d
            lm = loss(params)
            flat[idx] = orig
            est.append((lp - lm) / (2 * d))
        gaps = [abs(a - b) for a, b in zip(est, est[1:])]
        fd = est[int(np.argmin(gaps))]
        errs[name] = abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-8)
    return errs


def check_gradients(loss, params: dict, grads: dict) -> list[str]:
    errs = fd_errors(loss, params, grads)
    if not errs:
        return ["every gradient entry is zero"]
    return [f"gradient of {k} disagrees with finite differences (rel. error {e:.2e})"
            for k, e in errs.items() if not e <= FD_TOL]


# ---------------------------------------------------------------------------
# Evaluation


_SUMMARY = re.compile(r"summary SR=(\S+) ±(\S+) SPL=(\S+) ±(\S+) DTS=(\S+) ±(\S+)")


def check_eval_report(text: str, episodes: int, seeds: tuple, goals,
                      t_max: int) -> tuple[list[str], int, int]:
    """Returns (failures, episodes, environment steps)."""
    out = []
    lines = text.splitlines()
    if not lines or not lines[0].startswith("report-v1 "):
        return ["not a report-v1 file"], 0, 0
    recs = [json.loads(ln) for ln in lines[1:] if ln.startswith("{")]
    eps = [r for r in recs if r.get("record") == "episode"]
    per_seed = {r["seed"]: r for r in recs if r.get("record") == "seed"}
    if sorted(per_seed) != sorted(seeds):
        out.append(f"seed records {sorted(per_seed)}, expected {sorted(seeds)}")
    step_bound = CELL * math.sqrt(2.0)
    recomputed = []
    for seed in seeds:
        mine = [r for r in eps if r["seed"] == seed]
        if len(mine) != episodes:
            out.append(f"seed {seed}: {len(mine)} episode records, expected {episodes}")
            continue
        spl_terms = []
        for i, r in enumerate(mine):
            where = f"seed {seed} episode {i}"
            if r["goal"] not in goals:
                out.append(f"{where}: goal {r['goal']} outside the split")
            if not 1 <= r["steps"] <= t_max:
                out.append(f"{where}: {r['steps']} steps, outside [1, {t_max}]")
            if r["path_length"] > step_bound * r["steps"] + 1e-6:
                out.append(f"{where}: path {r['path_length']} m, over 0.5*sqrt(2) m per step")
            if r["success"] and r["dts"] != 0.0:
                out.append(f"{where}: success ends {r['dts']} m from the goal region")
            if r["dts"] < 0 or r["shortest_length"] < 0:
                out.append(f"{where}: negative distance")
            l, p = r["shortest_length"], r["path_length"]
            spl_terms.append(0.0 if not r["success"] else 1.0 if l == 0.0 else l / max(p, l))
        sr = 100.0 * sum(r["success"] for r in mine) / episodes
        spl = 100.0 * sum(spl_terms) / episodes
        dts = float(np.mean([r["dts"] for r in mine]))
        recomputed.append((sr, spl, dts))
        rep = per_seed.get(seed, {})
        for key, val, tol in (("sr", sr, 1e-9), ("spl", spl, 1e-3), ("dts", dts, 1e-9)):
            if not abs(rep.get(key, math.nan) - val) <= tol:
                out.append(f"seed {seed}: reported {key.upper()} {rep.get(key)} but the "
                           f"episode records give {val}")
        if not 0.0 <= rep.get("spl", -1) <= rep.get("sr", -1) + 1e-9:
            out.append(f"seed {seed}: SPL {rep.get('spl')} outside [0, SR={rep.get('sr')}]")
    m = _SUMMARY.search(text)
    if m is None:
        out.append("no summary line")
    elif len(recomputed) == len(seeds):
        arr = np.array(recomputed)
        want = [float(v) for col in arr.T for v in (col.mean(), col.std())]
        got = [float(v) for v in m.groups()]
        if any(abs(g - w) > 0.005 + 1e-3 for g, w in zip(got, want)):
            out.append(f"summary {m.group(0)!r} differs from the seed figures "
                       f"{[round(v, 4) for v in want]}")
    return out, len(eps), sum(r["steps"] for r in eps)


def check_same(texts: list[str], what: str) -> list[str]:
    """Repeated runs of the same operation on the same inputs give the same bytes."""
    if len(set(texts)) > 1:
        return [f"{what} differs between repeated runs on the same inputs"]
    return []

"""Acceptance suite: one criterion per test, one PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 6, 7 and 9 share a
single 20k-episode training run (a few minutes); everything else is fast.
"""

import itertools
import math
import time

import numpy as np
import pytest

import zonegraph.nn as nn
from zonegraph.categories import GOAL_CATEGORIES, GOAL_SET
from zonegraph.embedding import EmbeddingProvider, embeddings_from_text, embeddings_to_text
from zonegraph.graph import (
    build_room_graph,
    build_scene_graph,
    cluster_zones,
    graph_from_text,
    graph_to_text,
    merge_graphs,
    sweep_position_features,
)
from zonegraph.metrics import GoalSplit, evaluate, report_summary_line, zero_shot_split
from zonegraph.policy import TrainConfig, train
from zonegraph.selfcheck import (_rel_err, a2c_case, equation_algebra, fd_derivative, fd_probe,
                                 gcn_case, gradient_suite, heads_case, lstm_case,
                                 matching_optimality, planner_optimality)
from zonegraph.sim import (
    CELL,
    PITCHES,
    YAWS,
    generate_scene,
    scene_from_text,
    scene_to_text,
)

from conftest import make_scene


def report(name: str, ok: bool, detail: str = ""):
    print(f"\n{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: equation algebra suite (tolerance 1e-12, runtime < 1 s)


def test_criterion_1_equation_algebra():
    t0 = time.time()
    dev, counts = equation_algebra()
    assert counts == (8, 0, 9)
    elapsed = time.time() - t0
    report("criterion-1 equation-algebra", dev <= 1e-12 and elapsed < 1.0,
           f"max deviation {dev:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 2: pipeline vs independent brute-force recomputation (< 10 s)


def _oracle_visible(scene, x, z, yaw, pitch):
    """Independent visibility geometry via complex arithmetic."""
    band_pitch = {"low": -30, "mid": 0, "high": 30}
    heading = complex(math.sin(math.radians(yaw)), math.cos(math.radians(yaw)))
    out = []
    for o in scene.objects:
        if band_pitch[o.height_band] != pitch:
            continue
        rel = complex(o.x - x, o.z - z)
        if abs(rel) > 1.5 + 1e-9:
            continue
        if abs(rel) > 1e-9:
            turned = rel / heading
            if abs(math.degrees(math.atan2(turned.real, turned.imag))) > 45.0 + 1e-9:
                continue
        out.append(o.category)
    return out


def _oracle_sweep(scene, provider):
    feats = {}
    for ix, iz in scene.reachable_cells():
        x, z = ix * CELL, iz * CELL
        total = np.zeros(provider.dim)
        count = 0
        for yaw in YAWS:
            for pitch in PITCHES:
                for cat in _oracle_visible(scene, x, z, yaw, pitch):
                    if cat in GOAL_SET:
                        total += provider.object_embedding(cat)
                        count += 1
        feats[(x, z)] = total / count if count else total
    return feats


def _oracle_kmeans(x, m, seed):
    """Loop-based Lloyd with the same seeding semantics as the pipeline."""
    rng = np.random.default_rng(seed)
    centers = [x[int(rng.integers(len(x)))].copy()]
    d2 = np.array([min(sum((p - c) ** 2) for c in centers) for p in x])
    while len(centers) < m:
        total = d2.sum()
        if total <= 0:
            break
        centers.append(x[int(rng.choice(len(x), p=d2 / total))].copy())
        d2 = np.array([min(sum((p - c) ** 2) for c in centers) for p in x])

    def assign(cs):
        labels = []
        for p in x:
            best, best_d = 0, math.inf
            for c_idx, c in enumerate(cs):
                d = float(sum((p - c) ** 2))
                if d < best_d:
                    best, best_d = c_idx, d
            labels.append(best)
        return labels

    labels = assign(centers)
    for _ in range(100):
        labels = assign(centers)
        kept = sorted(set(labels))
        if len(kept) < len(centers):
            centers = [np.mean([x[i] for i in range(len(x)) if labels[i] == k], axis=0)
                       for k in kept]
            remap = {k: i for i, k in enumerate(kept)}
            labels = [remap[l] for l in labels]
            continue
        new_centers = [np.mean([x[i] for i in range(len(x)) if labels[i] == k], axis=0)
                       for k in range(len(centers))]
        movement = max(
            math.sqrt(float(sum((a - b) ** 2))) for a, b in zip(new_centers, centers)
        )
        centers = new_centers
        if movement < 1e-6:
            break
    return labels, centers


def test_criterion_2_pipeline_vs_oracle():
    t0 = time.time()
    prov = EmbeddingProvider.synthetic(dim=8, seed=0)
    cats = ("Sink", "Fridge")
    bands = ("low", "mid", "high")
    checked = 0
    worst_feat = worst_graph = 0.0
    for case in range(24):
        rng = np.random.default_rng(5000 + case)
        objs = [
            (cats[i % 2], int(rng.integers(3)), int(rng.integers(3)),
             bands[int(rng.integers(3))])
            for i in range(int(rng.integers(2, 5)))
        ]
        blocked = [(int(rng.integers(3)), int(rng.integers(3)))] if rng.random() < 0.5 else []
        scene = make_scene(3, 3, objs, blocked=blocked, sid=f"micro{case}")

        fmap = sweep_position_features(scene, prov)
        oracle_feats = _oracle_sweep(scene, prov)
        for i, pos in enumerate(fmap.positions):
            worst_feat = max(worst_feat, float(np.max(np.abs(fmap.features[i] - oracle_feats[pos]))))

        za = cluster_zones(fmap, 2, seed=0)
        olabels, ocenters = _oracle_kmeans(fmap.features, 2, seed=0)
        impl = za.labels.tolist()
        # identical up to label permutation (bijective relabeling)
        mapping = {}
        ok_perm = len(set(olabels)) == za.zone_count
        for a, b in zip(impl, olabels):
            if a in mapping and mapping[a] != b:
                ok_perm = False
                break
            mapping[a] = b
        ok_perm = ok_perm and len(set(mapping.values())) == len(mapping)
        assert ok_perm, f"micro-scene {case}: assignments differ beyond relabeling"

        g = build_room_graph(za, fmap, eps=0.5)
        # naive node/edge recomputation under the oracle's labels
        for za_label, o_label in mapping.items():
            members = [i for i, l in enumerate(olabels) if l == o_label]
            node = np.mean([fmap.features[i] for i in members], axis=0)
            worst_graph = max(worst_graph, float(np.max(np.abs(g.nodes[za_label] - node))))
        for la, lb in itertools.combinations(sorted(mapping), 2):
            ma = [p for p, i in zip(fmap.positions, impl) if i == la]
            mb = [p for p, i in zip(fmap.positions, impl) if i == lb]
            hits = sum(
                1 for pa in ma for pb in mb
                if abs(pa[0] - pb[0]) + abs(pa[1] - pb[1]) <= 0.5 + 1e-9
            )
            worst_graph = max(worst_graph, abs(g.edges[la, lb] - hits / (len(ma) * len(mb))))
        checked += 1
    elapsed = time.time() - t0
    ok = checked >= 20 and worst_feat <= 1e-9 and worst_graph <= 1e-9 and elapsed < 10
    report("criterion-2 pipeline-vs-oracle", ok,
           f"{checked} micro-scenes, max feature dev {worst_feat:.2e}, "
           f"max graph dev {worst_graph:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 3: planner optimality + selection invariance (< 10 s)


def test_criterion_3_planner_optimality():
    t0 = time.time()
    worst, flips = planner_optimality(77, 200)
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and flips == 0 and elapsed < 10
    report("criterion-3 planner-optimality", ok,
           f"200 graphs, max prob dev {worst:.2e}, subgoal flips under scaling {flips}, "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 4: assignment matching vs brute force (< 10 s)


def test_criterion_4_matching():
    t0 = time.time()
    worst, recoveries, recovery_candidates = matching_optimality(88, 100)
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and recoveries == recovery_candidates and recovery_candidates > 50 \
        and elapsed < 10
    report("criterion-4 kuhn-munkres", ok,
           f"100 instances, max objective dev {worst:.2e}, "
           f"recoveries {recoveries}/{recovery_candidates}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 5: gradient suite (< 30 s)


def test_criterion_5_gradient_suite():
    t0 = time.time()
    worst, lam_moved = gradient_suite(99, 50)
    elapsed = time.time() - t0
    worst_all = max(worst.values())
    ok = worst_all <= 1e-4 and lam_moved and elapsed < 30
    report("criterion-5 gradient-suite", ok,
           f"worst rel err {worst_all:.2e} ({', '.join(f'{k}={v:.1e}' for k, v in worst.items())}), "
           f"{elapsed:.1f}s")


def test_criterion_5_probe_detects_corrupted_gradients():
    # the per-probe step must not blur a real error: gradients off by a
    # relative 1e-3, or missing the sigmoid chain factor of the blend
    # parameter, are reported above the 1e-4 tolerance of criterion 5
    rng = np.random.default_rng(99)
    worst_scaled = {"lstm_wx": 0.0, "actor_w": 0.0, "lambda_raw": 0.0}
    worst_unchained = 0.0
    for _ in range(10):
        params, grads, aloss = a2c_case(rng)
        lam = float(nn.sigmoid(params["lambda_raw"]))
        for name in worst_scaled:
            worst_scaled[name] = max(worst_scaled[name],
                                     fd_probe(aloss, params[name], grads[name] * 1.001, rng, 1))
        unchained = grads["lambda_raw"] / (lam * (1.0 - lam))
        worst_unchained = max(worst_unchained,
                              fd_probe(aloss, params["lambda_raw"], unchained, rng, 1))
    # the sequence kernels of the per-block probes, one weight gradient each
    for key, case, name in (("gcn.w1", gcn_case, "w1"), ("lstm.wx", lstm_case, "wx"),
                            ("heads.actor_w", heads_case, "actor_w")):
        worst_scaled[key] = 0.0
        for _ in range(10):
            loss, probes = case(rng)
            arr, grad = probes[name]
            worst_scaled[key] = max(worst_scaled[key], fd_probe(loss, arr, grad * 1.001, rng, 1))
    print(f"\nscaled by 1.001: {worst_scaled}, chain factor dropped: {worst_unchained:.2e}")
    assert all(v > 1e-4 for v in worst_scaled.values()), worst_scaled
    assert worst_unchained > 1e-4, worst_unchained


def test_criterion_5_probe_sees_a_tiny_derivative_of_a_large_loss():
    # at the smallest steps two neighbouring estimates of this derivative
    # agree closely, yet each is off by the round-off of a loss near 65; the
    # probe must not take that agreement for accuracy
    g, c = 8.715215744566964e-07, -8.768029102052144e-07
    x = np.array([0.09050690893848135])
    fd = fd_derivative(lambda: 65.49161983685585 + g * x[0] + c * math.sin(x[0]), x, 0)
    exact = g + c * math.cos(0.09050690893848135)
    assert _rel_err(fd, exact) <= 1e-4, (fd, exact)
    assert x[0] == 0.09050690893848135


# ---------------------------------------------------------------------------
# Criteria 6, 7, 9 share one 20k-episode training run (zero-shot split)


@pytest.fixture(scope="module")
def trained_world():
    prov = EmbeddingProvider.synthetic(dim=64, seed=0)
    scenes = [generate_scene("kitchen", (8, 8), s) for s in range(4)]
    graph = merge_graphs([build_scene_graph(s, prov, zones=8, eps=0.5, seed=0) for s in scenes])
    split = zero_shot_split()
    cfg = TrainConfig(episodes=20000, workers=1, seed=0)
    t0 = time.time()
    result = train(cfg, scenes, graph, prov, allowed_goals=split.train_goals)
    return {
        "provider": prov,
        "scenes": scenes,
        "graph": graph,
        "split": split,
        "result": result,
        "train_seconds": time.time() - t0,
    }


@pytest.mark.slow
def test_criterion_6_learning_signal(trained_world):
    w = trained_world
    train_goal_split = GoalSplit(w["split"].train_goals, w["split"].train_goals, "general")
    random_report = evaluate(None, w["graph"], w["provider"], w["scenes"], train_goal_split,
                             episodes_per_seed=150, seeds=(1, 2, 3), policy="random")
    moving_sr = 100.0 * w["result"].final_sr_1000
    ratio = moving_sr / max(random_report.sr_mean, 1e-9)
    ok = ratio >= 3.0 and w["train_seconds"] < 1800
    report("criterion-6 learning-signal", ok,
           f"final-1k moving SR {moving_sr:.2f}% vs random {random_report.sr_mean:.2f}% "
           f"(ratio {ratio:.2f}x >= 3x), trained in {w['train_seconds']:.0f}s")


@pytest.mark.slow
def test_criterion_7_zero_shot_protocol(trained_world):
    w = trained_world
    split = w["split"]
    # trainer never emitted a held-out goal
    leaked = set(w["result"].goal_log) & split.test_goals
    # evaluation runs exactly the six held-out goals
    eval_goals = set()

    def sink(seed, rec):
        eval_goals.add(rec.goal)

    trained = evaluate(w["result"].params, w["graph"], w["provider"], w["scenes"], split,
                       episodes_per_seed=150, seeds=(1, 2, 3), record_sink=sink)
    random_report = evaluate(None, w["graph"], w["provider"], w["scenes"], split,
                             episodes_per_seed=150, seeds=(1, 2, 3), policy="random")
    ratio = trained.sr_mean / max(random_report.sr_mean, 1e-9)
    ok = not leaked and eval_goals == split.test_goals and ratio >= 2.0
    report("criterion-7 zero-shot", ok,
           f"goal-log leaks {sorted(leaked)}, eval goals {len(eval_goals)}/6, "
           f"zero-shot SR {trained.sr_mean:.2f}% vs random {random_report.sr_mean:.2f}% "
           f"(ratio {ratio:.2f}x >= 2x)")


@pytest.mark.slow
def test_criterion_9_ablation(trained_world):
    w = trained_world
    split = GoalSplit(w["split"].train_goals, w["split"].train_goals, "general")
    kw = dict(episodes_per_seed=150, seeds=(1, 2, 3))
    full = evaluate(w["result"].params, w["graph"], w["provider"], w["scenes"], split, **kw)
    no_obj = evaluate(w["result"].params, w["graph"], w["provider"], w["scenes"], split,
                      mask=frozenset({"obj"}), **kw)
    no_img = evaluate(w["result"].params, w["graph"], w["provider"], w["scenes"], split,
                      mask=frozenset({"img"}), **kw)
    # the harness must support masking every component
    for comp in ("gra", "act"):
        evaluate(w["result"].params, w["graph"], w["provider"], w["scenes"], split,
                 mask=frozenset({comp}), episodes_per_seed=10, seeds=(1,))
    ok = no_obj.sr_mean < full.sr_mean and no_img.sr_mean < full.sr_mean
    report("criterion-9 ablation", ok,
           f"full SR {full.sr_mean:.2f}% vs -f_obj {no_obj.sr_mean:.2f}% "
           f"vs -f_img {no_img.sr_mean:.2f}% (both must degrade)")


# ---------------------------------------------------------------------------
# Criterion 8: determinism and formats (< 1 min)


def test_criterion_8_determinism_and_formats(tmp_path):
    t0 = time.time()
    prov = EmbeddingProvider.synthetic(dim=16, seed=0)

    scene_a = generate_scene("bedroom", (6, 6), 13)
    scene_b = generate_scene("bedroom", (6, 6), 13)
    scenes_identical = scene_to_text(scene_a) == scene_to_text(scene_b)
    scene_roundtrip = scene_to_text(scene_from_text(scene_to_text(scene_a))) == scene_to_text(scene_a)

    ga = build_scene_graph(scene_a, prov, zones=3, eps=0.5, seed=4)
    gb = build_scene_graph(scene_b, prov, zones=3, eps=0.5, seed=4)
    graphs_identical = graph_to_text(ga) == graph_to_text(gb)
    graph_roundtrip = graph_to_text(graph_from_text(graph_to_text(ga))) == graph_to_text(ga)

    emb_text = embeddings_to_text(prov, categories=GOAL_CATEGORIES)
    emb_roundtrip = embeddings_to_text(embeddings_from_text(emb_text)) == emb_text

    cfg = TrainConfig(episodes=40, workers=2, seed=6, t_max=15)
    goals = sorted(scene_a.goal_categories_present())
    ra = train(TrainConfig(**vars(cfg)), [scene_a], ga, prov, allowed_goals=goals, hidden=16)
    rb = train(TrainConfig(**vars(cfg)), [scene_a], ga, prov, allowed_goals=goals, hidden=16)
    meta = {"D": 16, "N": ga.feature_dim, "M": ga.zone_count, "H": 16, "seed": 6}
    ckpt_a = nn.checkpoint_to_text(ra.params, meta)
    ckpt_b = nn.checkpoint_to_text(rb.params, meta)
    ckpts_identical = ckpt_a == ckpt_b
    arrays, meta2 = nn.checkpoint_from_text(ckpt_a)
    ckpt_roundtrip = nn.checkpoint_to_text(arrays, meta2) == ckpt_a

    rep = evaluate(ra.params, ga, prov, [scene_a], "general",
                   episodes_per_seed=6, seeds=(1, 2, 3))
    line = report_summary_line(rep)
    import re

    triplicate_ok = bool(re.fullmatch(
        r"SR=\d+\.\d{2} ±\d+\.\d{2} SPL=\d+\.\d{2} ±\d+\.\d{2} "
        r"DTS=\d+\.\d{2} ±\d+\.\d{2}", line))
    srs = [p["sr"] for p in rep.per_seed]
    std_ok = abs(rep.sr_std - float(np.std(srs))) < 1e-12 and len(rep.per_seed) == 3

    elapsed = time.time() - t0
    ok = all([scenes_identical, scene_roundtrip, graphs_identical, graph_roundtrip,
              emb_roundtrip, ckpts_identical, ckpt_roundtrip, triplicate_ok, std_ok,
              elapsed < 60])
    report("criterion-8 determinism-and-formats", ok,
           f"scenes={scenes_identical} graph={graphs_identical} ckpt={ckpts_identical} "
           f"roundtrips={scene_roundtrip and graph_roundtrip and emb_roundtrip and ckpt_roundtrip} "
           f"triplicate='{line}', {elapsed:.1f}s")

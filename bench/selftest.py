"""Shows that every output check of the benchmark can fail.

    python3 bench/selftest.py

For each check it makes a valid output with the program on small inputs,
sees the check accept it, then feeds it corrupted copies and sees each one
rejected. Prints one PASS/FAIL line per case; exits 1 on any FAIL. Takes
about ten seconds.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

import numpy as np

import program


def main() -> int:
    program.load()
    import checks
    import workloads
    from zonegraph import graph as zg
    from zonegraph import nn
    from zonegraph.categories import GOAL_SET, ZERO_SHOT_TEST_GOALS
    from zonegraph.embedding import EmbeddingProvider
    from zonegraph.policy import TrainConfig, a2c_loss_and_grads, rollout
    from zonegraph.sim import generate_scene, reset_episode, scene_to_text

    work = program.ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    failures = 0

    def case(name: str, valid: list[str], corrupted: dict[str, list[str]]) -> None:
        nonlocal failures
        ok = not valid
        lines = [f"  valid output: {'accepted' if not valid else 'REJECTED ' + '; '.join(valid)}"]
        for what, msgs in corrupted.items():
            ok &= bool(msgs)
            lines.append(f"  {what}: {'rejected: ' + msgs[0] if msgs else 'NOT REJECTED'}")
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        print("\n".join(lines))

    provider = EmbeddingProvider.synthetic(dim=workloads.DIM, seed=0)

    # -- graphs ----------------------------------------------------------
    scenes = [generate_scene("kitchen", (8, 8), s) for s in range(3)]
    graphs = [zg.build_scene_graph(s, provider) for s in scenes]
    perms = [zg.match_graphs(graphs[0], g) for g in graphs[1:]]
    merged = zg.merge_graphs(graphs)
    text = zg.graph_to_text(merged)
    _, nodes, edges = checks.parse_kg(text)

    asym, diag, above = edges.copy(), edges.copy(), edges.copy()
    asym[0, 1] += 0.01
    np.fill_diagonal(diag, 0.9)
    above[0, 1] = above[1, 0] = 1.25
    case("edges: symmetric, diagonal 1, entries in [0, 1]", checks.check_edges(edges), {
        "one asymmetric edge": checks.check_edges(asym),
        "diagonal 0.9": checks.check_edges(diag),
        "an edge of 1.25": checks.check_edges(above)})

    lines = text.splitlines(keepends=True)
    padded = "".join(lines[:1] + [lines[1].replace(" ", "  ", 1)] + lines[2:])
    case("kg-v1 round trip", checks.check_roundtrip(
        text, zg.graph_from_text, zg.graph_to_text, "kg-v1"), {
        "a doubled separator": checks.check_roundtrip(
            padded, zg.graph_from_text, zg.graph_to_text, "kg-v1")})

    positions, feats = checks.position_features(
        checks.parse_scene(scene_to_text(scenes[0])), provider.object_embedding, GOAL_SET)
    sweep = zg.sweep_position_features(scenes[0], provider).features
    g0 = graphs[0]
    moved_node = g0.nodes.copy()
    moved_node[1, 3] += 1e-6
    labels = np.argmin(((sweep[:, None, :] - g0.nodes[None]) ** 2).sum(axis=2), axis=1)

    def one_pair_off(a: int, b: int) -> np.ndarray:
        e = g0.edges.copy()
        e[a, b] += 1.0 / (np.sum(labels == a) * np.sum(labels == b))
        e[b, a] = e[a, b]
        return e

    one_pair = one_pair_off(0, 1)
    moved_sweep = sweep.copy()
    moved_sweep[int(np.argmax(np.abs(sweep).sum(axis=1)))] *= 1.01
    case("scene graph: sweep against recomputed visibility, member means, pair counts",
         checks.check_scene_graph(positions, sweep, feats, g0.nodes, g0.edges, 0.5), {
             "a sweep feature off by 1%": checks.check_scene_graph(
                 positions, moved_sweep, feats, g0.nodes, g0.edges, 0.5),
             "a node entry off by 1e-6": checks.check_scene_graph(
                 positions, sweep, feats, moved_node, g0.edges, 0.5),
             "an edge off by one position pair": checks.check_scene_graph(
                 positions, sweep, feats, g0.nodes, one_pair, 0.5)})

    # twins: zone 0 repeated as a last zone, which takes none of its positions
    twin_nodes = np.vstack([g0.nodes, g0.nodes[:1]])
    twin_edges = np.pad(g0.edges, ((0, 1), (0, 1)))
    twins_moved = twin_nodes.copy()
    twins_moved[[0, -1], 3] += 1e-6
    twin_one_pair = np.pad(one_pair_off(1, 2), ((0, 1), (0, 1)))  # zone 0 has a twin
    case("scene graph with twin zones (rows equal to round-off) checked as one zone",
         checks.check_scene_graph(positions, sweep, feats, twin_nodes, twin_edges, 0.5), {
             "both twin rows off by 1e-6": checks.check_scene_graph(
                 positions, sweep, feats, twins_moved, twin_edges, 0.5),
             "an edge between single zones off by one position pair": checks.check_scene_graph(
                 positions, sweep, feats, twin_nodes, twin_one_pair, 0.5)})

    swept = zg.sweep_position_features(scenes[0], provider).positions
    case("sweep positions: the scene's reachable cells, in order",
         checks.check_sweep_positions(swept, positions), {
             "a cell left out": checks.check_sweep_positions(swept[1:], positions),
             "two cells swapped": checks.check_sweep_positions(
                 [swept[1], swept[0]] + list(swept[2:]), positions)})

    table = workloads.scene_sets()
    fault = table["known_fault"]
    fdir = work / "known_fault"
    per = table["scenes_per_set"]
    workloads.gen_scenes(fdir, fault["room"], fault["size"], per * fault["set"], per)
    fcode, ftext, _ = workloads.build_graph(fdir, fault["room"], work / "known_fault.kg")
    case("known-fault build: exits non-zero on differing zone counts",
         checks.check_known_fault(fcode, ftext), {
             "exit 0": checks.check_known_fault(0, ftext),
             "another error": checks.check_known_fault(1, "error: no scenes found\n")})

    pairs = [(g.nodes, g.edges) for g in graphs]
    m = graphs[0].zone_count
    cos = checks.cosine(graphs[0].nodes, graphs[1].nodes)

    def swapped(i, j):
        p = perms[0].copy()
        p[[i, j]] = p[[j, i]]
        return p

    worse = min((swapped(i, j) for i in range(m) for j in range(i + 1, m)),
                key=lambda p: cos[np.arange(m), p].sum())
    off_nodes = nodes.copy()
    off_nodes[0, 0] += 1e-6
    case("merge: brute-force optimal matching, averaged graph",
         checks.check_merge(pairs, perms, nodes, edges), {
             "a non-optimal permutation": checks.check_merge(
                 pairs, [worse] + perms[1:], nodes, edges),
             "a merged node entry off by 1e-6": checks.check_merge(
                 pairs, perms, off_nodes, edges)})

    # -- training --------------------------------------------------------
    sdir = work / "scenes"
    workloads.gen_scenes(sdir, "kitchen", "8x8", 0, 2)
    kg = work / "kitchen.kg"
    workloads.build_graph(sdir, "kitchen", kg)
    cfg = work / "train.cfg"
    cfg.write_text("stats_every = 8\ntrain.t_max = 20\nhidden = 16\n")
    ckpt = work / "policy.ckpt"
    code, out, _ = workloads.zonegraph([
        "train", "--scenes", str(sdir), "--graph", str(kg), "--config", str(cfg),
        "--out", str(ckpt), "--episodes", "16", "--seed", "3", "--split", "zero-shot"])
    if code != 0:
        print(f"FAIL training run for the self-test: {out}")
        return 1
    case("train summary: the episodes asked for", checks.check_train_summary(out, 16), {
        "one episode fewer": checks.check_train_summary(
            out.replace("(episodes=16 ", "(episodes=15 "), 16)})
    log = (work / "policy.ckpt.log").read_text()
    recs = [json.loads(ln) for ln in log.splitlines()]

    def log_with(edit) -> str:
        rs = copy.deepcopy(recs)
        edit(rs)
        return "".join(json.dumps(r) + "\n" for r in rs)

    case("training log: episode count, finite updates, whole step totals",
         checks.check_train_log(log, 16, 8)[0], {
             "a missing record": checks.check_train_log(log_with(lambda rs: rs.pop()), 16, 8)[0],
             "one skipped update": checks.check_train_log(
                 log_with(lambda rs: rs[-1].update(skipped_updates=1)), 16, 8)[0],
             "a NaN loss": checks.check_train_log(
                 log_with(lambda rs: rs[0].update(loss=float("nan"))), 16, 8)[0],
             "a step total that is not whole": checks.check_train_log(
                 log_with(lambda rs: rs[0].update(mean_length_100=rs[0]["mean_length_100"] + .01)),
                 16, 8)[0]})

    _, arrays = checks.parse_ckpt(ckpt.read_text())
    _, gnodes, gedges = checks.parse_kg(kg.read_text())
    init = nn.init_params(workloads.DIM, gnodes.shape[1], 16, seed=3)

    def ckpt_with(edit) -> dict:
        a = {k: v.copy() for k, v in arrays.items()}
        edit(a)
        return a

    case("checkpoint: initial shapes, finite, trained, the training graph",
         checks.check_checkpoint(arrays, init, gnodes, gedges), {
             "a dropped column": checks.check_checkpoint(
                 ckpt_with(lambda a: a.update(lstm_wx=a["lstm_wx"][:, 1:])), init, gnodes, gedges),
             "a NaN critic bias": checks.check_checkpoint(
                 ckpt_with(lambda a: a.update(critic_b=np.array(np.nan))), init, gnodes, gedges),
             "the initial policy": checks.check_checkpoint(
                 ckpt_with(lambda a: a.update({k: v.copy() for k, v in init.items()})),
                 init, gnodes, gedges),
             "another graph": checks.check_checkpoint(
                 ckpt_with(lambda a: a["graph_edges"].__setitem__((0, 0), 0.5)),
                 init, gnodes, gedges)})

    params = {k: arrays[k].copy() for k in init}
    graph = zg.graph_from_text(kg.read_text())
    rng = np.random.default_rng(0)
    goal = sorted(scenes[0].goal_categories_present())[0]
    batch = [rollout(reset_episode(scenes[0], goal, seed=i, t_max=15), params, graph, provider,
                     rng) for i in range(2)]
    tc = TrainConfig()
    _, grads, stats = a2c_loss_and_grads(params, batch, graph, tc)
    adv = stats["advantages"]
    loss = lambda p: a2c_loss_and_grads(p, batch, graph, tc, frozen_advantages=adv)[0]
    scaled = {k: v * (1.001 if k == "lstm_wh" else 1.0) for k, v in grads.items()}
    lam_unchained = dict(grads)
    lam = float(nn.sigmoid(params["lambda_raw"]))
    lam_unchained["lambda_raw"] = grads["lambda_raw"] / (lam * (1 - lam))
    case("analytic gradient against finite differences",
         checks.check_gradients(loss, params, grads), {
             "recurrent weights' gradient scaled by 1.001": checks.check_gradients(
                 loss, params, scaled),
             "lambda gradient without its sigmoid factor": checks.check_gradients(
                 loss, params, lam_unchained)})

    # -- evaluation ------------------------------------------------------
    edir = work / "eval_scenes"
    workloads.gen_scenes(edir, "kitchen", "8x8", 0, 4)
    report = work / "report.txt"
    seeds = (1, 2)
    code, out, _ = workloads.zonegraph([
        "eval", "--ckpt", str(workloads.CHECKPOINT), "--scenes", str(edir),
        "--split", "zero-shot", "--episodes", "40", "--seeds", "1,2", "--out", str(report)])
    if code != 0:
        print(f"FAIL evaluation run for the self-test: {out}")
        return 1
    rep = report.read_text()
    rlines = rep.splitlines(keepends=True)

    def report_with(pick, edit) -> list[str]:
        ls = list(rlines)
        idx = next(i for i, ln in enumerate(ls) if ln.startswith("{") and pick(json.loads(ln)))
        r = json.loads(ls[idx])
        edit(r)
        ls[idx] = json.dumps(r, sort_keys=True) + "\n"
        return checks.check_eval_report("".join(ls), 40, seeds, ZERO_SHOT_TEST_GOALS, 100)[0]

    is_ep = lambda r: r["record"] == "episode"
    is_fail = lambda r: is_ep(r) and not r["success"]
    is_success = lambda r: is_ep(r) and r["success"]
    summary_off = rep.replace("summary SR=", "summary SR=1", 1)
    first_episode = next(i for i, ln in enumerate(rlines)
                         if ln.startswith("{") and is_ep(json.loads(ln)))
    corrupt = {
        "SR off by one episode": report_with(is_fail, lambda r: r.update(success=True, dts=0.0)),
        "SPL above SR": report_with(lambda r: r["record"] == "seed",
                                    lambda r: r.update(spl=r["sr"] + 1.0)),
        "more steps than t_max": report_with(is_ep, lambda r: r.update(steps=101)),
        "a path longer than 0.5*sqrt(2) m per step": report_with(
            is_ep, lambda r: r.update(path_length=0.75 * r["steps"])),
        "a goal outside the split": report_with(is_ep, lambda r: r.update(goal="Fridge")),
        "a summary that disagrees": checks.check_eval_report(
            summary_off, 40, seeds, ZERO_SHOT_TEST_GOALS, 100)[0],
        "a missing episode record": checks.check_eval_report(
            "".join(ln for i, ln in enumerate(rlines) if i != first_episode),
            40, seeds, ZERO_SHOT_TEST_GOALS, 100)[0],
        "no summary line": checks.check_eval_report(
            "".join(ln for ln in rlines if not ln.startswith("summary")),
            40, seeds, ZERO_SHOT_TEST_GOALS, 100)[0],
    }
    if any(json.loads(ln).get("success") for ln in rlines if ln.startswith("{")):
        corrupt["a success away from the goal"] = report_with(
            is_success, lambda r: r.update(dts=0.5))
    case("eval report: SR/SPL/DTS from the records, bounds",
         checks.check_eval_report(rep, 40, seeds, ZERO_SHOT_TEST_GOALS, 100)[0], corrupt)

    case("determinism: repeated operations give the same bytes",
         checks.check_same([rep, rep], "report"),
         {"two different reports": checks.check_same([rep, summary_off], "report")})

    shutil.rmtree(work)
    print(f"{'all checks can fail' if not failures else f'{failures} self-test(s) failed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Oracle suite behind `zonegraph selfcheck` and acceptance criteria 1, 3,
4 and 5.

Each check re-derives one piece of the core math and returns its figures;
the caller chooses the seed, the case count and the gate:

- `equation_algebra`: position-feature averaging, zone means, adjacency
  probabilities and the row-blend update, on hand cases;
- `planner_optimality`: max-product planning against exhaustive path
  enumeration, and the sub-goal's invariance under edge scaling;
- `matching_optimality`: assignment matching against brute force, and the
  recovery of a permuted copy;
- `gradient_suite`: finite-difference probes of the GCN, recurrent cell and
  heads kernels, and of the whole A2C loss and its blend parameter.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import nn
from .controller import GraphState, adapt_graph, max_product_path, plan_subgoal
from .embedding import EmbeddingProvider
from .graph import (KnowledgeGraph, PositionFeatureMap, ZoneAssignment, build_room_graph,
                    cluster_zones, match_graphs, matching_objective, sweep_position_features)
from .policy import TrainConfig, Trajectory, a2c_loss_and_grads
from .sim import CELL, ObjectInstance, Scene


def enumerate_max_product(edges: np.ndarray, start: int, goal: int) -> float:
    """Brute-force max edge product over all simple paths."""
    m = edges.shape[0]
    if start == goal:
        return 1.0
    best = 0.0

    def dfs(node, visited, prob):
        nonlocal best
        if node == goal:
            best = max(best, prob)
            return
        for nxt in range(m):
            if nxt in visited or nxt == node or edges[node, nxt] <= 0.0:
                continue
            dfs(nxt, visited | {nxt}, prob * edges[node, nxt])

    dfs(start, {start}, 1.0)
    return best


def random_edge_matrix(rng: np.random.Generator, m: int, density: float = 0.7) -> np.ndarray:
    e = np.zeros((m, m))
    for a in range(m):
        for b in range(a + 1, m):
            if rng.random() < density:
                e[a, b] = e[b, a] = rng.random()
    np.fill_diagonal(e, 1.0)
    return e


def random_trajectory(rng: np.random.Generator, m: int, n: int, d: int, length: int,
                      img_scale: float = 0.02, mask: frozenset = frozenset()) -> Trajectory:
    """Random records of a `length`-step episode on an m-zone graph with
    n-long node features and d-long embeddings, for probes of the A2C
    loss. Each step draws its image, observation, zone, sub-goal and action
    in that order; every step is rewarded -0.01 but the last, a +5 success.
    The default image scale is that of a pooled image feature, whose one or
    two occupied cells of 49 leave it small."""
    img = np.empty((length, d))
    f_obs = np.empty((length, n))
    zones, subgoals, actions = (np.empty(length, dtype=int) for _ in range(3))
    for t in range(length):
        img[t] = rng.standard_normal(d) * img_scale
        f_obs[t] = rng.standard_normal(n) * 0.3
        zones[t] = rng.integers(m)
        subgoals[t] = rng.integers(m)
        actions[t] = rng.integers(6)
    rewards = np.full(length, -0.01)
    rewards[-1] = 5.0
    return Trajectory(img, f_obs, zones, subgoals, actions, rewards, "Bowl",
                      rng.standard_normal(d), True, frozenset(mask))


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-6)


# Central-difference steps from 1e-2 down to 1e-6 in half-decade steps. No
# single step suits every probe: a large one can cross a ReLU kink of the
# GCN, and a small one drowns a tiny derivative of a large loss in round-off
# (about eps * |L| / delta). The ladder spans both failure modes.
FD_STEPS = tuple(10.0 ** (-k / 2.0) for k in range(4, 13))


def fd_derivative(loss_fn, flat: np.ndarray, idx: int) -> float:
    """Central-difference derivative of `loss_fn()` along `flat[idx]`, with
    the step chosen per probe. Each pair of neighbouring steps of `FD_STEPS`
    scores the larger of its two estimates' gap and the round-off that
    either estimate carries, eps * (|L+| + |L-|) / (2 delta): two estimates
    can agree to far below their round-off and still both be wrong by it.
    The estimate of the best pair's smaller step is kept. `flat` is
    perturbed in place and restored."""
    orig = flat[idx]
    estimates, roundoff = [], []
    for delta in FD_STEPS:
        flat[idx] = orig + delta
        lp = loss_fn()
        flat[idx] = orig - delta
        lm = loss_fn()
        flat[idx] = orig
        estimates.append((lp - lm) / (2 * delta))
        roundoff.append(np.finfo(float).eps * (abs(lp) + abs(lm)) / (2 * delta))
    scores = [max(abs(estimates[k] - estimates[k + 1]), roundoff[k], roundoff[k + 1])
              for k in range(len(FD_STEPS) - 1)]
    return estimates[int(np.argmin(scores)) + 1]


def fd_probe(loss_fn, arr: np.ndarray, grad, rng: np.random.Generator, probes: int) -> float:
    """Probe `probes` random coordinates of `arr` (in place, restored) and
    return the worst relative error of `grad` against `fd_derivative`."""
    flat = arr.reshape(-1)
    gflat = np.asarray(grad).reshape(-1)
    worst = 0.0
    for idx in rng.choice(flat.size, size=min(probes, flat.size), replace=False):
        worst = max(worst, _rel_err(fd_derivative(loss_fn, flat, idx), float(gflat[idx])))
    return worst


def _open_scene(width: int, depth: int, objects) -> Scene:
    """A scene with every cell reachable, holding (category, ix, iz, band)
    objects on cell corners."""
    return Scene("selfcheck", "kitchen", width, depth, np.ones((depth, width), dtype=bool),
                 tuple(ObjectInstance(cat, ix * CELL, iz * CELL, band)
                       for cat, ix, iz, band in objects), 0)


def equation_algebra() -> tuple[float, tuple[int, int, int]]:
    """Hand cases of the sweep's position features, the zone means, the
    edge probabilities and the row blend. Returns the worst deviation from
    the hand-derived values and the detection counts of the three sweep
    cases, which should be 8, 0 and 9."""
    prov = EmbeddingProvider.synthetic(dim=8, seed=0)
    dev = 0.0

    # position-feature averaging, hand case A: one mid-band object on the
    # viewer's cell is detected from all 8 yaws -> feature equals its embedding
    fmap = sweep_position_features(_open_scene(5, 5, [("Sink", 2, 2, "mid")]), prov)
    i = fmap.positions.index((1.0, 1.0))
    dev = max(dev, float(np.max(np.abs(fmap.features[i] - prov.object_embedding("Sink")))))

    # hand case B: nothing in range -> exact zero vector
    fmap_b = sweep_position_features(_open_scene(8, 8, [("Sink", 0, 0, "mid")]), prov)
    j = fmap_b.positions.index((3.5, 3.5))
    dev = max(dev, float(np.max(np.abs(fmap_b.features[j]))))

    # hand case C: category A detected twice as often as B -> (2a + b) / 3
    fmap_c = sweep_position_features(_open_scene(6, 6, [("Sink", 2, 4, "mid"),
                                                        ("Sink", 2, 4, "high"),
                                                        ("Pan", 4, 2, "mid")]), prov)
    k = fmap_c.positions.index((1.0, 1.0))
    a, b = prov.object_embedding("Sink"), prov.object_embedding("Pan")
    dev = max(dev, float(np.max(np.abs(fmap_c.features[k] - (2 * a + b) / 3))))
    counts = (int(fmap.counts[i]), int(fmap_b.counts[j]), int(fmap_c.counts[k]))

    # zone means: two zones of three features, clustered, then graphed;
    # the graph's nodes are the clustering's centers
    positions = ((0.0, 0.0), (0.5, 0.0), (2.0, 0.0))
    feats = np.array([[1.0, 0.0], [0.0, 1.0], [4.0, 4.0]])
    pf = PositionFeatureMap(positions, feats, np.arange(3), np.array([1, 1, 1]))
    za = cluster_zones(pf, 2, 0)
    g = build_room_graph(za, pf, eps=0.5)
    dev = max(dev, float(np.max(np.abs(g.nodes[za.labels[0]] - [0.5, 0.5]))))
    dev = max(dev, float(np.max(np.abs(g.nodes[za.labels[2]] - [4.0, 4.0]))))

    # edge probabilities: adjacent / far / mixed = 1.0 / 0.0 / 0.5
    p1, p2 = (0.0, 0.0), (0.5, 0.0)
    pf2 = PositionFeatureMap((p1, p2), np.array([[1.0], [2.0]]), np.arange(2), np.array([1, 1]))
    za2 = ZoneAssignment(np.array([0, 1]), np.array([[1.0], [2.0]]))
    dev = max(dev, abs(build_room_graph(za2, pf2, eps=0.5).edges[0, 1] - 1.0))
    p3 = (1.5, 0.0)
    pf3 = PositionFeatureMap((p1, p3), np.array([[1.0], [2.0]]), np.arange(2), np.array([1, 1]))
    za3 = ZoneAssignment(np.array([0, 1]), np.array([[1.0], [2.0]]))
    dev = max(dev, abs(build_room_graph(za3, pf3, eps=0.5).edges[0, 1] - 0.0))
    a1, a2, b1 = (0.0, 0.0), (0.0, 2.0), (0.5, 0.0)
    pf4 = PositionFeatureMap((a1, a2, b1), np.array([[1.0], [1.0], [2.0]]), np.arange(3),
                             np.array([1] * 3))
    za4 = ZoneAssignment(np.array([0, 0, 1]), np.array([[1.0], [2.0]]))
    dev = max(dev, abs(build_room_graph(za4, pf4, eps=0.5).edges[0, 1] - 0.5))

    # adaptation row update for lambda in {0, 0.3, 1}
    base = KnowledgeGraph(np.array([[1.0, 0.0], [5.0, 5.0]]), np.eye(2), "kitchen")
    f_obs = np.array([0.0, 1.0])
    for lam in (0.0, 0.3, 1.0):
        gs = GraphState(base, lam=lam)
        adapt_graph(gs, f_obs, 0)
        expect = lam * f_obs + (1 - lam) * np.array([1.0, 0.0])
        dev = max(dev, float(np.max(np.abs(gs.adapted[0] - expect))))
        dev = max(dev, float(np.max(np.abs(gs.adapted[1] - base.nodes[1]))))
    return dev, counts


def planner_optimality(seed: int, graphs: int) -> tuple[float, int]:
    """Max-product planning on `graphs` random graphs of 2-6 zones. Returns
    the worst gap between the planner's path probability and
    `enumerate_max_product`'s, and the number of graphs whose sub-goal
    changes under edge scaling."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    flips = 0
    for _ in range(graphs):
        m = int(rng.integers(2, 7))
        edges = random_edge_matrix(rng, m, density=float(rng.uniform(0.3, 1.0)))
        start, goal = (int(v) for v in rng.choice(m, size=2, replace=False))
        _, prob = max_product_path(edges, start, goal)
        worst = max(worst, abs(prob - enumerate_max_product(edges, start, goal)))

        gs = GraphState(KnowledgeGraph(np.zeros((m, 2)), edges, "kitchen"))
        base_subgoal = plan_subgoal(gs, start, goal)
        # edge scaling in -log space: e -> e^c for c in (0, 1] rescales every
        # path weight by c and must never change the chosen sub-goal (the
        # literal multiplicative reading is provably false for max-product
        # selection; see the repo notes)
        c = float(rng.uniform(0.05, 1.0))
        scaled = edges ** c
        np.fill_diagonal(scaled, 1.0)
        gs2 = GraphState(KnowledgeGraph(np.zeros((m, 2)), scaled, "kitchen"))
        if plan_subgoal(gs2, start, goal) != base_subgoal:
            flips += 1
    return worst, flips


def matching_optimality(seed: int, cases: int) -> tuple[float, int, int]:
    """Assignment matching of `cases` random pairs of 2-5 zone graphs.
    Returns the worst gap between `match_graphs`' objective and the best of
    every permutation, then how many permuted copies it recovered out of
    how many candidates: graphs whose node cosines are separated by >= 0.1."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    recoveries = candidates = 0
    for _ in range(cases):
        m = int(rng.integers(2, 6))
        nodes = rng.standard_normal((m, 16))
        nodes /= np.linalg.norm(nodes, axis=1, keepdims=True)
        ga = KnowledgeGraph(nodes, np.eye(m), "kitchen")
        gb = KnowledgeGraph(rng.standard_normal((m, 16)), np.eye(m), "kitchen")
        perm = match_graphs(ga, gb)
        best = max(
            matching_objective(ga, gb, np.array(p)) for p in itertools.permutations(range(m))
        )
        worst = max(worst, abs(matching_objective(ga, gb, perm) - best))

        cos = nodes @ nodes.T
        np.fill_diagonal(cos, -1.0)
        if float(cos.max()) <= 0.9:
            candidates += 1
            sigma = rng.permutation(m)
            gp = KnowledgeGraph(nodes[sigma], np.eye(m), "kitchen")
            if np.array_equal(match_graphs(ga, gp), np.argsort(sigma)):
                recoveries += 1
    return worst, recoveries, candidates


def a2c_case(rng):
    """A random three-step trajectory on a random 4-zone graph: returns the
    parameters, their analytic A2C gradient and the loss as a closure over
    the parameters (advantages frozen at their current values)."""
    m, n, h, d = 4, 6, 8, 5
    graph = KnowledgeGraph(rng.standard_normal((m, n)) * 0.5,
                           random_edge_matrix(rng, m), "kitchen")
    params = nn.init_params(d, n, hidden=h, seed=int(rng.integers(1000)))
    params["lambda_raw"] = np.array(float(rng.uniform(-1, 1)))
    traj = random_trajectory(rng, m, n, d, 3)
    cfg = TrainConfig(gamma=0.9)
    _, grads, stats = a2c_loss_and_grads(params, [traj], graph, cfg)
    adv = stats["advantages"]

    def aloss():
        l, _, _ = a2c_loss_and_grads(params, [traj], graph, cfg, frozen_advantages=adv)
        return l

    return params, grads, aloss


def gcn_case(rng):
    """The sequence GCN on T in [2, 5) random graphs with random selected
    rows, under a random projection of its (T, N) output: the loss and
    (array, gradient) by name."""
    t_len = int(rng.integers(2, 5))
    m, n = int(rng.integers(2, 5)), int(rng.integers(2, 6))
    w1, w2 = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    nodes = rng.standard_normal((t_len, m, n))
    ahat = nn.normalize_adjacency(random_edge_matrix(rng, m))
    rows = rng.integers(m, size=t_len)
    proj = rng.standard_normal((t_len, n))
    _, cache = nn.gcn_forward_seq(w1, w2, nodes, ahat, rows)
    dw1, dw2, dnodes = nn.gcn_backward_seq(cache, proj, w1, w2)

    def loss():
        out, _ = nn.gcn_forward_seq(w1, w2, nodes, ahat, rows)
        return float((out * proj).sum())

    return loss, {"w1": (w1, dw1), "w2": (w2, dw2), "nodes": (nodes, dnodes)}


def lstm_case(rng):
    """The recurrent cell over T in [2, 5) steps from a zero state, under a
    random projection of its hidden states; the input gradient is dz @ wx.T."""
    t_len = int(rng.integers(2, 5))
    f, h = int(rng.integers(2, 8)), int(rng.integers(2, 8))
    wx = rng.standard_normal((f, 4 * h)) * 0.5
    wh = rng.standard_normal((h, 4 * h)) * 0.5
    b = rng.standard_normal(4 * h) * 0.2
    xs = rng.standard_normal((t_len, f))
    dhs = rng.standard_normal((t_len, h))
    _, cache = nn.lstm_forward_seq(wx, wh, b, xs)
    dwx, dwh, db, dz = nn.lstm_backward_seq(cache, dhs, wx, wh)

    def loss():
        hs, _ = nn.lstm_forward_seq(wx, wh, b, xs)
        return float((hs * dhs).sum())

    return loss, {"wx": (wx, dwx), "wh": (wh, dwh), "b": (b, db), "xs": (xs, dz @ wx.T)}


def heads_case(rng):
    """The heads on T in [2, 5) hidden states: the summed log-probability
    of a random action per step plus the summed values."""
    t_len = int(rng.integers(2, 5))
    hdim = int(rng.integers(2, 8))
    aw, ab = rng.standard_normal((hdim, 6)), rng.standard_normal(6)
    cw, cb = rng.standard_normal(hdim), np.array(rng.standard_normal())
    hs = rng.standard_normal((t_len, hdim))
    acts = rng.integers(6, size=t_len)
    logits, _ = nn.actor_critic(aw, ab, cw, cb, hs)
    # d log p[a] / d logits = onehot(a) - p
    dlogits = np.eye(6)[acts] - nn.softmax(logits)
    daw, dab, dcw, dcb, dhs = nn.actor_critic_backward_seq(aw, cw, hs, dlogits, np.ones(t_len))

    def loss():
        lg, v = nn.actor_critic(aw, ab, cw, cb, hs)
        return float(nn.log_softmax(lg)[np.arange(t_len), acts].sum() + v.sum())

    return loss, {"actor_w": (aw, daw), "actor_b": (ab, dab), "critic_w": (cw, dcw),
                  "critic_b": (cb, dcb), "hs": (hs, dhs)}


def gradient_suite(seed: int, cases: int) -> tuple[dict[str, float], bool]:
    """Finite-difference probes of `cases` random cases per block. The gcn,
    lstm and heads blocks probe the sequence kernels that the A2C update
    runs; the a2c and lambda blocks probe the whole update. Returns the
    worst relative error per block and whether any blend-parameter gradient
    was non-zero."""
    rng = np.random.default_rng(seed)
    worst = {"gcn": 0.0, "lstm": 0.0, "heads": 0.0, "a2c": 0.0, "lambda": 0.0}
    for block, case in (("gcn", gcn_case), ("lstm", lstm_case), ("heads", heads_case)):
        for _ in range(cases):
            loss, probes = case(rng)
            for arr, grad in probes.values():
                worst[block] = max(worst[block], fd_probe(loss, arr, grad, rng, 2))

    lam_moved = False
    for _ in range(cases):
        params, grads, aloss = a2c_case(rng)
        for name in ("gcn_w1", "lstm_wx", "actor_w", "critic_w", "lstm_b"):
            worst["a2c"] = max(worst["a2c"], fd_probe(aloss, params[name], grads[name], rng, 1))
        worst["lambda"] = max(
            worst["lambda"], fd_probe(aloss, params["lambda_raw"], grads["lambda_raw"], rng, 1)
        )
        lam_moved = lam_moved or float(grads["lambda_raw"]) != 0.0
    return worst, lam_moved


def _checks():
    """(name, passed, figures) of each check, at the selfcheck's own seeds
    and counts, one at a time."""
    dev, counts = equation_algebra()
    yield ("equation-algebra", dev <= 1e-12 and counts == (8, 0, 9),
           f"max deviation {dev:.2e}, detections {counts}")
    worst, flips = planner_optimality(11, 50)
    yield ("planner-vs-enumeration", worst <= 1e-12 and flips == 0,
           f"50 graphs, max prob dev {worst:.2e}, subgoal flips under scaling {flips}")
    worst, recoveries, candidates = matching_optimality(13, 30)
    yield ("matching-vs-bruteforce", worst <= 1e-12 and 0 < recoveries == candidates,
           f"30 instances, max objective dev {worst:.2e}, recoveries {recoveries}/{candidates}")
    blocks, lam_moved = gradient_suite(17, 10)
    yield ("gradient-finite-difference", max(blocks.values()) <= 1e-4 and lam_moved,
           f"worst rel err {max(blocks.values()):.2e} "
           f"({', '.join(f'{k}={v:.1e}' for k, v in blocks.items())})")


def run_selfcheck(emit=print) -> bool:
    all_ok = True
    for name, ok, detail in _checks():
        all_ok = all_ok and ok
        emit(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return all_ok

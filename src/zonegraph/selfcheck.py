"""Embedded oracle suite behind `zonegraph selfcheck`.

Small, fast re-derivations of the core math: position-feature averaging,
zone means, adjacency probabilities, the row-blend update, max-product
planning against exhaustive path enumeration, assignment matching against
brute force, and spot finite-difference gradient checks.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import nn
from .controller import GraphState, adapt_graph, max_product_path
from .embedding import EmbeddingProvider
from .graph import (KnowledgeGraph, PositionFeatureMap, ZoneAssignment, build_room_graph,
                    match_graphs, matching_objective, sweep_position_features)
from .policy import TrainConfig, Trajectory, a2c_loss_and_grads
from .sim import ObjectInstance, Scene


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


def fd_check(loss_fn, params: dict, grads: dict, rng: np.random.Generator,
             probes_per_array: int = 4) -> float:
    """Finite-difference probe of every array of `params`. Returns the worst
    relative error."""
    worst = 0.0
    for name, arr in params.items():
        worst = max(worst, fd_probe(lambda: loss_fn(params), arr, grads[name], rng,
                                    probes_per_array))
    return worst


def check_position_feature_algebra() -> tuple[bool, str]:
    """The sweep's feature for a position is the mean embedding over every
    detection in its 24 views, so an object seen from k views weighs k."""
    provider = EmbeddingProvider.synthetic(dim=8, seed=3)
    # Cell (0, 0) is the only reachable one. The Bowl lies on it, in the low
    # band: an object on the agent's cell is seen from every yaw, so the 8
    # views at pitch -30 see it (k_a = 8). The Kettle, mid band, is 1.12 m
    # away at (0.5, 1.0), at angle atan2(0.5, 1.0) = 26.6 deg. Of the pitch-0
    # views, yaw 0 sees it at bearing +26.6 and yaw 45 at -18.4; the nearest
    # others, yaw 90 at -63.4 and yaw 315 at +71.6, fall outside the +-45
    # field (k_b = 2).
    reachable = np.zeros((3, 2), dtype=bool)
    reachable[0, 0] = True
    objects = (ObjectInstance("Bowl", 0.0, 0.0, "low"), ObjectInstance("Kettle", 0.5, 1.0, "mid"))
    scene = Scene("selfcheck", "kitchen", 2, 3, reachable, objects, 0)
    fmap = sweep_position_features(scene, provider)
    k_a, k_b = 8, 2
    a, b = provider.object_embedding("Bowl"), provider.object_embedding("Kettle")
    dev = float(np.max(np.abs(fmap.features[0] - (k_a * a + k_b * b) / (k_a + k_b))))
    ok = fmap.positions == ((0.0, 0.0),) and int(fmap.counts[0]) == k_a + k_b and dev < 1e-12
    return ok, f"{int(fmap.counts[0])} detections, max dev {dev:.2e}"


def check_zone_and_edge_algebra() -> tuple[bool, str]:
    positions = ((0.0, 0.0), (0.0, 0.5), (0.0, 2.0))
    feats = np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 3.0]])
    fmap = PositionFeatureMap(positions, feats, np.arange(3), np.array([1, 1, 1]))
    za = ZoneAssignment(np.array([0, 0, 1]), np.array([[0.5, 0.5], [3.0, 3.0]]))
    g = build_room_graph(za, fmap, eps=0.5)
    node_ok = np.allclose(g.nodes[0], [0.5, 0.5], atol=1e-12)
    # cross pairs: (p0,p2) dist 2.0, (p1,p2) dist 1.5 -> none adjacent
    edge_ok = g.edges[0, 1] == 0.0 and g.edges[0, 0] == 1.0
    za2 = ZoneAssignment(np.array([0, 1, 1]), np.array([[1.0, 0.0], [1.5, 2.0]]))
    g2 = build_room_graph(za2, fmap, eps=0.5)
    # (p0,p1) adjacent at 0.5; (p0,p2) not -> 1/2
    edge_ok = edge_ok and abs(g2.edges[0, 1] - 0.5) < 1e-12
    return bool(node_ok and edge_ok), f"edges {g.edges[0, 1]}, {g2.edges[0, 1]}"


def check_adaptation_algebra() -> tuple[bool, str]:
    base = KnowledgeGraph(np.array([[1.0, 0.0], [0.0, 2.0]]), np.eye(2), "kitchen")
    worst = 0.0
    for lam in (0.0, 0.3, 1.0):
        gs = GraphState(base, lam=lam)
        f_obs = np.array([0.0, 1.0])
        adapt_graph(gs, f_obs, 0)
        expect = np.array([1.0 - lam, lam])  # the blend of [1, 0] toward [0, 1]
        worst = max(worst, float(np.max(np.abs(gs.adapted[0] - expect))))
        worst = max(worst, float(np.max(np.abs(gs.adapted[1] - base.nodes[1]))))
    return worst < 1e-12, f"max dev {worst:.2e}"


def check_planner(n_graphs: int = 50) -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(n_graphs):
        m = int(rng.integers(2, 7))
        edges = random_edge_matrix(rng, m)
        start, goal = rng.choice(m, size=2, replace=False)
        _, prob = max_product_path(edges, int(start), int(goal))
        best = enumerate_max_product(edges, int(start), int(goal))
        worst = max(worst, abs(prob - best))
    return worst < 1e-12, f"max dev {worst:.2e}"


def check_matching(n_cases: int = 30) -> tuple[bool, str]:
    rng = np.random.default_rng(13)
    ok = True
    for _ in range(n_cases):
        m = int(rng.integers(2, 5))
        ga = KnowledgeGraph(rng.standard_normal((m, 6)), np.eye(m), "kitchen")
        gb = KnowledgeGraph(rng.standard_normal((m, 6)), np.eye(m), "kitchen")
        perm = match_graphs(ga, gb)
        got = matching_objective(ga, gb, perm)
        best = max(
            matching_objective(ga, gb, np.array(p)) for p in itertools.permutations(range(m))
        )
        ok = ok and abs(got - best) < 1e-12
    return ok, "objectives match brute force" if ok else "objective below brute force"


def check_gradients() -> tuple[bool, str]:
    """Finite-difference probes of the sequence kernels training runs (the
    GCN rows and the recurrent cell over several steps) and of the whole
    A2C loss."""
    rng = np.random.default_rng(17)
    worst = 0.0

    t_len, m, n, h, d = 3, 3, 5, 6, 4
    edges = random_edge_matrix(rng, m)
    ahat = nn.normalize_adjacency(edges)
    rows = rng.integers(m, size=t_len)
    gp = {"w1": rng.standard_normal((n, n)), "w2": rng.standard_normal((n, n)),
          "nodes": rng.standard_normal((t_len, m, n))}
    proj = rng.standard_normal((t_len, n))

    def gcn_loss(p):
        out, _ = nn.gcn_forward_seq(p["w1"], p["w2"], p["nodes"], ahat, rows)
        return float((out * proj).sum())

    _, cache = nn.gcn_forward_seq(gp["w1"], gp["w2"], gp["nodes"], ahat, rows)
    dw1, dw2, dnodes = nn.gcn_backward_seq(cache, proj, gp["w1"], gp["w2"])
    worst = max(worst, fd_check(gcn_loss, gp, {"w1": dw1, "w2": dw2, "nodes": dnodes}, rng))

    f = nn.input_size(d, n)
    lp = {
        "wx": rng.standard_normal((f, 4 * h)) * 0.3,
        "wh": rng.standard_normal((h, 4 * h)) * 0.3,
        "b": rng.standard_normal(4 * h) * 0.1,
        "xs": rng.standard_normal((t_len, f)),
    }
    ph = rng.standard_normal((t_len, h))

    def lstm_loss(p):
        hs, _ = nn.lstm_forward_seq(p["wx"], p["wh"], p["b"], p["xs"])
        return float((hs * ph).sum())

    _, cache = nn.lstm_forward_seq(lp["wx"], lp["wh"], lp["b"], lp["xs"])
    dwx, dwh, db, dz = nn.lstm_backward_seq(cache, ph, lp["wx"], lp["wh"])
    worst = max(worst, fd_check(lstm_loss, lp,
                                {"wx": dwx, "wh": dwh, "b": db, "xs": dz @ lp["wx"].T}, rng))

    graph = KnowledgeGraph(rng.standard_normal((m, n)) * 0.5, edges, "kitchen")
    params = nn.init_params(d, n, hidden=h, seed=5)
    traj = random_trajectory(rng, m, n, d, 3)
    cfg = TrainConfig(gamma=0.9)
    _, grads, stats = a2c_loss_and_grads(params, [traj], graph, cfg)
    adv = stats["advantages"]

    def loss_fn(p):
        l, _, _ = a2c_loss_and_grads(p, [traj], graph, cfg, frozen_advantages=adv)
        return l

    worst = max(worst, fd_check(loss_fn, params, grads, rng, probes_per_array=2))
    return worst < 1e-4, f"worst relative error {worst:.2e}"


CHECKS = (
    ("eq-position-feature", check_position_feature_algebra),
    ("eq-zone-edge", check_zone_and_edge_algebra),
    ("eq-adaptation", check_adaptation_algebra),
    ("planner-vs-enumeration", check_planner),
    ("matching-vs-bruteforce", check_matching),
    ("gradient-finite-difference", check_gradients),
)


def run_selfcheck(emit=print) -> bool:
    all_ok = True
    for name, fn in CHECKS:
        ok, detail = fn()
        all_ok = all_ok and ok
        emit(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return all_ok

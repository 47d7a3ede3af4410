"""Online high-level controller.

Keeps an episode-local copy of the knowledge-graph node features, blends the
current observation feature into the occupied zone's row, selects the target
zone on the untouched base graph, plans the max-edge-product path to it, and
extracts the sub-goal node feature from a two-layer GCN.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .errors import UsageError
from .graph import KnowledgeGraph
from .nn import gcn_forward_seq, normalize_adjacency


class GraphState:
    """Episode-local adapted graph. The base graph and its normalized
    adjacency stay immutable; only the node-feature copy evolves. The
    planner reads only the base edges, so its sub-goals are memoised per
    (current, target) pair for the life of the state."""

    def __init__(self, base: KnowledgeGraph, lam: float = 0.5):
        self.base = base
        self.zone_count = base.zone_count
        self.lam = float(lam)
        self.ahat = normalize_adjacency(base.edges)
        self.adapted = base.nodes.copy()
        self.subgoals: dict[tuple[int, int], int] = {}


def locate_current_zone(state: GraphState, f_obs: np.ndarray) -> int:
    """Nearest adapted node by Euclidean distance; ties go to the lowest id.
    The squared distances are formed in one buffer, the same products and
    sums as `np.sum((adapted - f_obs) ** 2, axis=1)`."""
    d = state.adapted - f_obs
    d *= d
    return int(d.sum(axis=1).argmin())


def adapt_graph(state: GraphState, f_obs: np.ndarray, zone: int) -> None:
    """Blend the observation into one row: row <- lam*f_obs + (1-lam)*row.
    All other rows are untouched and the base graph never changes."""
    if not 0 <= zone < state.zone_count:
        raise UsageError(f"zone {zone} out of range [0, {state.zone_count})")
    state.adapted[zone] = state.lam * f_obs + (1.0 - state.lam) * state.adapted[zone]


def target_zone(state: GraphState, goal_emb: np.ndarray) -> int:
    """Highest-cosine zone on the INITIAL (base) graph; ties to lowest id."""
    nodes = state.base.nodes
    norms = np.linalg.norm(nodes, axis=1)
    gn = np.linalg.norm(goal_emb)
    sims = np.zeros(len(nodes))
    ok = norms > 1e-12
    if gn > 1e-12:
        sims[ok] = (nodes[ok] @ goal_emb) / (norms[ok] * gn)
    return int(np.argmax(sims))


def max_product_path(edges: np.ndarray, start: int, goal: int) -> tuple[list[int], float]:
    """Max edge-product simple path via Dijkstra on -log(e) weights over
    off-diagonal edges with e > 0. Returns ([], 0.0) when unreachable."""
    m = edges.shape[0]
    if start == goal:
        return [start], 1.0
    dist = np.full(m, np.inf)
    prev = np.full(m, -1, dtype=int)
    dist[start] = 0.0
    heap = [(0.0, start)]
    done = np.zeros(m, dtype=bool)
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == goal:
            break
        for v in range(m):
            if v == u or done[v] or edges[u, v] <= 0.0:
                continue
            nd = d - math.log(edges[u, v])
            if nd < dist[v]:
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    if not np.isfinite(dist[goal]):
        return [], 0.0
    path = [goal]
    while path[-1] != start:
        path.append(int(prev[path[-1]]))
    path.reverse()
    prob = 1.0
    for a, b in zip(path, path[1:]):
        prob *= edges[a, b]
    return path, prob


def plan_subgoal(state: GraphState, current: int, target: int) -> int:
    """The zone after `current` on the max edge-product path to `target`:
    `target` itself when the two coincide, `current` when it is unreachable."""
    if not (0 <= current < state.zone_count and 0 <= target < state.zone_count):
        raise UsageError("zone id out of range")
    if current == target:
        return target
    key = (current, target)
    subgoal = state.subgoals.get(key)
    if subgoal is None:
        path, _ = max_product_path(state.base.edges, current, target)
        subgoal = state.subgoals[key] = path[1] if path else current
    return subgoal


def graph_feature(params: dict, state: GraphState, subgoal: int) -> np.ndarray:
    """GCN over (adapted nodes, base edges); returns the sub-goal node's row,
    through the sequence kernel of the update as a one-step sequence."""
    if not 0 <= subgoal < state.zone_count:
        raise UsageError(f"subgoal {subgoal} out of range")
    out, _ = gcn_forward_seq(params["gcn_w1"], params["gcn_w2"], state.adapted[None], state.ahat,
                             [subgoal])
    return out[0]

"""Offline knowledge-graph construction.

A scene graph is built in three stages: sweep every reachable position
through all 24 views and average the detected goal-object embeddings,
cluster the position features into zones with k-means, then compute zone
nodes (member means) and zone-adjacency edge probabilities. Graphs from
different rooms of one category are aligned with an optimal assignment on
node cosine similarity and merged by averaging.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingProvider
from .errors import FormatError, UsageError
from .nn import _choice_index
from .sim import BAND_PITCH, CELL, EPS, HALF_FOV, PITCHES, SEED_MASK, YAWS, Scene, near_geometry
from .categories import GOAL_SET
from .textio import float_row, header_fields, parse_floats, read_text, write_text

log = logging.getLogger(__name__)

DEFAULT_ZONES = 8
DEFAULT_EPS = 0.5  # meters; Manhattan adjacency threshold (one grid step)
_ADJ_TOL = 1e-9
_KMEANS_MAX_ITER = 100
_KMEANS_TOL = 1e-6


@dataclass
class PositionFeatureMap:
    """Per-position mean detection embedding from the exhaustive sweep.
    Positions that detect the same ordered sequence share one row."""

    positions: tuple[tuple[float, float], ...]  # sorted (x, z)
    rows: np.ndarray  # (U, D) one feature per distinct detection sequence
    index: np.ndarray  # (S,) each position's row
    counts: np.ndarray  # (S,) detection counts

    @property
    def features(self) -> np.ndarray:
        """(S, D) each position's feature."""
        return self.rows[self.index]


@dataclass
class ZoneAssignment:
    """Zones of the swept positions. `centers[c]` is the mean feature of the
    positions labelled c, and every zone has members."""

    labels: np.ndarray  # (S,) intp zone id of each position, in positions order
    centers: np.ndarray  # (M, D) member means of labels

    @property
    def zone_count(self) -> int:
        return len(self.centers)


@dataclass
class KnowledgeGraph:
    nodes: np.ndarray  # (M, N)
    edges: np.ndarray  # (M, M), symmetric, diagonal 1, entries in [0, 1]
    room_category: str

    @property
    def zone_count(self) -> int:
        return self.nodes.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.nodes.shape[1]


_YAW_BITS = np.array([1 << y for y in range(len(YAWS))], dtype=np.uint8)
_PITCH_RANK = {pitch: r for r, pitch in enumerate(PITCHES)}


@functools.lru_cache(maxsize=256)  # the lattice offsets have 33 distinct angles
def _yaw_mask(angle: float | None) -> int:
    """Bit y set iff visible_objects' field-of-view test passes at YAWS[y]
    for an object in direction `angle` (None: at every yaw)."""
    return sum(1 << y for y, yaw in enumerate(YAWS)
               if angle is None or abs((angle - yaw + 180.0) % 360.0 - 180.0) <= HALF_FOV + EPS)


def _first_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the equal rows of the 2-D uint8 array `a`. Returns the index of
    each group's first row, groups in order of first appearance, and each
    row's group. A stable sort over the rows, read as 8-byte words, puts each
    group in one block, first row first. (`np.unique` over a void view of
    the rows grows peak RSS at its first call.)"""
    words = np.zeros((len(a), -(-a.shape[1] // 8) * 8), dtype=np.uint8)
    words[:, :a.shape[1]] = a
    words = words.view(np.uint64)
    order = np.lexsort(words.T)
    starts = np.ones(len(a), dtype=bool)
    starts[1:] = (words[order[1:]] != words[order[:-1]]).any(axis=1)
    block = np.cumsum(starts) - 1  # each sorted row's block
    heads = order[starts]  # each block's first row
    by_head = np.argsort(heads, kind="stable")
    rank = np.empty(len(heads), dtype=np.intp)
    rank[by_head] = np.arange(len(heads))
    index = np.empty(len(a), dtype=np.intp)
    index[order] = rank[block]
    return heads[by_head], index


def sweep_position_features(scene: Scene, provider: EmbeddingProvider) -> PositionFeatureMap:
    """Enumerate all 8 yaw x 3 pitch views at every reachable position and
    average the embeddings of the goal-category detections.

    The views run in visible_objects' order and with its field-of-view
    test, so a position's feature is fixed by the ordered sequence of
    categories it detects. One `near_geometry` pass gives every position a
    yaw mask per goal object and from them its sequence; each distinct
    sequence is summed once, from zeros and in that order, and every
    position with it shares the feature row."""
    ix, iz = np.nonzero(scene.reachable.T)  # sorted (x, z) order
    x, z = ix * CELL, iz * CELL
    near, _, angle, angles = near_geometry(scene, x, z)
    # goal objects in visible_objects' order within a view: by pitch band,
    # then in object order
    cols = sorted((k for k, o in enumerate(scene.objects) if o.category in GOAL_SET),
                  key=lambda k: _PITCH_RANK[BAND_PITCH[scene.objects[k].height_band]])
    codes: dict[str, int] = {}  # category -> its code in a sequence
    col_codes = [codes.setdefault(scene.objects[k].category, len(codes)) for k in cols]
    # an angle index of -1, not near, reads the appended 0
    yaw_masks = np.array([_yaw_mask(a) for a in angles] + [0], dtype=np.uint8)
    masks = yaw_masks[angle[:, cols]]
    # i * 8G + y * G + g for each goal object g that position i detects at
    # YAWS[y]: in order, each position's detections in visible_objects' order
    seen = np.flatnonzero((masks[:, None, :] & _YAW_BITS[:, None]) != 0)
    at, j = np.divmod(seen, len(YAWS) * len(cols))
    counts = np.bincount(at, minlength=len(ix))
    # each position's sequence of codes, padded past the longest with the
    # code of a zero vector
    pad = len(codes)
    steps = np.full((len(ix), counts.max(initial=0) + 1), pad, dtype=np.uint8)
    steps[at, np.arange(len(at)) - (np.cumsum(counts) - counts)[at]] = \
        np.tile(np.array(col_codes, dtype=np.uint8), len(YAWS))[j]
    first, index = _first_rows(steps)
    seqs = steps[first]
    vecs = np.zeros((pad + 1, provider.dim))
    used = np.bincount(seqs.ravel(), minlength=pad + 1)
    for category, code in codes.items():
        if used[code]:
            vecs[code] = provider.object_embedding(category)
    # adding the pad's +0.0 leaves a sum that started from +0.0 as it was
    totals = np.zeros((len(seqs), provider.dim))
    for step in seqs.T[:-1].astype(np.intp):
        totals += vecs[step]
    rows = totals / np.maximum(counts[first], 1)[:, None]
    return PositionFeatureMap(tuple(zip(x.tolist(), z.tolist())), rows, index, counts)


def _kmeans_pp_init(ux: np.ndarray, inverse: np.ndarray, m: int,
                    rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding of the points ux[inverse]. Stops early when every
    point coincides with a chosen center, so the center count never exceeds
    the number of distinct feature values."""
    centers = [ux[inverse[int(rng.integers(len(inverse)))]]]
    d2 = np.sum((ux - centers[0]) ** 2, axis=1)
    while len(centers) < m:
        point_d2 = d2[inverse]
        total = point_d2.sum()
        if total <= 0:
            break
        centers.append(ux[inverse[_choice_index(rng, point_d2 / total)]])
        d2 = np.minimum(d2, np.sum((ux - centers[-1]) ** 2, axis=1))
    return np.array(centers)


def _nearest(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # argmin returns the first (lowest id) center on exact ties
    d2 = np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    return np.argmin(d2, axis=1)


def _member_means(x: np.ndarray, labels: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ids of the clusters among 0..k-1 that have members, and each
    one's member mean. One stable sort puts every cluster's members in a
    contiguous block in position order, so each block's mean is
    `x[labels == c].mean(axis=0)` bit for bit: the same sum over axis 0,
    divided by the member count, without `np.mean`'s Python wrapper."""
    counts = np.bincount(labels, minlength=k)
    keep = np.flatnonzero(counts)
    ends = np.cumsum(counts[keep]).tolist()
    grouped = x[np.argsort(labels, kind="stable")]
    means = np.array([np.add.reduce(grouped[start:end], axis=0) / (end - start)
                      for start, end in zip([0] + ends[:-1], ends)])
    return keep, means


def cluster_zones(feature_map: PositionFeatureMap, zones: int, seed: int) -> ZoneAssignment:
    """Deterministic k-means with k-means++ seeding. Clusters that lose all
    members are dropped, shrinking the effective zone count."""
    if len(feature_map.positions) == 0:
        raise UsageError("cannot cluster an empty feature map")
    if zones < 1:
        raise UsageError("zone count must be >= 1")
    # distances are taken once per row of the map (most positions share a
    # row); the draws, the labels and the means go over every position.
    # Two rows may hold equal values, which then get equal distances
    ux, inverse = feature_map.rows, feature_map.index
    x = feature_map.features
    rng = np.random.default_rng(seed & SEED_MASK)
    centers = _kmeans_pp_init(ux, inverse, zones, rng)
    if len(centers) < zones:
        log.info("k-means++ produced %d centers for requested %d (duplicate features)",
                 len(centers), zones)

    labels = None
    for _ in range(_KMEANS_MAX_ITER):
        previous, labels = labels, _nearest(ux, centers)[inverse]
        if previous is not None and np.array_equal(labels, previous):
            break  # the centers already are these labels' member means
        keep, new_centers = _member_means(x, labels, len(centers))
        if len(keep) < len(centers):
            log.info("dropping %d empty cluster(s)", len(centers) - len(keep))
            relabel = np.empty(len(centers), dtype=labels.dtype)
            relabel[keep] = np.arange(len(keep))
            labels = relabel[labels]
            centers = new_centers
            continue
        movement = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        centers = new_centers
        if movement < _KMEANS_TOL:
            break
    # centers are exactly the member means of `labels` at this point
    return ZoneAssignment(labels, centers)


def build_room_graph(assignment: ZoneAssignment, feature_map: PositionFeatureMap,
                     eps: float = DEFAULT_EPS, room_category: str = "") -> KnowledgeGraph:
    """Zone node = mean member feature, which is the assignment's center;
    edge (m, n) = fraction of cross-zone position pairs within Manhattan
    distance eps; diagonal fixed at 1.

    The positions must be distinct points of the 0.5 m lattice, as the
    sweep's are. Two of them lie within eps iff their offset of (a, b)
    cells has CELL * |a| + CELL * |b| <= eps, the same float comparison as
    on their coordinates, so the pairs are counted one offset at a time."""
    m, labels = assignment.zone_count, assignment.labels
    sizes = np.bincount(labels, minlength=m)
    if not sizes.all():
        raise UsageError("assignment has empty zones")
    pos = np.array(feature_map.positions, dtype=float).reshape(-1, 2)
    cells = np.rint(pos / CELL)
    if not np.array_equal(cells * CELL, pos):
        raise UsageError("positions must lie on the 0.5 m lattice")
    cells = (cells - cells.min(axis=0)).astype(np.intp)
    width, depth = cells.max(axis=0) + 1
    steps_x = np.abs(np.arange(1 - width, width))
    steps_z = np.abs(np.arange(1 - depth, depth))
    offsets = np.argwhere(CELL * steps_x[:, None] + CELL * steps_z <= eps + _ADJ_TOL) - (
        width - 1, depth - 1)
    # the label of the position in each cell of a grid padded by the longest
    # offset, m where there is none; hits[i * (m + 1) + j] counts the
    # ordered pairs of a member of zone i and a member of zone j within eps
    reach = np.abs(offsets).max(axis=0, initial=0)
    grid = np.full((width + 2 * reach[0], depth + 2 * reach[1]), m, dtype=np.intp)
    flat = grid.reshape(-1)
    at = (cells + reach) @ (grid.shape[1], 1)  # each position's index in flat
    flat[at] = labels
    if np.count_nonzero(flat < m) < len(labels):
        raise UsageError("positions must be distinct")
    hits = np.zeros(m * (m + 1), dtype=np.intp)
    pairs = labels * (m + 1)
    for shift in (offsets @ (grid.shape[1], 1)).tolist():
        hits += np.bincount(pairs + flat[at + shift], minlength=m * (m + 1))
    edges = hits.reshape(m, m + 1)[:, :m] / np.outer(sizes, sizes)
    np.fill_diagonal(edges, 1.0)
    return KnowledgeGraph(nodes=assignment.centers, edges=edges, room_category=room_category)


def build_scene_graph(scene: Scene, provider: EmbeddingProvider, zones: int = DEFAULT_ZONES,
                      eps: float = DEFAULT_EPS, seed: int = 0) -> KnowledgeGraph:
    """Full sweep -> cluster -> graph pipeline for one scene."""
    fmap = sweep_position_features(scene, provider)
    za = cluster_zones(fmap, zones, seed)
    return build_room_graph(za, fmap, eps=eps, room_category=scene.room_category)


def _cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    denom = np.outer(na, nb)
    sim = a @ b.T
    with np.errstate(invalid="ignore", divide="ignore"):
        sim = np.where(denom > 1e-12, sim / np.where(denom > 1e-12, denom, 1.0), 0.0)
    return sim


def match_graphs(ga: KnowledgeGraph, gb: KnowledgeGraph) -> np.ndarray:
    """Permutation pi maximizing sum_m cos(nodes_a[m], nodes_b[pi[m]]).
    Exact ties against the identity resolve to the identity."""
    if ga.zone_count != gb.zone_count:
        raise UsageError(f"zone counts differ: {ga.zone_count} vs {gb.zone_count}")
    # imported here, not at module level: scipy.optimize costs ~0.3 s and
    # ~45 MB of RSS to import, and only the merge and the selfcheck match
    from scipy.optimize import linear_sum_assignment

    sim = _cosine_matrix(ga.nodes, gb.nodes)
    rows, cols = linear_sum_assignment(sim, maximize=True)
    perm = np.empty(ga.zone_count, dtype=int)
    perm[rows] = cols
    best = float(sum(sim[m, perm[m]] for m in range(ga.zone_count)))
    ident = float(sum(sim[m, m] for m in range(ga.zone_count)))
    if ident >= best - 1e-12:
        return np.arange(ga.zone_count)
    return perm


def matching_objective(ga: KnowledgeGraph, gb: KnowledgeGraph, perm: np.ndarray) -> float:
    sim = _cosine_matrix(ga.nodes, gb.nodes)
    return float(sum(sim[m, perm[m]] for m in range(ga.zone_count)))


def merge_graphs(graphs: list[KnowledgeGraph]) -> KnowledgeGraph:
    """Align every graph to the first and average nodes and edges."""
    if not graphs:
        raise UsageError("merge_graphs needs at least one graph")
    rooms = {g.room_category for g in graphs}
    if len(rooms) > 1:
        raise UsageError(f"cannot merge graphs of mixed room categories: {sorted(rooms)}")
    base = graphs[0]
    nodes = base.nodes.copy()
    edges = base.edges.copy()
    for g in graphs[1:]:
        perm = match_graphs(base, g)
        nodes += g.nodes[perm]
        edges += g.edges[np.ix_(perm, perm)]
    n = len(graphs)
    return KnowledgeGraph(nodes / n, edges / n, base.room_category)


# ---------------------------------------------------------------------------
# Graph file format (kg-v1)


def graph_to_text(graph: KnowledgeGraph) -> str:
    m, n = graph.nodes.shape
    lines = [f"kg-v1 M={m} N={n} room={graph.room_category}"]
    # float_row's reprs, one .tolist() per matrix
    lines.extend(" ".join(map(repr, row)) for row in graph.nodes.tolist())
    lines.extend(" ".join(map(repr, row)) for row in graph.edges.tolist())
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> KnowledgeGraph:
    lines = text.splitlines()
    fields = header_fields(lines, "kg-v1")
    try:
        m, n = int(fields["M"]), int(fields["N"])
        room = fields["room"]
    except (KeyError, ValueError):
        raise FormatError("line 1: header must carry M=<int> N=<int> room=<cat>") from None
    if m < 1 or n < 1:
        raise FormatError(f"line 1: M and N must be >= 1, got M={m} N={n}")
    if len(lines) < 1 + 2 * m:
        raise FormatError(f"expected {2 * m} matrix rows, file has {len(lines) - 1}")
    for i in range(1 + 2 * m, len(lines)):
        if lines[i].strip():
            raise FormatError(f"line {i + 1}: unexpected content after the {2 * m} matrix rows")
    nodes = np.array([parse_floats(lines[i].split(), i + 1, n) for i in range(1, 1 + m)])
    edges = np.array([parse_floats(lines[i].split(), i + 1, m) for i in range(1 + m, 1 + 2 * m)])
    validate_edges(edges)
    return KnowledgeGraph(nodes, edges, room)


def validate_edges(edges: np.ndarray) -> None:
    """Raise FormatError unless a square matrix of finite floats keeps
    kg-v1's edge rules: symmetric, diagonal 1, entries in [0, 1]."""
    if (not np.allclose(edges, edges.T) or not np.allclose(np.diag(edges), 1.0)
            or edges.min() < -1e-12 or edges.max() > 1.0 + 1e-12):
        raise FormatError("edge matrix violates symmetry / diagonal / [0,1] bounds")


def save_graph(graph: KnowledgeGraph, path) -> None:
    write_text(path, graph_to_text(graph))


def load_graph(path) -> KnowledgeGraph:
    return graph_from_text(read_text(path))

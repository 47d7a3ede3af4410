"""Shared continuous embedding space for object categories and observations.

Category vectors and the spatial image grid live in one unit-norm space, so
a grid cell containing only category c has cosine 1 with c's vector. The
synthetic mode derives each category vector from a hash of (seed, name),
which makes lookups stable across runs and machines; the file mode serves
externally precomputed vectors.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .categories import GOAL_SET
from .errors import FormatError, UnknownCategoryError
from .sim import HALF_FOV, VIS_RANGE, Observation
from .textio import float_row, header_fields, parse_floats, read_text, write_text

DEFAULT_DIM = 64
DEFAULT_GRID = 7
_NORM_TOL = 1e-9  # rows this close to unit norm are kept verbatim on load


def _synthetic_vector(seed: int, category: str, dim: int) -> np.ndarray:
    digest = hashlib.sha256(f"{seed}\x1f{category}".encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    v = rng.standard_normal(dim)
    n = np.linalg.norm(v)
    if n < 1e-12:
        v = np.zeros(dim)
        v[0] = 1.0
        return v
    return v / n


class EmbeddingProvider:
    """Immutable category -> unit vector table; all lookups deterministic.

    The table holds what was loaded, and only it is written out. Synthetic
    vectors are derived on first lookup and kept in a separate memo."""

    def __init__(self, dim: int, mode: str, seed: int | None = None,
                 table: dict[str, np.ndarray] | None = None):
        if mode not in ("synthetic", "file"):
            raise ValueError(f"unknown provider mode {mode!r}")
        self.dim = int(dim)
        self.mode = mode
        self.seed = seed
        self._table: dict[str, np.ndarray] = dict(table or {})
        self._memo: dict[str, np.ndarray] = dict(self._table)  # the table plus synthetic lookups

    @classmethod
    def synthetic(cls, dim: int = DEFAULT_DIM, seed: int = 0) -> "EmbeddingProvider":
        return cls(dim=dim, mode="synthetic", seed=seed)

    def object_embedding(self, category: str) -> np.ndarray:
        vec = self._memo.get(category)
        if vec is None:
            if self.mode == "file":
                raise UnknownCategoryError(f"category {category!r} not in embedding table")
            vec = self._memo[category] = _synthetic_vector(self.seed or 0, category, self.dim)
        return vec

    def known_categories(self) -> tuple[str, ...]:
        return tuple(sorted(self._table))


def _grid_cell(s, g: int) -> tuple[int, int]:
    """(row, col) of a sighting: the column bins bearing over [-45, +45],
    the row bins distance over [0, 1.5], both clamped to the grid."""
    col = int((s.bearing + HALF_FOV) / (2 * HALF_FOV) * g)
    row = int(s.distance / VIS_RANGE * g)
    return min(max(row, 0), g - 1), min(max(col, 0), g - 1)


def _unit_mean(total: np.ndarray, count) -> np.ndarray:
    cell = total / count
    n = np.linalg.norm(cell)
    # keep already-unit means verbatim so idempotent cases stay exact
    if n > 1e-12 and abs(n - 1.0) > 1e-12:
        cell = cell / n
    return cell


def pooled_image_feature(provider: EmbeddingProvider, observation: Observation,
                         grid: int = DEFAULT_GRID) -> np.ndarray:
    """The mean over the cells of a G x G grid into which the visible
    objects are splatted, without building the grid.

    A sighting's column bins its bearing over [-45, +45] and its row bins
    its distance over [0, 1.5]. A cell holding several objects averages
    their embeddings and renormalizes; empty cells are exact zeros. The
    occupied cells are summed in row-major order and the sum divided by
    G*G, which is the order and the arithmetic of the grid mean, so the
    result is bitwise that mean.
    """
    g = int(grid)
    cells: dict[tuple[int, int], list] = {}
    for s in observation.visible:
        key = _grid_cell(s, g)
        emb = provider.object_embedding(s.category)
        acc = cells.get(key)
        if acc is None:
            cells[key] = [emb.copy(), 1]
        else:
            acc[0] += emb
            acc[1] += 1
    total = np.zeros(provider.dim)
    for key in sorted(cells):
        total += _unit_mean(*cells[key])
    return total / (g * g)


def observation_feature(provider: EmbeddingProvider, observation: Observation) -> np.ndarray:
    """Mean embedding of the goal-category detections in one view; zero when
    nothing is detected. Single-view analog of the sweep feature."""
    total = np.zeros(provider.dim)
    n = 0
    for s in observation.visible:
        if s.category in GOAL_SET:
            total += provider.object_embedding(s.category)
            n += 1
    return total / n if n else total


# ---------------------------------------------------------------------------
# Embedding file format (embeddings-v1)


def embeddings_to_text(provider: EmbeddingProvider, categories=None) -> str:
    cats = sorted(categories) if categories is not None else list(provider.known_categories())
    lines = [f"embeddings-v1 D={provider.dim}"]
    for cat in cats:
        lines.append(cat + " " + float_row(provider.object_embedding(cat)))
    return "\n".join(lines) + "\n"


def save_embeddings(provider: EmbeddingProvider, path, categories=None) -> None:
    write_text(path, embeddings_to_text(provider, categories))


def embeddings_from_text(text: str) -> EmbeddingProvider:
    lines = text.splitlines()
    try:
        dim = int(header_fields(lines, "embeddings-v1")["D"])
    except (KeyError, ValueError):
        raise FormatError("line 1: missing or bad D=<int>") from None
    if dim < 1:
        raise FormatError(f"line 1: D must be >= 1, got D={dim}")
    table: dict[str, np.ndarray] = {}
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cat, *parts = line.split()
        if cat in table:
            raise FormatError(f"line {i}: duplicate category {cat!r}")
        vec = parse_floats(parts, i, dim)
        n = np.linalg.norm(vec)
        if n < 1e-12:
            raise FormatError(f"line {i}: zero vector cannot be normalized")
        if abs(n - 1.0) > _NORM_TOL:
            vec = vec / n
        table[cat] = vec
    return EmbeddingProvider(dim=dim, mode="file", table=table)


def load_embeddings(path) -> EmbeddingProvider:
    return embeddings_from_text(read_text(path))

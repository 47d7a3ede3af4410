"""Deterministic gridworld simulator.

The world is a W x D lattice of 0.5 m cells. The agent occupies a cell,
faces one of eight 45-degree headings and one of three 30-degree pitch
levels. Objects sit on cells (several may stack on one cell at different
height bands); a cell holding objects is not walkable. An episode ends
when the agent issues Done (success iff the goal category is visible
within 1.5 m at that moment) or when the step budget runs out.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import IntEnum
from importlib import resources

import numpy as np

from .categories import GOAL_SET, ROOM_CATEGORIES
from .errors import ConfigError, FormatError, GenerationError, UnreachableGoalError, UsageError
from .textio import float_row, parse_floats, read_text, write_text

CELL = 0.5  # meters per lattice step
VIS_RANGE = 1.5  # meters; success / visibility threshold
VIS_RANGE_SQ = VIS_RANGE * VIS_RANGE
HALF_FOV = 45.0  # degrees either side of the heading
EPS = 1e-9

YAWS = (0, 45, 90, 135, 180, 225, 270, 315)
PITCHES = (-30, 0, 30)
BAND_PITCH = {"low": -30, "mid": 0, "high": 30}

# Displacement of one MoveAhead per heading, exact lattice steps.
# Diagonal headings advance one cell on both axes (0.707 m traveled).
HEADING = {
    0: (0.0, CELL),
    45: (CELL, CELL),
    90: (CELL, 0.0),
    135: (CELL, -CELL),
    180: (0.0, -CELL),
    225: (-CELL, -CELL),
    270: (-CELL, 0.0),
    315: (-CELL, CELL),
}

DEFAULT_T_MAX = 100

SEED_MASK = (1 << 64) - 1  # seeds enter numpy as unsigned 64-bit integers


class Action(IntEnum):
    MOVE_AHEAD = 0
    ROTATE_LEFT = 1
    ROTATE_RIGHT = 2
    LOOK_DOWN = 3
    LOOK_UP = 4
    DONE = 5


NUM_ACTIONS = len(Action)


@dataclass(frozen=True)
class Pose:
    x: float  # meters, multiple of 0.5
    z: float  # meters, multiple of 0.5
    yaw: int  # degrees in YAWS
    pitch: int  # degrees in PITCHES


@dataclass(frozen=True)
class ObjectInstance:
    category: str
    x: float
    z: float
    height_band: str  # low / mid / high


@dataclass(frozen=True)
class Sighting:
    category: str
    bearing: float  # degrees relative to heading, |bearing| <= HALF_FOV
    distance: float  # meters, <= VIS_RANGE


@dataclass(frozen=True)
class Observation:
    visible: tuple[Sighting, ...]


@dataclass
class Scene:
    """Immutable after construction.

    `near_objects` memoises, per position asked about, the objects within
    1.5 m and their geometry, which `near_geometry` computes; `success_board`
    memoises, per goal, the boards that `shortest_path_length` floods. The
    memos are exact because a scene's cells and objects never change; they
    stay out of repr and equality, and a scene made by `dataclasses.replace`
    starts with empty ones.
    """

    id: str
    room_category: str
    width: int  # cells along x
    depth: int  # cells along z
    reachable: np.ndarray  # bool, shape (depth, width), indexed [iz, ix]
    objects: tuple[ObjectInstance, ...]
    seed: int
    _near: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _success: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _xz: np.ndarray = field(init=False, repr=False, compare=False)  # (K, 2) object positions

    def __post_init__(self):
        self.reachable = np.asarray(self.reachable, dtype=bool)
        self.reachable.setflags(write=False)
        self.objects = tuple(self.objects)
        self._xz = np.array([(o.x, o.z) for o in self.objects], dtype=float).reshape(-1, 2)

    def near_objects(self, x: float, z: float) -> tuple[tuple[str, int, float | None, float], ...]:
        """(category, band pitch, angle, distance) of every object within
        1.5 m of (x, z), in object order. The angle is as `near_geometry`
        gives it: None for an object on the position's own cell. A -0.0
        coordinate shares its memo key with 0.0, so both get the answer for
        0.0, whichever is asked first."""
        near = self._near.get((x, z))
        if near is None:
            inside, d2, angle, angles = near_geometry(self, np.array([x + 0.0]),
                                                      np.array([z + 0.0]))
            ks = np.flatnonzero(inside[0])
            near = self._near[(x, z)] = tuple(
                (self.objects[k].category, BAND_PITCH[self.objects[k].height_band], angles[a],
                 math.sqrt(d))
                for k, a, d in zip(ks.tolist(), angle[0, ks].tolist(), d2[0, ks].tolist()))
        return near

    def success_board(self, goal: str) -> tuple[int, int, int]:
        """The board of the reachable cells (see `_bitboard`), its stride,
        and the board of the reachable cells from which some pose satisfies
        the success predicate for `goal`. Rotation and pitch are free, and
        the 8 yaw sectors cover all bearings, so a cell qualifies iff it is
        within 1.5 m of some goal instance: one `near_geometry` pass over
        every cell gives them all."""
        boards = self._success.get(goal)
        if boards is None:
            goal_ks = [k for k, o in enumerate(self.objects) if o.category == goal]
            if not goal_ks:
                raise ConfigError(f"goal {goal!r} not present in scene {self.id!r}")
            iz, ix = np.indices(self.reachable.shape).reshape(2, -1)
            near = near_geometry(self, ix * CELL, iz * CELL)[0]
            success = near[:, goal_ks].any(axis=1).reshape(self.reachable.shape) & self.reachable
            cells, stride = _bitboard(self.reachable)
            boards = self._success[goal] = (cells, stride, _bitboard(success)[0])
        return boards

    def cell_of(self, x: float, z: float) -> tuple[int, int]:
        return int(round(x / CELL)), int(round(z / CELL))

    def in_bounds(self, ix: int, iz: int) -> bool:
        return 0 <= ix < self.width and 0 <= iz < self.depth

    def is_reachable(self, x: float, z: float) -> bool:
        ix, iz = self.cell_of(x, z)
        return self.in_bounds(ix, iz) and bool(self.reachable[iz, ix])

    def reachable_cells(self) -> list[tuple[int, int]]:
        """Cells (ix, iz) in deterministic scan order."""
        return [(ix, iz) for iz, row in enumerate(self.reachable.tolist())
                for ix, free in enumerate(row) if free]

    def categories_present(self) -> set[str]:
        return {o.category for o in self.objects}

    def goal_categories_present(self) -> set[str]:
        return {o.category for o in self.objects if o.category in GOAL_SET}


def _angle(dx: float, dz: float) -> float | None:
    """The direction of an offset in degrees, from +z toward +x as yaw
    turns; None for an offset within EPS of zero, which any yaw sees."""
    return None if dx * dx + dz * dz <= EPS * EPS else math.degrees(math.atan2(dx, dz))


# The angle of each offset of (a, b) cells with |a|, |b| <= _REACH, at index
# (a + _REACH) * _SPAN + b + _REACH: every offset between two lattice points
# within VIS_RANGE of each other. math.atan2, which np.arctan2 is 1 ulp off
# at 4 of these offsets, runs once per offset.
_REACH = int(VIS_RANGE / CELL)
_SPAN = 2 * _REACH + 1
_LATTICE_ANGLES = [_angle(a * CELL, b * CELL)
                   for a in range(-_REACH, _REACH + 1) for b in range(-_REACH, _REACH + 1)]


def _lattice_keys(x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ix * _SPAN + iz of each point's nearest cell (ix, iz), as floats, and
    whether the point is exactly that cell's corner with no sign bit set: a
    -0.0 coordinate can give an offset of -0.0, whose angle the table lacks."""
    ix, iz = np.rint(x / CELL), np.rint(z / CELL)
    exact = (ix * CELL == x) & (iz * CELL == z) & ~(np.signbit(x) | np.signbit(z))
    return ix * _SPAN + iz, exact


def near_geometry(scene: Scene, x: np.ndarray, z: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[float | None]]:
    """The visibility geometry of the points (x[p], z[p]) against every
    object k of the scene, all at once. Returns `near` (P, K), whether the
    object lies within 1.5 m; `d2` (P, K), the squared distance; `angle`
    (P, K), where near, the index in the returned list `angles` of the
    object's direction (see `_angle`), and -1 elsewhere.

    An offset between two exact lattice points takes its angle from a
    table; any other offset gets an entry of its own in `angles`."""
    ox, oz = scene._xz.T
    dx = ox - x[:, None]
    dz = oz - z[:, None]
    d2 = dx * dx + dz * dz
    near = d2 <= VIS_RANGE_SQ + EPS
    point_key, on_point = _lattice_keys(x, z)
    object_key, on_object = _lattice_keys(ox, oz)
    # cast once masked, so that a point far off the grid casts no huge key
    angle = np.where(near, object_key - point_key[:, None] + _REACH * _SPAN + _REACH,
                     -1).astype(np.intp)
    angles = _LATTICE_ANGLES
    if not (on_point.all() and on_object.all()):
        rows, cols = np.nonzero(near & ~(on_point[:, None] & on_object))
        angles = angles + [_angle(a, b) for a, b in zip(dx[rows, cols].tolist(),
                                                          dz[rows, cols].tolist())]
        angle[rows, cols] = np.arange(len(_LATTICE_ANGLES), len(angles))
    return near, d2, angle, angles


@dataclass
class EpisodeState:
    """Single-owner mutable episode record."""

    scene: Scene
    goal: str
    pose: Pose
    step_count: int = 0
    t_max: int = DEFAULT_T_MAX
    terminated: bool = False
    success: bool = False
    traveled: float = 0.0  # meters actually moved


def visible_objects(scene: Scene, pose: Pose) -> Observation:
    """Objects within 1.5 m, inside the +-45 deg horizontal field of view,
    whose height band matches the camera pitch."""
    seen = []
    for category, pitch, ang, distance in scene.near_objects(pose.x, pose.z):
        if pitch != pose.pitch:
            continue
        if ang is None:
            bearing = 0.0
        else:
            bearing = (ang - pose.yaw + 180.0) % 360.0 - 180.0
            if abs(bearing) > HALF_FOV + EPS:
                continue
        seen.append(Sighting(category, bearing, distance))
    return Observation(visible=tuple(seen))


def goal_visible(scene: Scene, pose: Pose, goal: str) -> bool:
    return any(s.category == goal for s in visible_objects(scene, pose).visible)


def step(state: EpisodeState, action: int) -> str:
    """Advance one action, an Action or its integer value, and return its
    event tag. Any other value raises ValueError.

    Events: moved, blocked, rotated, looked, clamped, success, failed_done,
    timeout. Done evaluated before the step cap, so a successful Done on the
    final step still succeeds.
    """
    if state.terminated:
        raise UsageError("step() on a terminated episode")
    pose = state.pose
    action = Action(action)
    event = "moved"
    if action == Action.MOVE_AHEAD:
        dx, dz = HEADING[pose.yaw]
        nx, nz = pose.x + dx, pose.z + dz
        if state.scene.is_reachable(nx, nz):
            pose = Pose(nx, nz, pose.yaw, pose.pitch)
            state.traveled += math.hypot(dx, dz)
        else:
            event = "blocked"
    elif action == Action.ROTATE_LEFT:
        pose = Pose(pose.x, pose.z, (pose.yaw - 45) % 360, pose.pitch)
        event = "rotated"
    elif action == Action.ROTATE_RIGHT:
        pose = Pose(pose.x, pose.z, (pose.yaw + 45) % 360, pose.pitch)
        event = "rotated"
    elif action == Action.LOOK_DOWN:
        np_ = max(PITCHES[0], pose.pitch - 30)
        event = "clamped" if np_ == pose.pitch else "looked"
        pose = Pose(pose.x, pose.z, pose.yaw, np_)
    elif action == Action.LOOK_UP:
        np_ = min(PITCHES[-1], pose.pitch + 30)
        event = "clamped" if np_ == pose.pitch else "looked"
        pose = Pose(pose.x, pose.z, pose.yaw, np_)
    elif action == Action.DONE:
        state.terminated = True
        state.success = goal_visible(state.scene, pose, state.goal)
        event = "success" if state.success else "failed_done"

    state.pose = pose
    state.step_count += 1
    if not state.terminated and state.step_count >= state.t_max:
        state.terminated = True
        state.success = False
        event = "timeout"
    return event


def reset_episode(scene: Scene, goal: str, seed: int, t_max: int = DEFAULT_T_MAX) -> EpisodeState:
    """Uniform start over reachable cells x 8 yaws, pitch level."""
    if goal not in scene.categories_present():
        raise ConfigError(f"goal {goal!r} not present in scene {scene.id!r}")
    rng = np.random.default_rng(seed & SEED_MASK)
    cells = scene.reachable_cells()
    if not cells:
        raise ConfigError(f"scene {scene.id!r} has no reachable cells")
    ix, iz = cells[int(rng.integers(len(cells)))]
    yaw = YAWS[int(rng.integers(len(YAWS)))]
    pose = Pose(ix * CELL, iz * CELL, yaw, 0)
    return EpisodeState(scene=scene, goal=goal, pose=pose, t_max=t_max)


def shortest_path_length(scene: Scene, pose: Pose, goal: str) -> float:
    """Geodesic meters (4-neighborhood, 0.5 m per hop) from the agent cell to
    the nearest cell satisfying the success predicate. Rotation cost ignored.

    One flood grows from the agent's cell through the reachable cells, a hop
    a round, until it meets the goal's success board; an agent cell that is
    not reachable still floods into its reachable neighbours. A pose whose
    cell lies outside the scene raises UsageError."""
    cells, stride, targets = scene.success_board(goal)
    ix, iz = scene.cell_of(pose.x, pose.z)
    if not scene.in_bounds(ix, iz):
        raise UsageError(f"pose ({pose.x}, {pose.z}) lies outside scene {scene.id!r}")
    flood, hops = 1 << (iz * stride + ix), 0
    while not flood & targets:
        grown = _grow(flood, stride) & cells
        if grown == flood:
            raise UnreachableGoalError(f"no reachable success cell for {goal!r} in {scene.id!r}")
        flood, hops = grown, hops + 1
    return hops * CELL


# ---------------------------------------------------------------------------
# Procedural generation


@dataclass(frozen=True)
class ZoneTemplate:
    room: str
    name: str
    items: tuple[tuple[str, str], ...]  # (category, band)

    def goal_count(self) -> int:
        return sum(1 for cat, _ in self.items if cat in GOAL_SET)


@functools.cache
def _load_templates() -> dict[str, list[ZoneTemplate]]:
    text = resources.files("zonegraph.data").joinpath("room_zones.txt").read_text()
    out: dict[str, list[ZoneTemplate]] = {r: [] for r in ROOM_CATEGORIES}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "zone" or len(parts) < 4:
            raise FormatError(f"room_zones.txt line {ln}: expected 'zone <room> <name> <items...>'")
        room, name = parts[1], parts[2]
        if room not in out:
            raise FormatError(f"room_zones.txt line {ln}: unknown room category {room!r}")
        items = []
        for spec in parts[3:]:
            cat, _, band = spec.partition(":")
            if band not in BAND_PITCH:
                raise FormatError(f"room_zones.txt line {ln}: bad band in {spec!r}")
            items.append((cat, band))
        out[room].append(ZoneTemplate(room, name, tuple(items)))
    return out


def _bitboard(reach: np.ndarray) -> tuple[int, int]:
    """The true cells of a (depth, width) bitmap as one Python int, and the
    stride of its rows: cell (iz, ix) is bit iz * stride + ix, and stride is
    width + 1. The bit after each row stays clear, a guard column, so that a
    shift by one never carries a cell from one row's end to the next row's
    start."""
    depth, width = reach.shape
    board = np.zeros((depth, width + 1), dtype=bool)
    board[:, :width] = reach
    return int.from_bytes(np.packbits(board, bitorder="little").tobytes(), "little"), width + 1


def _grow(bits: int, stride: int) -> int:
    """The set bits of a board and their four neighbours: one round of a
    flood. A neighbour off the grid lands on a guard bit or outside the
    board, so masking the result with a board of cells drops it."""
    return bits | bits << 1 | bits >> 1 | bits << stride | bits >> stride


def _connected(cells: int, stride: int) -> bool:
    """Whether the set bits of a board (see `_bitboard`) form one
    4-connected component; an empty board does not. One flood grows from the
    lowest set bit, every cell of its front at once, until it stops."""
    if not cells:
        return False
    flood = cells & -cells
    while True:
        grown = _grow(flood, stride) & cells
        if grown == flood:
            return flood == cells
        flood = grown


def _can_block(board: int, stride: int, cell: int, blocked: list[int], min_free: int) -> bool:
    """Whether board cell `cell` can take an object: the free cells left stay
    one component of at least `min_free`, and it and every cell of
    `blocked` keep a free neighbour."""
    trial = board & ~(1 << cell)
    return (trial != board and trial.bit_count() >= min_free
            and all(trial & _grow(1 << c, stride) for c in (*blocked, cell))
            and _connected(trial, stride))


def generate_scene(room_category: str, size: tuple[int, int], seed: int) -> Scene:
    """Deterministic procedural scene: 2-4 functional zones of co-occurring
    objects on blocked cells, one connected walkable component, >=4 goal
    objects."""
    if room_category not in ROOM_CATEGORIES:
        raise ConfigError(f"unknown room category {room_category!r}")
    width, depth = size
    if width < 4 or depth < 4:
        raise GenerationError(f"scene size {width}x{depth} too small to host 4 goal objects")
    templates = _load_templates()[room_category]
    rng = np.random.default_rng(seed & SEED_MASK)
    min_free = max(4, (width * depth) // 2)

    for _ in range(32):  # rare geometric dead ends: redraw
        n_zones = int(rng.integers(2, min(4, len(templates)) + 1))
        order = rng.permutation(len(templates))
        chosen = [templates[i] for i in order[:n_zones]]
        k = n_zones
        while sum(t.goal_count() for t in chosen) < 4 and k < len(templates):
            chosen.append(templates[order[k]])
            k += 1
        if sum(t.goal_count() for t in chosen) < 4:
            continue

        reach = np.ones((depth, width), dtype=bool)
        board, stride = _bitboard(reach)
        anchors = [divmod(int(i), width) for i in
                   rng.choice(depth * width, size=len(chosen), replace=False)]

        blocked: list[int] = []  # board cells of the objects placed so far
        objects: list[ObjectInstance] = []
        ok = True
        for tpl, (aiz, aix) in zip(chosen, anchors):
            want = min(3, max(1, (len(tpl.items) + 2) // 3))
            # the cells within 2 steps of the anchor, in scan order
            ring = [
                (iz, ix)
                for iz in range(max(aiz - 2, 0), min(aiz + 3, depth))
                for ix in range(max(aix - 2, 0), min(aix + 3, width))
                if abs(iz - aiz) + abs(ix - aix) <= 2
            ]
            ring = [ring[int(i)] for i in rng.permutation(len(ring))]
            ring.sort(key=lambda c: abs(c[0] - aiz) + abs(c[1] - aix))  # stable: random in-ring order
            zone_cells: list[tuple[int, int]] = []
            for ciz, cix in ring:
                if len(zone_cells) == want:
                    break
                cell = ciz * stride + cix
                if _can_block(board, stride, cell, blocked, min_free):
                    board &= ~(1 << cell)
                    reach[ciz, cix] = False
                    zone_cells.append((ciz, cix))
                    blocked.append(cell)
            if not zone_cells:
                ok = False
                break
            for j, (cat, band) in enumerate(tpl.items):
                ciz, cix = zone_cells[j % len(zone_cells)]
                objects.append(ObjectInstance(cat, cix * CELL, ciz * CELL, band))
        if not ok:
            continue
        # every placed object kept the free cells one component
        if sum(1 for o in objects if o.category in GOAL_SET) < 4:
            continue
        scene = Scene(
            id=f"{room_category}-{width}x{depth}-{seed}",
            room_category=room_category,
            width=width,
            depth=depth,
            reachable=reach,
            objects=tuple(objects),
            seed=seed,
        )
        validate_scene(scene)
        return scene
    raise GenerationError(
        f"could not generate a valid {room_category} scene of size {width}x{depth} (seed {seed})"
    )


def validate_scene(scene: Scene) -> None:
    if scene.room_category not in ROOM_CATEGORIES:
        raise FormatError(f"unknown room category {scene.room_category!r}")
    if scene.reachable.shape != (scene.depth, scene.width):
        raise FormatError("reachability bitmap does not match declared size")
    cells, stride = _bitboard(scene.reachable)
    if not _connected(cells, stride):
        raise FormatError("reachable cells are disconnected")
    goal_objs = sum(1 for o in scene.objects if o.category in GOAL_SET)
    if goal_objs < 4:
        raise FormatError(f"scene has {goal_objs} goal objects, need >= 4")
    for o in scene.objects:
        ix, iz = scene.cell_of(o.x, o.z)
        if not scene.in_bounds(ix, iz):
            raise FormatError(f"object {o.category} at ({o.x}, {o.z}) out of bounds")
        if abs(o.x - ix * CELL) > EPS or abs(o.z - iz * CELL) > EPS:
            raise FormatError(f"object {o.category} off the 0.5 m lattice")
        if o.height_band not in BAND_PITCH:
            raise FormatError(f"object {o.category} has bad height band {o.height_band!r}")
        if not cells & _grow(1 << (iz * stride + ix), stride):
            raise FormatError(f"object {o.category} not adjacent to any reachable cell")


# ---------------------------------------------------------------------------
# Scene file format (scene-v1)


def scene_to_text(scene: Scene) -> str:
    bitmap = (scene.reachable.view(np.uint8) + ord("0")).tobytes().decode()
    lines = [
        "scene-v1",
        f"id {scene.id}",
        f"room {scene.room_category}",
        f"size {scene.width} {scene.depth}",
        f"seed {scene.seed}",
        f"reachable {bitmap}",
        f"objects {len(scene.objects)}",
    ]
    for o in scene.objects:
        lines.append(f"{o.category} {float_row((o.x, o.z))} {o.height_band}")
    return "\n".join(lines) + "\n"


def scene_from_text(text: str) -> Scene:
    lines = text.splitlines()

    def need(i: int, key: str) -> str:
        if i >= len(lines):
            raise FormatError(f"line {i + 1}: unexpected end of scene file")
        if key and not lines[i].startswith(key + " "):
            raise FormatError(f"line {i + 1}: expected '{key} ...', got {lines[i]!r}")
        return lines[i][len(key) + 1 :] if key else lines[i]

    if not lines or lines[0].strip() != "scene-v1":
        raise FormatError("line 1: not a scene-v1 file")
    sid = need(1, "id").strip()
    room = need(2, "room").strip()
    try:
        width, depth = (int(v) for v in need(3, "size").split())
        seed = int(need(4, "seed"))
    except ValueError as e:
        raise FormatError(f"bad size/seed header: {e}") from None
    if width < 1 or depth < 1:
        raise FormatError(f"line 4: size must be >= 1, got {width} {depth}")
    bitmap = need(5, "reachable").strip()
    if len(bitmap) != width * depth or set(bitmap) - {"0", "1"}:
        raise FormatError("line 6: reachability bitmap does not match size")
    reach = (np.frombuffer(bitmap.encode(), dtype=np.uint8) == ord("1")).reshape(depth, width)
    try:
        count = int(need(6, "objects"))
    except ValueError:
        raise FormatError("line 7: bad object count") from None
    # Every record's coordinates are converted in one call after the loop. A
    # record's structural error is raised only after the coordinates of the
    # records before it have been checked, so the first bad line is named,
    # with a bad coordinate ahead of a bad band on the same line.
    rows, problem = [], None
    for j in range(count):
        try:
            parts = need(7 + j, "").split()
        except FormatError as e:
            problem = e
            break
        if len(parts) != 4:
            problem = FormatError(f"line {8 + j}: expected 'category x z band'")
            break
        rows.append(parts)
        if parts[3] not in BAND_PITCH:
            problem = FormatError(f"line {8 + j}: bad height band {parts[3]!r}")
            break
    xz = _object_coordinates(rows)
    if problem is not None:
        raise problem
    objects = [ObjectInstance(cat, x, z, band)
               for (cat, _, _, band), x, z in zip(rows, xz[0::2], xz[1::2])]
    if len(lines) > 7 + count and any(l.strip() for l in lines[7 + count :]):
        raise FormatError(f"line {8 + count}: trailing content after object records")
    scene = Scene(sid, room, width, depth, reach, tuple(objects), seed)
    validate_scene(scene)
    return scene


def _object_coordinates(rows: list[list[str]]) -> list[float]:
    """The x and z of every object record, in one list; the records start
    on line 8. On an error they are parsed again one at a time, so that the
    FormatError names the first bad record's line."""
    try:
        return parse_floats([v for parts in rows for v in parts[1:3]], 8).tolist()
    except FormatError:
        for j, parts in enumerate(rows):
            parse_floats(parts[1:3], 8 + j)
        raise


def save_scene(scene: Scene, path) -> None:
    write_text(path, scene_to_text(scene))


def load_scene(path) -> Scene:
    return scene_from_text(read_text(path))

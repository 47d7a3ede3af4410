import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from zonegraph.categories import GOAL_SET, ROOM_CATEGORIES
from zonegraph.errors import (ConfigError, FormatError, GenerationError, UnreachableGoalError,
                              UsageError)
from zonegraph.sim import (
    Action,
    BAND_PITCH,
    CELL,
    EPS,
    HALF_FOV,
    ObjectInstance,
    Observation,
    PITCHES,
    Pose,
    Scene,
    Sighting,
    VIS_RANGE_SQ,
    YAWS,
    _bitboard,
    _connected,
    generate_scene,
    goal_visible,
    reset_episode,
    scene_from_text,
    scene_to_text,
    shortest_path_length,
    step,
    visible_objects,
)

from conftest import make_scene, near_objects_reference, scenes_with_off_lattice_objects


def flood_fill(reach):
    """Independent connectivity oracle on a (depth, width) boolean grid."""
    cells = {(ix, iz) for iz in range(reach.shape[0]) for ix in range(reach.shape[1]) if reach[iz, ix]}
    if not cells:
        return set()
    start = next(iter(sorted(cells)))
    seen = {start}
    stack = [start]
    while stack:
        ix, iz = stack.pop()
        for dx, dz in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            c = (ix + dx, iz + dz)
            if c in cells and c not in seen:
                seen.add(c)
                stack.append(c)
    return seen


def flood_fill_hops(reach, start, targets):
    """Independent BFS distance oracle (hop count)."""
    if start in targets:
        return 0
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for ix, iz in frontier:
            for dx, dz in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                c = (ix + dx, iz + dz)
                if c in dist:
                    continue
                if not (0 <= c[0] < reach.shape[1] and 0 <= c[1] < reach.shape[0]):
                    continue
                if not reach[c[1], c[0]]:
                    continue
                dist[c] = dist[(ix, iz)] + 1
                if c in targets:
                    return dist[c]
                nxt.append(c)
        frontier = nxt
    return None


def success_cells_reference(scene, goal):
    """The reachable cells within 1.5 m of some instance of the goal, one
    object at a time: the oracle for the scene's success board."""
    instances = [o for o in scene.objects if o.category == goal]
    out = set()
    for ix, iz in scene.reachable_cells():
        x, z = ix * CELL, iz * CELL
        for o in instances:
            dx, dz = o.x - x, o.z - z
            if dx * dx + dz * dz <= VIS_RANGE_SQ + EPS:
                out.add((ix, iz))
                break
    return out


def shortest_path_reference(scene, ix, iz, goal):
    """Geodesic meters from cell (ix, iz) by the BFS oracle, or None."""
    hops = flood_fill_hops(scene.reachable, (ix, iz), success_cells_reference(scene, goal))
    return None if hops is None else hops * CELL


def shortest_path_or_none(scene, ix, iz, goal):
    try:
        return shortest_path_length(scene, Pose(ix * CELL, iz * CELL, 0, 0), goal)
    except UnreachableGoalError:
        return None


def _bearing(dx, dz, yaw):
    ang = math.degrees(math.atan2(dx, dz))
    return (ang - yaw + 180.0) % 360.0 - 180.0


def _visible_objects_reference(scene, pose):
    """visible_objects as one loop over every object, recomputing range and
    bearing per view: the formula the scene's memo must reproduce bitwise."""
    seen = []
    for obj in scene.objects:
        if BAND_PITCH[obj.height_band] != pose.pitch:
            continue
        dx = obj.x - pose.x
        dz = obj.z - pose.z
        d2 = dx * dx + dz * dz
        if d2 > VIS_RANGE_SQ + EPS:
            continue
        if d2 <= EPS * EPS:
            bearing = 0.0  # object on the agent's cell: visible at any yaw
        else:
            bearing = _bearing(dx, dz, pose.yaw)
            if abs(bearing) > HALF_FOV + EPS:
                continue
        seen.append(Sighting(obj.category, bearing, math.sqrt(d2)))
    return Observation(visible=tuple(seen))


def connected_reference(reach: np.ndarray) -> bool:
    """sim._connected as a flood fill that indexes the numpy bitmap cell by
    cell: the oracle for the one over Python lists."""
    cells = np.argwhere(reach)
    if len(cells) == 0:
        return False
    start = (int(cells[0][0]), int(cells[0][1]))  # (iz, ix)
    seen = {start}
    frontier = [start]
    while frontier:
        iz, ix = frontier.pop()
        for dz, dx in ((0, 1), (1, 0), (0, -1), (-1, 0)):
            c = (iz + dz, ix + dx)
            if (
                0 <= c[0] < reach.shape[0]
                and 0 <= c[1] < reach.shape[1]
                and reach[c]
                and c not in seen
            ):
                seen.add(c)
                frontier.append(c)
    return len(seen) == len(cells)


def serpentine(n: int) -> np.ndarray:
    """An n x n path that runs along every even row, turning at alternate
    ends, and stops at cell (iz, ix) = (n - 2, n - 1); one more cell sits
    alone at (n - 1, 0), next to that end only across the row boundary."""
    reach = np.zeros((n, n), dtype=bool)
    reach[0:n - 2:2] = True
    reach[1:n - 2:4, n - 1] = True
    reach[3:n - 2:4, 0] = True
    reach[n - 2, n - 1] = reach[n - 1, 0] = True
    return reach


class TestConnected:
    @pytest.mark.parametrize("reach, want", [
        (np.zeros((0, 0), dtype=bool), False),
        (np.zeros((5, 7), dtype=bool), False),
        (np.ones((1, 1), dtype=bool), True),
        (np.eye(1, 9, 4, dtype=bool), True),
        (np.ones((16, 16), dtype=bool), True),
        (np.indices((4, 4)).sum(axis=0) % 2 == 0, False),
        (np.indices((1, 2)).sum(axis=0) % 2 == 0, True),
        (np.array([[1, 1, 0], [0, 1, 0], [0, 1, 1]], dtype=bool), True),
        (np.array([[1, 0, 1], [1, 0, 1], [1, 1, 1]], dtype=bool), True),
        (np.array([[1, 0, 1], [1, 0, 1], [1, 0, 1]], dtype=bool), False),
        # a row's last cell and the next row's first are not neighbours
        (np.array([[0, 0, 1], [1, 0, 0]], dtype=bool), False),
        (serpentine(16), False),
    ], ids=["0x0", "all-false", "single-cell", "one-of-a-row", "all-true", "checkerboard",
            "checkerboard-1x2", "snake", "u-shape", "two-columns", "row-wrap",
            "serpentine-16x16"])
    def test_cases(self, reach, want):
        assert _connected(*_bitboard(reach)) is want
        assert connected_reference(reach) is want

    def test_serpentine_floods_more_than_64_rounds(self):
        # without its lone cell the serpentine is one component, whose far
        # end lies more than 64 steps from the first cell
        reach = serpentine(16)
        reach[15, 0] = False
        assert _connected(*_bitboard(reach)) is True
        assert flood_fill_hops(reach, (0, 0), {(15, 14)}) > 64

    @given(arrays(bool, st.tuples(st.integers(1, 16), st.integers(1, 16)),
                  elements=st.booleans()))
    def test_equals_reference(self, reach):
        assert _connected(*_bitboard(reach)) is connected_reference(reach)

    @given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 2 ** 32 - 1),
           st.floats(0.3, 0.9))
    def test_equals_reference_on_dense_bitmaps(self, depth, width, seed, density):
        # a random bitmap of either kind is mostly disconnected; dense ones
        # exercise the connected answer too
        reach = np.random.default_rng(seed).random((depth, width)) < density
        assert _connected(*_bitboard(reach)) is connected_reference(reach)


class TestGeneration:
    def test_deterministic_byte_identical(self):
        a = generate_scene("bedroom", (8, 8), 7)
        b = generate_scene("bedroom", (8, 8), 7)
        assert scene_to_text(a) == scene_to_text(b)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 17, 12345])
    def test_kitchen_has_four_goal_objects(self, seed):
        scene = generate_scene("kitchen", (8, 8), seed)
        assert len(scene.goal_categories_present()) >= 4

    def test_bathroom_4x4_connected_by_flood_fill(self):
        scene = generate_scene("bathroom", (4, 4), 1)
        reachable = {(ix, iz) for ix, iz in scene.reachable_cells()}
        assert flood_fill(scene.reachable) == reachable

    @pytest.mark.parametrize("room", ["living_room", "kitchen", "bedroom", "bathroom"])
    @pytest.mark.parametrize("seed", range(8))
    def test_invariants_across_rooms_and_seeds(self, room, seed):
        scene = generate_scene(room, (8, 8), seed)
        assert flood_fill(scene.reachable) == set(scene.reachable_cells())
        goal_objs = [o for o in scene.objects if o.category in GOAL_SET]
        assert len(goal_objs) >= 4
        for o in scene.objects:
            ix, iz = scene.cell_of(o.x, o.z)
            neighbors = [
                (ix + dx, iz + dz)
                for dx, dz in ((1, 0), (-1, 0), (0, 1), (0, -1))
                if scene.in_bounds(ix + dx, iz + dz) and scene.reachable[iz + dz, ix + dx]
            ]
            assert neighbors or scene.reachable[iz, ix]

    def test_too_small_errors(self):
        with pytest.raises(GenerationError):
            generate_scene("kitchen", (3, 3), 0)


class TestVisibility:
    def test_object_one_meter_ahead_visible(self):
        scene = make_scene(8, 8, [("Sink", 2, 6, "mid")])  # (1.0, 3.0)
        obs = visible_objects(scene, Pose(1.0, 2.0, 0, 0))
        assert [s.category for s in obs.visible] == ["Sink"]
        s = obs.visible[0]
        assert s.distance == pytest.approx(1.0) and s.bearing == pytest.approx(0.0)

    def test_object_two_meters_not_visible(self):
        scene = make_scene(10, 10, [("Sink", 2, 8, "mid")])
        obs = visible_objects(scene, Pose(1.0, 2.0, 0, 0))
        assert obs.visible == ()

    def test_object_behind_not_visible(self):
        scene = make_scene(8, 8, [("Sink", 2, 3, "mid")])
        obs = visible_objects(scene, Pose(1.0, 2.0, 0, 0))
        assert obs.visible == ()

    def test_pitch_gates_height_band(self):
        scene = make_scene(8, 8, [("Bowl", 2, 6, "low"), ("LightSwitch", 2, 6, "high")])
        level = visible_objects(scene, Pose(1.0, 2.0, 0, 0))
        down = visible_objects(scene, Pose(1.0, 2.0, 0, -30))
        up = visible_objects(scene, Pose(1.0, 2.0, 0, 30))
        assert level.visible == ()
        assert [s.category for s in down.visible] == ["Bowl"]
        assert [s.category for s in up.visible] == ["LightSwitch"]

    def test_range_boundary_inclusive(self):
        scene = make_scene(10, 10, [("Sink", 2, 7, "mid")])  # exactly 1.5 m ahead
        obs = visible_objects(scene, Pose(1.0, 2.0, 0, 0))
        assert [s.category for s in obs.visible] == ["Sink"]

    def test_bearing_oracle_against_every_yaw(self):
        # independent oracle: object at a 45-degree multiple bearing is seen
        # exactly from the yaws within 45 degrees of its direction
        scene = make_scene(9, 9, [("Sink", 6, 4, "mid")])  # due east of (4,4)
        seen_from = [yaw for yaw in YAWS if goal_visible(scene, Pose(2.0, 2.0, yaw, 0), "Sink")]
        assert seen_from == [45, 90, 135]


class TestVisibilityMemo:
    @pytest.mark.parametrize("size", [(8, 8), (16, 16)])
    @pytest.mark.parametrize("room", ROOM_CATEGORIES)
    def test_every_view_bitwise_equal_reference(self, room, size):
        # every cell, object cells included, from a cold memo and a warm one
        scene = generate_scene(room, size, 0)
        poses = [Pose(ix * CELL, iz * CELL, yaw, pitch)
                 for iz in range(scene.depth) for ix in range(scene.width)
                 for yaw in YAWS for pitch in PITCHES]
        for _ in range(2):
            for pose in poses:
                assert visible_objects(scene, pose) == _visible_objects_reference(scene, pose)

    def test_cell_shared_with_object_sees_it_at_every_yaw(self):
        scene = make_scene(5, 5, [("Sink", 2, 2, "mid"), ("Pan", 2, 3, "mid")])
        for yaw in YAWS:
            got = visible_objects(scene, Pose(1.0, 1.0, yaw, 0))
            assert got == _visible_objects_reference(scene, Pose(1.0, 1.0, yaw, 0))
            assert got.visible[0] == Sighting("Sink", 0.0, 0.0)

    def test_warm_memo_leaves_repr_and_text(self):
        scene = generate_scene("kitchen", (8, 8), 3)
        text, shown = scene_to_text(scene), repr(scene)
        for ix, iz in scene.reachable_cells():
            visible_objects(scene, Pose(ix * CELL, iz * CELL, 0, 0))
        assert scene_to_text(scene) == text and repr(scene) == shown

    def test_replaced_scene_sees_its_own_objects(self):
        scene = make_scene(5, 5, [("Sink", 2, 3, "mid")])
        pose = Pose(1.0, 1.0, 0, 0)
        assert [s.category for s in visible_objects(scene, pose).visible] == ["Sink"]
        moved = dataclasses.replace(scene, objects=(dataclasses.replace(
            scene.objects[0], category="Pan"),))
        assert [s.category for s in visible_objects(moved, pose).visible] == ["Pan"]
        assert visible_objects(moved, pose) == _visible_objects_reference(moved, pose)
        assert [s.category for s in visible_objects(scene, pose).visible] == ["Sink"]


class TestNearGeometry:
    """Scene.near_objects against the per-object loop it replaced. The
    reprs are compared, so a 1-ulp angle or a -0.0 for 0.0 fails."""

    @given(scenes_with_off_lattice_objects())
    def test_equals_per_object_loop(self, scene):
        points = [(ix * CELL, iz * CELL) for iz in range(scene.depth) for ix in range(scene.width)]
        # each object's own position; + 0.0 turns a -0.0 into the 0.0 that
        # the memo's key does not tell it from
        points += [(o.x + 0.0, o.z + 0.0) for o in scene.objects]
        points += [(0.25, 1.5), (0.5, -0.25), (1.0 + EPS, 0.5)]
        for x, z in points:
            want = repr(near_objects_reference(scene, x, z))
            assert repr(scene.near_objects(x, z)) == want
            assert repr(scene.near_objects(x, z)) == want  # from the memo

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_signed_zero_gets_the_answer_for_zero_in_either_order(self, first):
        # -0.0 and 0.0 share a memo key. From (0.0, 0.0) an object at
        # x = -0.0 lies at angle -0.0, from (-0.0, 0.0) at 0.0
        base = make_scene(2, 2, [("Sink", 0, 1, "low")])
        scene = dataclasses.replace(base, objects=(dataclasses.replace(base.objects[0], x=-0.0),))
        want = repr(near_objects_reference(scene, 0.0, 0.0))
        assert want != repr(near_objects_reference(scene, -0.0, 0.0))
        for x in (first, -first):
            assert repr(scene.near_objects(x, 0.0)) == want

    @pytest.mark.parametrize("room", ROOM_CATEGORIES)
    def test_generated_scene_every_cell(self, room):
        scene = generate_scene(room, (16, 16), 1)
        for iz in range(scene.depth):
            for ix in range(scene.width):
                x, z = ix * CELL, iz * CELL
                assert repr(scene.near_objects(x, z)) == repr(near_objects_reference(scene, x, z))


class TestStep:
    def test_rotate_left_wraps(self):
        scene = make_scene(6, 6, [("Sink", 0, 0, "mid")] * 4)
        st = reset_episode(scene, "Sink", seed=0)
        st.pose = Pose(1.0, 1.0, 0, 0)
        event = step(st, Action.ROTATE_LEFT)
        assert st.pose.yaw == 315 and event == "rotated"
        step(st, Action.ROTATE_RIGHT)
        assert st.pose.yaw == 0

    def test_blocked_move_is_noop_with_event(self):
        scene = make_scene(6, 6, [("Sink", 2, 3, "mid")], blocked=[(2, 3)])
        st = reset_episode(scene, "Sink", seed=0)
        st.pose = Pose(1.0, 1.0, 0, 0)
        event = step(st, Action.MOVE_AHEAD)
        assert event == "blocked"
        assert (st.pose.x, st.pose.z) == (1.0, 1.0)

    def test_move_off_grid_blocked(self):
        scene = make_scene(4, 4, [("Sink", 0, 0, "mid")])
        st = reset_episode(scene, "Sink", seed=0)
        st.pose = Pose(0.0, 0.0, 180, 0)
        event = step(st, Action.MOVE_AHEAD)
        assert event == "blocked" and (st.pose.x, st.pose.z) == (0.0, 0.0)

    def test_pitch_clamps(self):
        scene = make_scene(4, 4, [("Sink", 0, 0, "mid")])
        st = reset_episode(scene, "Sink", seed=0)
        st.pose = Pose(1.0, 1.0, 0, 0)
        step(st, Action.LOOK_DOWN)
        assert st.pose.pitch == -30
        event = step(st, Action.LOOK_DOWN)
        assert event == "clamped" and st.pose.pitch == -30
        step(st, Action.LOOK_UP)
        step(st, Action.LOOK_UP)
        event = step(st, Action.LOOK_UP)
        assert event == "clamped" and st.pose.pitch == 30

    def test_done_with_goal_in_view_succeeds(self):
        scene = make_scene(8, 8, [("Sink", 2, 4, "mid")])  # (1.0, 2.0)
        st = reset_episode(scene, "Sink", seed=0)
        st.pose = Pose(1.0, 1.0, 0, 0)  # goal 1.0 m dead ahead
        event = step(st, Action.DONE)
        assert event == "success" and st.terminated and st.success

    def test_done_without_goal_fails_and_terminates(self):
        scene = make_scene(8, 8, [("Sink", 6, 6, "mid")])
        st = reset_episode(scene, "Sink", seed=0)
        st.pose = Pose(0.0, 0.0, 180, 0)
        event = step(st, Action.DONE)
        assert event == "failed_done" and st.terminated and not st.success

    def test_timeout_terminates_without_success(self):
        scene = make_scene(6, 6, [("Sink", 5, 5, "mid")])
        st = reset_episode(scene, "Sink", seed=0, t_max=3)
        for _ in range(3):
            event = step(st, Action.ROTATE_LEFT)
        assert st.terminated and not st.success and event == "timeout"
        assert st.step_count == 3

    def test_step_after_termination_raises(self):
        scene = make_scene(6, 6, [("Sink", 5, 5, "mid")])
        st = reset_episode(scene, "Sink", seed=0)
        step(st, Action.DONE)
        with pytest.raises(UsageError):
            step(st, Action.MOVE_AHEAD)

    def test_integer_actions_step_as_their_enum_and_invalid_ones_raise(self):
        scene = make_scene(6, 6, [("Sink", 5, 5, "mid")])
        by_int, by_enum = (reset_episode(scene, "Sink", seed=0) for _ in range(2))
        for a in (2, 0, 3, 4, 1):
            assert step(by_int, a) == step(by_enum, Action(a))
            assert by_int.pose == by_enum.pose
        for bad in (6, -1):
            with pytest.raises(ValueError):
                step(by_int, bad)
        assert by_int.pose == by_enum.pose and by_int.step_count == 5

    def test_pose_closure_random_walk(self):
        scene = generate_scene("bedroom", (8, 8), 3)
        goal = sorted(scene.goal_categories_present())[0]
        rng = np.random.default_rng(0)
        for trial in range(20):
            st = reset_episode(scene, goal, seed=trial, t_max=60)
            while not st.terminated:
                before = st.pose
                event = step(st, Action(int(rng.integers(6))))
                p = st.pose
                assert p.x % CELL == 0 and p.z % CELL == 0
                assert scene.is_reachable(p.x, p.z)
                assert p.yaw in YAWS and p.pitch in (-30, 0, 30)
                if event in ("rotated", "looked", "clamped", "blocked"):
                    assert (p.x, p.z) == (before.x, before.z)


class TestReset:
    def test_deterministic(self):
        scene = generate_scene("kitchen", (8, 8), 5)
        goal = sorted(scene.goal_categories_present())[0]
        a = reset_episode(scene, goal, seed=99)
        b = reset_episode(scene, goal, seed=99)
        assert a.pose == b.pose and a.step_count == 0

    def test_seed_sweep_all_starts_valid(self):
        scene = generate_scene("kitchen", (8, 8), 5)
        goal = sorted(scene.goal_categories_present())[0]
        reachable = set(scene.reachable_cells())
        for seed in range(1000):
            st = reset_episode(scene, goal, seed=seed)
            assert scene.cell_of(st.pose.x, st.pose.z) in reachable
            assert st.pose.yaw in YAWS and st.pose.pitch == 0

    def test_goal_absent_errors(self):
        scene = make_scene(6, 6, [("Sink", 5, 5, "mid")])
        with pytest.raises(ConfigError):
            reset_episode(scene, "Fridge", seed=0)


class TestShortestPath:
    def test_zero_when_already_in_success_cell(self):
        scene = make_scene(8, 8, [("Sink", 2, 4, "mid")])
        assert shortest_path_length(scene, Pose(1.0, 2.0, 180, 0), "Sink") == 0.0

    def test_straight_corridor_six_cells(self):
        # 1-wide corridor along z; goal at cell 9, success region starts at
        # cell 6 (1.5 m away); agent at cell 0 -> 6 hops -> 3.0 m
        blocked = [(ix, iz) for ix in (0, 2) for iz in range(10)]
        scene = make_scene(3, 10, [("Sink", 1, 9, "mid")], blocked=blocked)
        assert shortest_path_length(scene, Pose(0.5, 0.0, 0, 0), "Sink") == pytest.approx(3.0)

    def test_detour_matches_flood_fill_oracle(self):
        # wall with a single gap forces a detour
        blocked = [(ix, 3) for ix in range(7) if ix != 6]
        scene = make_scene(7, 7, [("Sink", 0, 6, "mid")], blocked=blocked)
        got = shortest_path_length(scene, Pose(0.0, 0.0, 0, 0), "Sink")
        targets = set()
        for ix in range(7):
            for iz in range(7):
                if scene.reachable[iz, ix] and (0.5 * ix - 0.0) ** 2 + (0.5 * iz - 3.0) ** 2 <= 2.25 + 1e-9:
                    targets.add((ix, iz))
        hops = flood_fill_hops(scene.reachable, (0, 0), targets)
        assert got == pytest.approx(hops * 0.5)

    def test_unreachable_goal_signals(self):
        # goal sealed in the far corner behind a full wall
        blocked = [(ix, 4) for ix in range(6)]
        reach_fix = make_scene(6, 8, [("Sink", 3, 7, "mid")], blocked=blocked)
        # the wall splits the grid; agent side has no success cell
        with pytest.raises(UnreachableGoalError):
            shortest_path_length(reach_fix, Pose(0.0, 0.0, 0, 0), "Sink")

    @pytest.mark.parametrize("size", [(8, 8), (16, 16)])
    @pytest.mark.parametrize("room", ROOM_CATEGORIES)
    def test_every_start_and_goal_equals_reference(self, room, size):
        for seed in (0, 1):
            scene = generate_scene(room, size, seed)
            for goal in sorted(scene.categories_present()):
                targets = success_cells_reference(scene, goal)
                for ix, iz in scene.reachable_cells():
                    hops = flood_fill_hops(scene.reachable, (ix, iz), targets)
                    assert shortest_path_length(scene, Pose(ix * CELL, iz * CELL, 0, 0),
                                                goal) == hops * CELL

    def test_serpentine_floods_more_than_64_rounds(self):
        # the goal sits past the serpentine's far end, more than 64 hops
        # from the first cell along the one path
        reach = serpentine(16)
        reach[15, 0] = False
        scene = Scene("serpentine", "kitchen", 16, 16, reach,
                      (ObjectInstance("Sink", 15 * CELL, 15 * CELL, "mid"),), 0)
        want = shortest_path_reference(scene, 0, 0, "Sink")
        assert want > 64 * CELL
        assert shortest_path_length(scene, Pose(0.0, 0.0, 0, 0), "Sink") == want

    @given(arrays(bool, st.tuples(st.integers(1, 9), st.integers(1, 9)), elements=st.booleans()),
           st.data())
    def test_every_cell_of_any_bitmap_equals_reference(self, reach, data):
        # disconnected bitmaps and starts on blocked cells too: a blocked
        # start floods into its reachable neighbours, as the BFS steps out
        depth, width = reach.shape
        cells = st.tuples(st.integers(0, width - 1), st.integers(0, depth - 1))
        objects = tuple(ObjectInstance(data.draw(st.sampled_from(["Sink", "Pan"])),
                                       ix * CELL, iz * CELL, "mid")
                        for ix, iz in data.draw(st.lists(cells, min_size=1, max_size=4)))
        scene = Scene("hyp", "kitchen", width, depth, reach, objects, 0)
        for goal in scene.categories_present():
            for iz in range(depth):
                for ix in range(width):
                    assert shortest_path_or_none(scene, ix, iz, goal) == \
                        shortest_path_reference(scene, ix, iz, goal)

    def test_blocked_start_without_free_neighbour_is_unreachable(self):
        scene = make_scene(3, 3, [("Sink", 2, 2, "mid")], blocked=[(1, 0), (0, 1), (0, 0)])
        assert shortest_path_reference(scene, 0, 0, "Sink") is None
        with pytest.raises(UnreachableGoalError):
            shortest_path_length(scene, Pose(0.0, 0.0, 0, 0), "Sink")

    @pytest.mark.parametrize("x, z", [
        (-0.5, 0.0), (0.0, -0.5), (-0.5, -0.5),
        (-0.5, 0.5),  # bit index stride - 1: row 0's guard bit
        (2.0, 0.0),  # ix == width: a guard bit
        (2.5, 0.0),  # ix == width + 1: the bit of the next row's first cell
        (0.0, 1.5), (10.0, 10.0),
    ])
    def test_off_grid_start_raises_usage_error(self, x, z):
        scene = make_scene(4, 3, [("Sink", 3, 2, "mid")])
        with pytest.raises(UsageError):
            shortest_path_length(scene, Pose(x, z, 0, 0), "Sink")

    def test_goal_absent_errors(self):
        scene = make_scene(4, 4, [("Sink", 3, 3, "mid")])
        with pytest.raises(ConfigError):
            shortest_path_length(scene, Pose(0.0, 0.0, 0, 0), "Fridge")

    def test_replaced_scene_starts_with_an_empty_board_memo(self):
        scene = make_scene(1, 8, [("Sink", 0, 7, "mid")])
        assert shortest_path_length(scene, Pose(0.0, 0.0, 0, 0), "Sink") == 2.0
        assert set(scene._success) == {"Sink"}
        walled = dataclasses.replace(scene, reachable=np.arange(8)[:, None] != 3)
        assert walled._success == {}
        with pytest.raises(UnreachableGoalError):
            shortest_path_length(walled, Pose(0.0, 0.0, 0, 0), "Sink")
        assert shortest_path_length(scene, Pose(0.0, 0.0, 0, 0), "Sink") == 2.0


class TestSceneFile:
    def test_round_trip_byte_identical(self, tmp_path):
        scene = generate_scene("living_room", (8, 8), 11)
        text = scene_to_text(scene)
        again = scene_to_text(scene_from_text(text))
        assert text == again

    def test_version_rejected(self):
        with pytest.raises(FormatError):
            scene_from_text("scene-v2\nid x\n")

    def test_corrupt_bitmap_rejected(self):
        scene = generate_scene("kitchen", (6, 6), 2)
        lines = scene_to_text(scene).splitlines()
        lines[5] = "reachable 10"
        with pytest.raises(FormatError):
            scene_from_text("\n".join(lines) + "\n")

    def test_bad_float_rejected(self):
        scene = generate_scene("kitchen", (6, 6), 2)
        lines = scene_to_text(scene).splitlines()
        parts = lines[7].split()
        parts[1] = "nope"
        lines[7] = " ".join(parts)
        with pytest.raises(FormatError):
            scene_from_text("\n".join(lines) + "\n")

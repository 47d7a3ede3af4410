import math

import numpy as np
import pytest
from hypothesis import settings, strategies as st

import zonegraph.nn as nn
from zonegraph.embedding import DEFAULT_GRID, EmbeddingProvider, _grid_cell, _unit_mean
from zonegraph.errors import UsageError
from zonegraph.graph import ZoneAssignment
from zonegraph.policy import compose_input
from zonegraph.selfcheck import fd_probe
from zonegraph.sim import (BAND_PITCH, CELL, EPS, SEED_MASK, VIS_RANGE_SQ, ObjectInstance,
                           Observation, Scene)

# property tests draw the same examples on every run and stay short
settings.register_profile("zonegraph", derandomize=True, deadline=None, max_examples=60,
                          database=None)
settings.load_profile("zonegraph")


def make_scene(width, depth, objects, blocked=(), room="kitchen", sid="test", seed=0):
    """Hand-built scene for unit tests; skips the generator's invariants."""
    reach = np.ones((depth, width), dtype=bool)
    for ix, iz in blocked:
        reach[iz, ix] = False
    objs = tuple(
        ObjectInstance(cat, ix * CELL, iz * CELL, band) for cat, ix, iz, band in objects
    )
    return Scene(id=sid, room_category=room, width=width, depth=depth,
                 reachable=reach, objects=objs, seed=seed)


def near_objects_reference(scene, x, z):
    """Scene.near_objects as a loop over the objects, one offset at a time
    through math.atan2: (category, band pitch, angle, distance) of every
    object within 1.5 m of (x, z), in object order, the angle None for an
    object on the position's own cell."""
    near = []
    for obj in scene.objects:
        dx = obj.x - x
        dz = obj.z - z
        d2 = dx * dx + dz * dz
        if d2 > VIS_RANGE_SQ + EPS:
            continue
        ang = None if d2 <= EPS * EPS else math.degrees(math.atan2(dx, dz))
        near.append((obj.category, BAND_PITCH[obj.height_band], ang, math.sqrt(d2)))
    return tuple(near)


# a coordinate's offset from its lattice point: validate_scene allows up to
# EPS, and a -0.0 stands for 0 with its sign bit set
_JITTER = st.one_of(st.just(0.0), st.sampled_from([EPS, -EPS, EPS / 2, -EPS / 3]),
                    st.floats(-EPS, EPS))


@st.composite
def scenes_with_off_lattice_objects(draw):
    """A scene of up to 7x7 cells whose objects may sit off the lattice by
    up to EPS, or at -0.0."""
    width, depth = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    objects = []
    for _ in range(draw(st.integers(0, 8))):
        ix, iz = draw(st.integers(0, width - 1)), draw(st.integers(0, depth - 1))
        x, z = ix * CELL + draw(_JITTER), iz * CELL + draw(_JITTER)
        if x == 0.0 and draw(st.booleans()):
            x = -0.0
        objects.append(ObjectInstance(draw(st.sampled_from(["Sink", "Pan", "Mirror", "Bowl"])),
                                      x, z, draw(st.sampled_from(list(BAND_PITCH)))))
    return Scene("hyp", "kitchen", width, depth, np.ones((depth, width), dtype=bool),
                 tuple(objects), 0)


def image_feature(provider: EmbeddingProvider, observation: Observation,
                  grid: int = DEFAULT_GRID) -> np.ndarray:
    """Splat visible objects into a G x G x D grid: the grid whose mean
    embedding.pooled_image_feature forms without building it.

    Column index bins bearing over [-45, +45]; row index bins distance over
    [0, 1.5]. Cells holding several objects average their embeddings and
    renormalize; empty cells stay exactly zero.
    """
    g = int(grid)
    out = np.zeros((g, g, provider.dim))
    counts = np.zeros((g, g), dtype=int)
    for s in observation.visible:
        row, col = _grid_cell(s, g)
        out[row, col] += provider.object_embedding(s.category)
        counts[row, col] += 1
    for row, col in zip(*np.nonzero(counts)):
        out[row, col] = _unit_mean(out[row, col], counts[row, col])
    return out


# ---------------------------------------------------------------------------
# Per-step reference kernels, which no program path runs: the oracles that
# the sequence kernels of nn and the batched A2C update are checked against.


def gcn_forward(w1: np.ndarray, w2: np.ndarray, nodes: np.ndarray, ahat: np.ndarray):
    """out = Ahat ReLU(Ahat X W1) W2; output keeps the (M, N) node shape."""
    if nodes.shape[1] != w1.shape[0] or ahat.shape[0] != nodes.shape[0]:
        raise UsageError("gcn_forward: inconsistent shapes")
    ax = ahat @ nodes
    z1 = ax @ w1
    h1 = nn.relu(z1)
    ah = ahat @ h1
    out = ah @ w2
    cache = (ax, z1, ah, ahat)
    return out, cache


def gcn_backward(cache, dout: np.ndarray, w1: np.ndarray, w2: np.ndarray):
    ax, z1, ah, ahat = cache
    dw2 = ah.T @ dout
    dah = dout @ w2.T
    dh1 = ahat.T @ dah
    dz1 = dh1 * (z1 > 0)
    dw1 = ax.T @ dz1
    dax = dz1 @ w1.T
    dnodes = ahat.T @ dax
    return dw1, dw2, dnodes


def lstm_step_split(wx, wh, b, x, h, c):
    """The recurrent cell through np.split, one activation call per gate, on
    the whole input x: the step of the per-step references. Its third output
    is the step's cache for lstm_backward."""
    z = x @ wx + h @ wh + b
    zi, zf, zo, zg = np.split(z, 4)
    i = nn.sigmoid(zi)
    f = nn.sigmoid(zf)
    o = nn.sigmoid(zo)
    g = np.tanh(zg)
    c2 = f * c + i * g
    tc = np.tanh(c2)
    h2 = o * tc
    return h2, c2, (x, h, c, i, f, o, g, tc)


def lstm_backward(cache, dh2: np.ndarray, dc2: np.ndarray, wx: np.ndarray, wh: np.ndarray):
    x, h, c, i, f, o, g, tc = cache
    do = dh2 * tc
    dc_total = dc2 + dh2 * o * (1.0 - tc * tc)
    df = dc_total * c
    dc_prev = dc_total * f
    di = dc_total * g
    dg = dc_total * i
    dzi = di * i * (1.0 - i)
    dzf = df * f * (1.0 - f)
    dzo = do * o * (1.0 - o)
    dzg = dg * (1.0 - g * g)
    dz = np.concatenate([dzi, dzf, dzo, dzg])
    dwx = np.outer(x, dz)
    dwh = np.outer(h, dz)
    db = dz
    dx = wx @ dz
    dh_prev = wh @ dz
    return dwx, dwh, db, dx, dh_prev, dc_prev


def actor_critic_backward(actor_w, critic_w, h: np.ndarray, dlogits: np.ndarray, dvalue: float):
    dactor_w = np.outer(h, dlogits)
    dactor_b = dlogits
    dcritic_w = h * dvalue
    dcritic_b = np.asarray(dvalue)
    dh = actor_w @ dlogits + critic_w * dvalue
    return dactor_w, dactor_b, dcritic_w, dcritic_b, dh


def lstm_loop_step(zx, wh, h, c):
    """One step of lstm_forward_seq_loop, given the step's input projection
    plus bias zx: the pre-activation zx + h @ wh, with one sigmoid call over
    the i | f | o gates. The formula nn.lstm_step must reproduce bitwise.
    Returns the next hidden and cell states, the gates and tanh of the next
    cell state."""
    hid = wh.shape[0]
    z = zx + h @ wh
    gate = np.empty_like(z)
    gate[: 3 * hid] = nn.sigmoid(z[: 3 * hid])
    gate[3 * hid :] = np.tanh(z[3 * hid :])
    c2 = gate[hid : 2 * hid] * c + gate[:hid] * gate[3 * hid :]
    tc = np.tanh(c2)
    return gate[2 * hid : 3 * hid] * tc, c2, gate, tc


def lstm_forward_seq_loop(wx, wh, b, xs):
    """The sequence forward as a loop of lstm_loop_step: the formula
    nn.lstm_forward_seq must reproduce bitwise, cache included."""
    t_len, hid = xs.shape[0], wh.shape[0]
    zx = xs @ wx + b
    gates = np.empty((t_len, 4 * hid))
    hs = np.zeros((t_len + 1, hid))
    cs = np.zeros((t_len + 1, hid))
    tcs = np.empty((t_len, hid))
    for t in range(t_len):
        hs[t + 1], cs[t + 1], gates[t], tcs[t] = lstm_loop_step(zx[t], wh, hs[t], cs[t])
    return hs[1:], (xs, hs, cs, gates, tcs)


def unfactored_cell_step(params, img, goal_emb, f_gra, prev_action, mask, h, c):
    """One rollout step of the recurrent cell on its whole input:
    x = CELL_INPUT_GAIN * compose_input(...), then x @ wx + b, then the
    cell. The rollout sums x @ wx block by block instead, each block as
    often as it changes; it is held to this form at a stated tolerance."""
    x = nn.CELL_INPUT_GAIN * compose_input(img, goal_emb, f_gra, prev_action, mask)
    h2, c2, _, _ = lstm_loop_step(x @ params["lstm_wx"] + params["lstm_b"], params["lstm_wh"],
                                  h, c)
    return h2, c2


# ---------------------------------------------------------------------------
# k-means as a plain loop: Generator.choice draws, distances over every row
# and one boolean mask per member mean. graph.cluster_zones must match it bit
# for bit in labels, centers and zone count.


def _kmeans_pp_init_reference(x: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    centers = [x[int(rng.integers(len(x)))]]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    while len(centers) < m:
        total = d2.sum()
        if total <= 0:
            break
        idx = int(rng.choice(len(x), p=d2 / total))
        centers.append(x[idx])
        d2 = np.minimum(d2, np.sum((x - centers[-1]) ** 2, axis=1))
    return np.array(centers)


def _nearest_reference(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d2 = np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    return np.argmin(d2, axis=1)


def cluster_zones_reference(feature_map, zones: int, seed: int,
                            max_iter: int = 100) -> ZoneAssignment:
    """cluster_zones as a plain loop, of at most max_iter Lloyd iterations."""
    if len(feature_map.positions) == 0:
        raise UsageError("cannot cluster an empty feature map")
    if zones < 1:
        raise UsageError("zone count must be >= 1")
    x = feature_map.features
    rng = np.random.default_rng(seed & SEED_MASK)
    centers = _kmeans_pp_init_reference(x, zones, rng)
    for _ in range(max_iter):
        labels = _nearest_reference(x, centers)
        keep = [k for k in range(len(centers)) if np.any(labels == k)]
        if len(keep) < len(centers):
            new_centers = np.array([x[labels == k].mean(axis=0) for k in keep])
            relabel = {old: new for new, old in enumerate(keep)}
            labels = np.array([relabel[int(l)] for l in labels])
            centers = new_centers
            continue
        new_centers = np.array([x[labels == k].mean(axis=0) for k in range(len(centers))])
        movement = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        centers = new_centers
        if movement < 1e-6:
            break
    return ZoneAssignment(labels, centers)


def assert_same_clustering(got: ZoneAssignment, want: ZoneAssignment) -> None:
    """Bitwise equality: the same labels, as intp, and the same centers."""
    assert got.labels.dtype == want.labels.dtype == np.intp
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.zone_count == want.zone_count
    assert got.centers.shape == want.centers.shape
    assert got.centers.tobytes() == want.centers.tobytes()


def fd_check(loss_fn, params: dict, grads: dict, rng: np.random.Generator,
             probes_per_array: int = 4) -> float:
    """Finite-difference probe of every array of `params`. Returns the worst
    relative error."""
    worst = 0.0
    for name, arr in params.items():
        worst = max(worst, fd_probe(lambda: loss_fn(params), arr, grads[name], rng,
                                    probes_per_array))
    return worst


@pytest.fixture(scope="session")
def provider():
    return EmbeddingProvider.synthetic(dim=64, seed=0)


@pytest.fixture(scope="session")
def small_provider():
    return EmbeddingProvider.synthetic(dim=8, seed=0)

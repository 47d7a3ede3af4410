import numpy as np
import pytest
from hypothesis import settings

import zonegraph.nn as nn
from zonegraph.embedding import EmbeddingProvider
from zonegraph.sim import CELL, ObjectInstance, Scene

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


def lstm_step_split(wx, wh, b, x, h, c):
    """The recurrent cell through np.split, one activation call per gate:
    the formula nn.lstm_step must reproduce bitwise, cache included."""
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


def lstm_forward_seq_loop(wx, wh, b, xs):
    """The sequence forward as a step loop with one sigmoid call over the
    i | f | o gates: the formula nn.lstm_forward_seq must reproduce bitwise,
    cache included."""
    t_len, hid = xs.shape[0], wh.shape[0]
    zx = xs @ wx + b
    gates = np.empty((t_len, 4 * hid))
    hs = np.zeros((t_len + 1, hid))
    cs = np.zeros((t_len + 1, hid))
    tcs = np.empty((t_len, hid))
    for t in range(t_len):
        z = zx[t] + hs[t] @ wh
        gate = gates[t]
        gate[: 3 * hid] = nn.sigmoid(z[: 3 * hid])
        gate[3 * hid :] = np.tanh(z[3 * hid :])
        cs[t + 1] = gate[hid : 2 * hid] * cs[t] + gate[:hid] * gate[3 * hid :]
        tcs[t] = np.tanh(cs[t + 1])
        hs[t + 1] = gate[2 * hid : 3 * hid] * tcs[t]
    return hs[1:], (xs, hs, cs, gates, tcs)


@pytest.fixture(scope="session")
def provider():
    return EmbeddingProvider.synthetic(dim=64, seed=0)


@pytest.fixture(scope="session")
def small_provider():
    return EmbeddingProvider.synthetic(dim=8, seed=0)

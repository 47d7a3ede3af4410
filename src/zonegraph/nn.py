"""Minimal differentiable numerics: GCN, gated recurrent cell, actor-critic
heads, hand-derived reverse-mode gradients, and the Adam update.

Everything is float64 and deterministic. Every kernel here runs on a program
path: the forward and backward passes work on a whole trajectory, and the
rollout runs the GCN as a one-step sequence and the cell one step at a time.
Each backward pass is covered by a central finite-difference test; the
per-step kernels that the sequence kernels batch live in the tests, as
oracles.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FormatError, NonFiniteError, UsageError
from .sim import NUM_ACTIONS, SEED_MASK
from .textio import float_row, header_fields, parse_float_row, read_text, write_text

DEFAULT_HIDDEN = 128

Params = dict  # name -> np.ndarray


def input_layout(dim: int, node_dim: int) -> tuple[slice, slice, slice, slice]:
    """Where each block sits in the recurrent cell's input: the pooled image
    feature and the goal embedding (dim each), the graph feature (node_dim)
    and the one-hot previous action, in that order."""
    gra = 2 * dim + node_dim
    return slice(0, dim), slice(dim, 2 * dim), slice(2 * dim, gra), slice(gra, gra + NUM_ACTIONS)


def input_size(dim: int, node_dim: int) -> int:
    return input_layout(dim, node_dim)[3].stop


def param_shapes(dim: int, node_dim: int, hidden: int = DEFAULT_HIDDEN) -> dict:
    """Name -> shape of every policy parameter; init_params draws these."""
    f = input_size(dim, node_dim)
    return {
        "gcn_w1": (node_dim, node_dim),
        "gcn_w2": (node_dim, node_dim),
        "lstm_wx": (f, 4 * hidden),
        "lstm_wh": (hidden, 4 * hidden),
        "lstm_b": (4 * hidden,),
        "actor_w": (hidden, NUM_ACTIONS),
        "actor_b": (NUM_ACTIONS,),
        "critic_w": (hidden,),
        "critic_b": (),
        "lambda_raw": (),
    }


# Mean-pooling the 7x7 image grid leaves ~1-3 occupied cells of 49, so the
# image block arrives ~20x weaker than the goal/graph blocks. The rollout
# multiplies the pooled feature by this gain before it enters the recurrent
# cell. Scaling the input rather than the weights matters under Adam, which
# moves every weight by about `lr` per step whatever its input's size: a
# weak input with large weights would change the policy far more slowly
# than the other blocks do.
IMG_INPUT_GAIN = 16.0
# Each input block is unit-scale (unit embeddings, a one-hot action), so the
# entries reaching the recurrent cell are ~1/sqrt(D): at initialization the
# gate pre-activations have a standard deviation near 0.1, and the input
# weights, which Adam moves by about `lr` per step, change them slowly. The
# rollout and the update multiply the composed input by this gain, which
# triples both the initial pre-activations and their rate of change.
CELL_INPUT_GAIN = 3.0
# A near-uniform initial policy draws Done every ~6 steps, which ends
# episodes before any search happens; starting the Done logit low keeps
# early rollouts exploratory until the critic learns when stopping pays.
DONE_LOGIT_BIAS = -3.0


def init_params(dim: int, node_dim: int, hidden: int = DEFAULT_HIDDEN, seed: int = 0) -> Params:
    rng = np.random.default_rng(seed & SEED_MASK)
    shapes = param_shapes(dim, node_dim, hidden)

    def mat(name, scale):
        return rng.standard_normal(shapes[name]) * scale

    lstm_wx = mat("lstm_wx", 1.0 / np.sqrt(input_size(dim, node_dim)))
    actor_b = np.zeros(NUM_ACTIONS)
    actor_b[NUM_ACTIONS - 1] = DONE_LOGIT_BIAS
    return {
        "gcn_w1": mat("gcn_w1", 1.0 / np.sqrt(node_dim)),
        "gcn_w2": mat("gcn_w2", 1.0 / np.sqrt(node_dim)),
        "lstm_wx": lstm_wx,
        "lstm_wh": mat("lstm_wh", 1.0 / np.sqrt(hidden)),
        "lstm_b": np.zeros(shapes["lstm_b"]),
        "actor_w": mat("actor_w", 0.01 / np.sqrt(hidden)),
        "actor_b": actor_b,
        "critic_w": mat("critic_w", 0.01 / np.sqrt(hidden)),
        "critic_b": np.zeros(()),
        "lambda_raw": np.zeros(()),
    }


def zeros_like_params(params: Params) -> Params:
    return {k: np.zeros_like(v) for k, v in params.items()}


def hidden_size(params: Params) -> int:
    return params["lstm_wh"].shape[0]


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def relu(z):
    return np.maximum(z, 0.0)


# ---------------------------------------------------------------------------
# Graph convolution


def normalize_adjacency(edges: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization Deg^-1/2 E Deg^-1/2. The diagonal of a
    knowledge-graph edge matrix is already 1, so self-loops are included and
    no degree can vanish."""
    deg = edges.sum(axis=1)
    dinv = 1.0 / np.sqrt(deg)
    return edges * dinv[:, None] * dinv[None, :]


def gcn_forward_seq(w1: np.ndarray, w2: np.ndarray, nodes_seq: np.ndarray, ahat: np.ndarray,
                    rows: np.ndarray):
    """Row `rows[t]` of the two-layer GCN Ahat ReLU(Ahat X W1) W2 on each of
    the T stacked (M, N) node matrices X = nodes_seq[t], as broadcast
    matmuls: (T, N)."""
    if nodes_seq.ndim != 3 or nodes_seq.shape[2] != w1.shape[0] \
            or ahat.shape[0] != nodes_seq.shape[1] or len(rows) != nodes_seq.shape[0]:
        raise UsageError("gcn_forward_seq: inconsistent shapes")
    t_len, m, n = nodes_seq.shape
    ax = ahat @ nodes_seq
    z1 = (ax.reshape(t_len * m, n) @ w1).reshape(t_len, m, -1)
    a_rows = ahat.take(rows, axis=0)  # (T, M); `take` gathers faster than indexing
    ah_rows = np.matmul(a_rows[:, None, :], relu(z1))[:, 0]
    out = ah_rows @ w2
    cache = (ax, z1, ah_rows, a_rows, ahat)
    return out, cache


def gcn_backward_seq(cache, dout_rows: np.ndarray, w1: np.ndarray, w2: np.ndarray):
    """Reverse of gcn_forward_seq: dout_rows[t] is the gradient of step t's
    selected row, and every other output row has zero gradient. Returns
    dw1, dw2 summed over the steps and dnodes per step, (T, M, N)."""
    ax, z1, ah_rows, a_rows, ahat = cache
    t_len, m, n = ax.shape
    dw2 = ah_rows.T @ dout_rows
    # ahat.T @ dah where dah is zero but for row rows[t], which holds dah_row
    dah_row = dout_rows @ w2.T
    dz1 = a_rows[:, :, None] * dah_row[:, None, :] * (z1 > 0)
    flat = dz1.reshape(t_len * m, -1)
    dw1 = ax.reshape(t_len * m, n).T @ flat
    dnodes = ahat.T @ (flat @ w1.T).reshape(t_len, m, n)
    return dw1, dw2, dnodes


# ---------------------------------------------------------------------------
# Gated recurrent cell (input, forget, output gates + tanh candidate)


def _cell(z: np.ndarray, c: np.ndarray):
    """The gates of one step, computed in place in its pre-activation z (4H,):
    1 / (1 + exp(-z)) over i | f | o and tanh over g, with sigmoid's
    operations in their order, so the gates are bitwise sigmoid's and stay
    in z. Returns the next cell state f * c + i * g, its tanh and the next
    hidden state."""
    hid = c.shape[-1]
    sig = z[: 3 * hid]
    np.negative(sig, out=sig)
    np.exp(sig, out=sig)
    sig += 1.0
    np.reciprocal(sig, out=sig)
    i, f, o = sig[:hid], sig[hid : 2 * hid], sig[2 * hid :]
    g = np.tanh(z[3 * hid :], out=z[3 * hid :])
    c2 = f * c
    c2 += i * g
    tc = np.tanh(c2)
    return c2, tc, o * tc


def lstm_step(zx: np.ndarray, wh: np.ndarray, h: np.ndarray, c: np.ndarray):
    """One step of the cell, as the rollout runs it, given the step's input
    projection plus bias zx = x @ wx + b (4H,): returns the next hidden and
    cell states. The pre-activation is h @ wh + zx, the sum
    lstm_forward_seq forms at each step; _cell computes the gates in place
    in it."""
    z = h @ wh
    z += zx
    c2, _, h2 = _cell(z, c)
    return h2, c2


def lstm_forward_seq(wx: np.ndarray, wh: np.ndarray, b: np.ndarray, xs: np.ndarray):
    """lstm_step over the rows of xs (T, F) from a zero state; returns the
    hidden states (T, H). The input projection xs @ wx + b is one GEMM, so
    only h @ wh and the gates (_cell, in place in each step's row of the
    cached gates) run step by step."""
    t_len = xs.shape[0]
    hid = wh.shape[0]
    zx = xs @ wx + b
    gates = np.empty((t_len, 4 * hid))  # sigmoid(i | f | o) | tanh(g), per step
    hs = np.zeros((t_len + 1, hid))  # hs[t] and cs[t] enter step t
    cs = np.zeros((t_len + 1, hid))
    tcs = np.empty((t_len, hid))
    for t in range(t_len):
        np.add(zx[t], hs[t] @ wh, out=gates[t])
        cs[t + 1], tcs[t], hs[t + 1] = _cell(gates[t], cs[t])
    cache = (xs, hs, cs, gates, tcs)
    return hs[1:], cache


def lstm_backward_seq(cache, dhs: np.ndarray, wx: np.ndarray, wh: np.ndarray):
    """Reverse of lstm_forward_seq, given the gradient dhs (T, H) that
    reaches each hidden state from outside the recurrence. Returns dwx, dwh,
    db and the gate pre-activation gradients dz (T, 4H); the input gradient
    is dz @ wx.T, of which a caller forms only the columns it needs. Only
    wh @ dz runs step by step; the weight gradients are one GEMM each."""
    xs, hs, cs, gates, tcs = cache
    t_len, hid = dhs.shape
    i, f, o, g = (gates[:, k * hid : (k + 1) * hid] for k in range(4))
    dc_from_h = o * (1.0 - tcs * tcs)
    # dz_t = [dc*fi, dc*ff, dh*fo, dc*fg] with dc, dh the step's cell and
    # hidden gradients; the factors do not depend on them
    factors = np.stack([g * i * (1.0 - i), cs[:-1] * f * (1.0 - f),
                        tcs * o * (1.0 - o), i * (1.0 - g * g)], axis=1)
    dz = np.empty((t_len, 4, hid))
    dh_next = np.zeros(hid)
    dc_next = np.zeros(hid)
    for t in range(t_len - 1, -1, -1):
        dh = dhs[t] + dh_next
        dc = dc_next + dh * dc_from_h[t]
        np.multiply(factors[t], dc, out=dz[t])
        np.multiply(factors[t, 2], dh, out=dz[t, 2])
        dh_next = wh @ dz[t].reshape(4 * hid)
        dc_next = dc * f[t]
    dz = dz.reshape(t_len, 4 * hid)
    dwx = xs.T @ dz
    dwh = hs[:-1].T @ dz
    db = dz.sum(axis=0)
    return dwx, dwh, db, dz


# ---------------------------------------------------------------------------
# Actor-critic heads


def actor_critic(actor_w, actor_b, critic_w, critic_b, h: np.ndarray):
    """Logits and value of one hidden state (H,), or of each row of (T, H):
    logits (A,) or (T, A), value a scalar or (T,)."""
    return h @ actor_w + actor_b, h @ critic_w + critic_b


def actor_critic_backward_seq(actor_w, critic_w, hs: np.ndarray, dlogits: np.ndarray,
                              dvalues: np.ndarray):
    """Reverse of actor_critic on the rows of hs (T, H): weight gradients
    summed over the rows, and the hidden-state gradient per row (T, H)."""
    dactor_w = hs.T @ dlogits
    dactor_b = dlogits.sum(axis=0)
    dcritic_w = hs.T @ dvalues
    dcritic_b = np.asarray(dvalues.sum())
    dhs = dlogits @ actor_w.T + dvalues[:, None] * critic_w
    return dactor_w, dactor_b, dcritic_w, dcritic_b, dhs


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Over the last axis, so a (T, A) array is normalized row by row."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def _choice_index(rng: np.random.Generator, p: np.ndarray) -> int:
    """One index drawn with the probabilities p by inverse CDF. This is the
    arithmetic of Generator.choice(len(p), p=p) and consumes the same single
    double, so the draw and the generator state after it are those of
    choice."""
    cdf = p.cumsum()
    if not math.isfinite(cdf[-1]):  # a NaN anywhere in p reaches the total
        raise NonFiniteError(f"non-finite probabilities {p!r}")
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def sample_action(rng: np.random.Generator, logits: np.ndarray) -> int:
    """One draw from softmax(logits), as Generator.choice would make it."""
    p = softmax(logits)
    return _choice_index(rng, p / p.sum())


def greedy_action(logits: np.ndarray) -> int:
    return int(logits.argmax())  # lowest index on ties, as np.argmax


# ---------------------------------------------------------------------------
# Adam


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    def __init__(self, params: Params):
        self.m = zeros_like_params(params)
        self.v = zeros_like_params(params)
        self.t = 0


def adam_update(params: Params, grads: Params, state: AdamState, lr: float) -> None:
    """Adaptive-moment step with bias correction. The parameter arrays and
    the moments are updated in place, with the elementwise operations of
    p - lr * (m / c1) / (sqrt(v / c2) + eps) in that order, so the result is
    bitwise that of the out-of-place formula. Rejects non-finite gradients
    without touching the parameters or the moments."""
    for k, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient for {k!r}")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for k, g in grads.items():
        m, v = state.m[k], state.v[k]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        step = np.divide(m, c1, out=np.empty_like(m))  # `out` keeps 0-d arrays arrays
        step *= lr
        den = np.divide(v, c2, out=np.empty_like(v))
        np.sqrt(den, out=den)
        den += ADAM_EPS
        step /= den
        params[k] -= step


# ---------------------------------------------------------------------------
# Checkpoint format (ckpt-v1)


def checkpoint_to_text(arrays: dict, meta: dict) -> str:
    for k, v in meta.items():
        if " " in str(k) or " " in str(v):
            raise UsageError(f"checkpoint meta {k!r}={v!r} may not contain spaces")
    header = "ckpt-v1 " + " ".join(f"{k}={v}" for k, v in meta.items())
    lines = [header]
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], dtype=float)
        shape = " ".join(str(s) for s in arr.shape) if arr.ndim else "scalar"
        lines.append(f"array {name} {shape}")
        lines.append(float_row(arr))
    return "\n".join(lines) + "\n"


def checkpoint_from_text(text: str) -> tuple[dict, dict]:
    lines = text.splitlines()
    meta = header_fields(lines, "ckpt-v1")
    arrays: dict[str, np.ndarray] = {}
    i = 1
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        parts = lines[i].split()
        if parts[0] != "array" or len(parts) < 3:
            raise FormatError(f"line {i + 1}: expected 'array <name> <shape>'")
        name = parts[1]
        if name in arrays:
            raise FormatError(f"line {i + 1}: duplicate array {name!r}")
        if i + 1 >= len(lines):
            raise FormatError(f"line {i + 2}: missing values for array {name!r}")
        dims = [] if parts[2:] == ["scalar"] else parts[2:]
        if not all(d.isdecimal() for d in dims):
            raise FormatError(f"line {i + 1}: bad shape for array {name!r}")
        shape = tuple(map(int, dims))
        flat = parse_float_row(lines[i + 1], i + 2, math.prod(shape))
        try:
            arrays[name] = flat.reshape(shape)
        except ValueError:  # an empty array with a dimension numpy cannot index
            raise FormatError(f"line {i + 1}: bad shape for array {name!r}") from None
        i += 2
    return arrays, meta


def save_checkpoint(path, arrays: dict, meta: dict) -> None:
    write_text(path, checkpoint_to_text(arrays, meta))


def load_checkpoint(path) -> tuple[dict, dict]:
    return checkpoint_from_text(read_text(path))

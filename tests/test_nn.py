import numpy as np
import pytest

import zonegraph.nn as nn
from zonegraph.errors import FormatError, NonFiniteError
from zonegraph.selfcheck import fd_probe, random_edge_matrix

from conftest import (actor_critic_backward, gcn_backward, gcn_forward, lstm_backward,
                      lstm_forward_seq_loop, lstm_loop_step, lstm_step_split)


class TestNormalizeAdjacency:
    def test_single_node(self):
        np.testing.assert_array_equal(nn.normalize_adjacency(np.eye(1)), np.eye(1))

    def test_two_nodes_full_edge(self):
        e = np.array([[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(nn.normalize_adjacency(e), np.full((2, 2), 0.5), atol=1e-15)

    def test_random_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = int(rng.integers(2, 8))
            e = random_edge_matrix(rng, m)
            ahat = nn.normalize_adjacency(e)
            deg = np.diag(1.0 / np.sqrt(e.sum(axis=1)))
            oracle = deg @ e @ deg
            np.testing.assert_allclose(ahat, oracle, atol=1e-14)
            assert np.allclose(ahat, ahat.T)
            # symmetric normalization bounds the spectrum, not the row sums
            eigs = np.linalg.eigvalsh(ahat)
            assert np.max(np.abs(eigs)) <= 1.0 + 1e-12


class TestGcn:
    def test_identity_weights_identity_adjacency(self):
        rng = np.random.default_rng(1)
        nodes = np.abs(rng.normal(size=(4, 5)))  # non-negative: ReLU is a no-op
        out, _ = gcn_forward(np.eye(5), np.eye(5), nodes, np.eye(4))
        np.testing.assert_array_equal(out, nodes)

    def test_zero_nodes_zero_output(self):
        rng = np.random.default_rng(2)
        w1 = rng.normal(size=(5, 5))
        w2 = rng.normal(size=(5, 5))
        ahat = nn.normalize_adjacency(random_edge_matrix(rng, 3))
        out, _ = gcn_forward(w1, w2, np.zeros((3, 5)), ahat)
        np.testing.assert_array_equal(out, np.zeros((3, 5)))

    def test_matches_dense_recomputation(self):
        rng = np.random.default_rng(3)
        m, n = 3, 4
        w1 = rng.normal(size=(n, n))
        w2 = rng.normal(size=(n, n))
        nodes = rng.normal(size=(m, n))
        ahat = nn.normalize_adjacency(random_edge_matrix(rng, m))
        out, _ = gcn_forward(w1, w2, nodes, ahat)
        oracle = ahat @ np.maximum(ahat @ nodes @ w1, 0.0) @ w2
        np.testing.assert_allclose(out, oracle, atol=1e-14)
        assert out.shape == (m, n)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 6))
            w1 = rng.normal(size=(n, n))
            w2 = rng.normal(size=(n, n))
            nodes = rng.normal(size=(m, n))
            ahat = nn.normalize_adjacency(random_edge_matrix(rng, m))
            proj = rng.normal(size=(m, n))
            out, cache = gcn_forward(w1, w2, nodes, ahat)
            dw1, dw2, dnodes = gcn_backward(cache, proj, w1, w2)

            def loss(w1=w1, w2=w2, nodes=nodes):
                o, _ = gcn_forward(w1, w2, nodes, ahat)
                return float((o * proj).sum())

            for arr, grad in ((w1, dw1), (w2, dw2), (nodes, dnodes)):
                assert fd_probe(loss, arr, grad, rng, probes=3) <= 1e-4


class TestLstm:
    def test_zero_params_analytic_gates(self):
        h, f = 4, 3
        wx = np.zeros((f, 4 * h))
        wh = np.zeros((h, 4 * h))
        b = np.zeros(4 * h)
        c0 = np.array([0.5, -1.0, 2.0, 0.0])
        h2, c2 = nn.lstm_step(np.ones(f) @ wx + b, wh, np.zeros(h), c0)
        np.testing.assert_allclose(c2, 0.5 * c0, atol=1e-15)
        np.testing.assert_allclose(h2, 0.5 * np.tanh(0.5 * c0), atol=1e-15)

    def test_all_zero_is_zero(self):
        h, f = 3, 2
        zx = np.zeros(f) @ np.zeros((f, 4 * h)) + np.zeros(4 * h)
        h2, c2 = nn.lstm_step(zx, np.zeros((h, 4 * h)), np.zeros(h), np.zeros(h))
        np.testing.assert_array_equal(h2, np.zeros(h))
        np.testing.assert_array_equal(c2, np.zeros(h))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = int(rng.integers(2, 6))
            h = int(rng.integers(2, 6))
            wx = rng.normal(size=(f, 4 * h)) * 0.5
            wh = rng.normal(size=(h, 4 * h)) * 0.5
            b = rng.normal(size=4 * h) * 0.2
            x = rng.normal(size=f)
            h0 = rng.normal(size=h)
            c0 = rng.normal(size=h)
            ph = rng.normal(size=h)
            pc = rng.normal(size=h)
            _, _, cache = lstm_step_split(wx, wh, b, x, h0, c0)
            dwx, dwh, db, dx, dh, dc = lstm_backward(cache, ph, pc, wx, wh)

            def loss():
                h2, c2, _ = lstm_step_split(wx, wh, b, x, h0, c0)
                return float(h2 @ ph + c2 @ pc)

            for arr, grad in ((wx, dwx), (wh, dwh), (b, db), (x, dx), (h0, dh), (c0, dc)):
                assert fd_probe(loss, arr, grad, rng, probes=3) <= 1e-4

    @pytest.mark.parametrize("hidden", [1, 5, 128])
    def test_bitwise_the_split_formula(self, hidden):
        rng = np.random.default_rng(hidden)
        f = 2 * 64 + 64 + 6
        for scale in (0.1, 1.0, 30.0):
            wx = rng.normal(size=(f, 4 * hidden)) * scale / np.sqrt(f)
            wh = rng.normal(size=(hidden, 4 * hidden)) * scale / np.sqrt(hidden)
            b = rng.normal(size=4 * hidden) * scale
            h, c = np.zeros(hidden), np.zeros(hidden)
            for _ in range(40):
                zx = rng.normal(size=f) @ wx + b
                got = nn.lstm_step(zx, wh, h, c)
                want = lstm_loop_step(zx, wh, h, c)
                assert len(got) == 2
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
                h, c = got


    @pytest.mark.parametrize("hidden", [1, 7])
    def test_bitwise_the_split_formula_at_extremes(self, hidden):
        # pre-activations of +-800 overflow exp in the sigmoid, and a NaN
        # input reaches every gate; both must come out as the loop step's
        f = 10
        rng = np.random.default_rng(hidden)
        wx = np.zeros((f, 4 * hidden))
        wx[0] = rng.choice([-800.0, 800.0], size=4 * hidden)
        wh = rng.normal(size=(hidden, 4 * hidden))
        b = rng.normal(size=4 * hidden)
        x = np.zeros(f)
        x[0] = 1.0
        cases = [(x, np.zeros(hidden), np.zeros(hidden)),
                 (-x, rng.normal(size=hidden), rng.normal(size=hidden)),
                 (np.where(np.arange(f) == 3, np.nan, x), np.zeros(hidden), np.ones(hidden)),
                 (x, np.full(hidden, np.nan), np.zeros(hidden)),
                 (x, np.zeros(hidden), np.full(hidden, np.nan))]
        for x_in, h, c in cases:
            with np.errstate(over="ignore", invalid="ignore"):
                zx = x_in @ wx + b
                got = nn.lstm_step(zx, wh, h, c)
                want = lstm_loop_step(zx, wh, h, c)
            assert len(got) == 2
            for a, w in zip(got, want[:2]):
                assert a.shape == w.shape and a.tobytes() == w.tobytes()

    @staticmethod
    def _same_bits(got, want):
        (hs, cache), (ref_hs, ref_cache) = got, want
        assert len(cache) == len(ref_cache)
        for a, w in zip((hs,) + cache, (ref_hs,) + ref_cache):
            assert a.shape == w.shape and a.tobytes() == w.tobytes()

    @pytest.mark.parametrize("hidden", [1, 5, 128])
    def test_sequence_bitwise_the_step_loop(self, hidden):
        rng = np.random.default_rng(100 + hidden)
        f = 2 * 64 + 64 + 6
        for scale in (0.1, 1.0, 30.0):
            for t_len in (1, 2, 37):
                wx = rng.normal(size=(f, 4 * hidden)) * scale / np.sqrt(f)
                wh = rng.normal(size=(hidden, 4 * hidden)) * scale / np.sqrt(hidden)
                b = rng.normal(size=4 * hidden) * scale
                xs = rng.normal(size=(t_len, f))
                self._same_bits(nn.lstm_forward_seq(wx, wh, b, xs),
                                lstm_forward_seq_loop(wx, wh, b, xs))

    def test_sequence_bitwise_the_step_loop_at_extremes(self):
        # rows whose pre-activations overflow exp, and a NaN that enters at
        # step 2 and reaches every later state through the recurrence
        f, hidden, t_len = 10, 7, 6
        rng = np.random.default_rng(3)
        wx = np.zeros((f, 4 * hidden))
        wx[0] = rng.choice([-800.0, 800.0], size=4 * hidden)
        wh = rng.normal(size=(hidden, 4 * hidden))
        b = rng.normal(size=4 * hidden)
        xs = rng.normal(size=(t_len, f))
        xs[::2, 0] = 1.0
        xs[1::2, 0] = -1.0
        for nan_row in (None, 2):
            if nan_row is not None:
                xs[nan_row, 3] = np.nan
            with np.errstate(over="ignore", invalid="ignore"):
                self._same_bits(nn.lstm_forward_seq(wx, wh, b, xs),
                                lstm_forward_seq_loop(wx, wh, b, xs))


class TestGreedyAction:
    def test_argmax_lowest_index_on_ties_and_nan(self):
        rng = np.random.default_rng(15)
        cases = [rng.normal(size=nn.NUM_ACTIONS) * 5 for _ in range(500)]
        cases += [rng.choice([-1.0, 0.0, 2.0], size=nn.NUM_ACTIONS) for _ in range(500)]
        cases += [np.zeros(nn.NUM_ACTIONS), np.full(nn.NUM_ACTIONS, -np.inf)]
        for k in range(nn.NUM_ACTIONS):
            nan = rng.normal(size=nn.NUM_ACTIONS)
            nan[k] = np.nan
            cases.append(nan)
        for logits in cases:
            got = nn.greedy_action(logits)
            assert type(got) is int and got == int(np.argmax(logits))


class TestSampleAction:
    """nn.sample_action against Generator.choice on the same probabilities:
    the same index, and the same generator state after the draw."""

    @staticmethod
    def _logit_cases(rng):
        yield np.zeros(nn.NUM_ACTIONS)
        for _ in range(6000):
            yield rng.normal(size=nn.NUM_ACTIONS) * float(rng.choice([0.01, 1.0, 5.0, 20.0]))
        for _ in range(2000):  # very peaked: one or two logits at +-50
            v = rng.normal(size=nn.NUM_ACTIONS)
            v[rng.integers(nn.NUM_ACTIONS, size=int(rng.integers(1, 3)))] = 50.0
            v[int(rng.integers(nn.NUM_ACTIONS))] = -50.0
            yield v
        for _ in range(2000):  # ties among a few levels
            yield rng.choice([-1.0, 0.0, 0.5, 3.0], size=nn.NUM_ACTIONS)
        for _ in range(500):  # the choices of the trained policy: far below the rest
            v = rng.normal(size=nn.NUM_ACTIONS)
            v[-1] -= 50.0
            yield v

    def test_index_and_generator_state(self):
        cases = list(self._logit_cases(np.random.default_rng(0)))
        assert len(cases) >= 10_000
        ours = np.random.default_rng(123)
        ref = np.random.default_rng(123)
        for logits in cases:
            p = nn.softmax(logits)
            want = int(ref.choice(len(p), p=p / p.sum()))
            assert nn.sample_action(ours, logits) == want
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_choice_index_is_generator_choice(self):
        # the helper that sample_action and the k-means++ seeding share:
        # arbitrary lengths, zeros included, against choice itself
        cases = np.random.default_rng(5)
        ours = np.random.default_rng(77)
        ref = np.random.default_rng(77)
        for _ in range(3000):
            n = int(cases.integers(1, 300))
            w = cases.random(n) ** float(cases.choice([1.0, 4.0]))
            w[cases.random(n) < float(cases.choice([0.0, 0.3, 0.9]))] = 0.0
            if not w.any():
                w[int(cases.integers(n))] = 1.0
            p = w / w.sum()
            assert nn._choice_index(ours, p) == int(ref.choice(len(p), p=p))
            assert ours.bit_generator.state == ref.bit_generator.state

    def test_draw_at_the_top_of_the_unit_interval(self):
        # these probabilities accumulate to 1 - 2**-53; without the division
        # by the last cumulative sum, a draw just below 1 would fall past
        # the last action
        logits = np.array([-1.29, 0.4, 0.43, 0.7, -1.18, -0.66])
        p = nn.softmax(logits)
        assert (p / p.sum()).cumsum()[-1] < 1.0

        class TopDraw:
            def random(self):
                return np.nextafter(1.0, 0.0)

        assert nn.sample_action(TopDraw(), logits) == nn.NUM_ACTIONS - 1

    @pytest.mark.parametrize("logits", [[0, 0, np.nan, 0, 0, 0], [0, 0, np.inf, 0, 0, 0],
                                        [-np.inf] * 6], ids=["nan", "inf", "all-minus-inf"])
    def test_non_finite_probabilities_rejected(self, logits):
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
            nn.sample_action(np.random.default_rng(0), np.array(logits, dtype=float))


class TestHeads:
    def test_zero_weights_uniform_policy_zero_value(self):
        h = np.random.default_rng(6).normal(size=5)
        logits, value = nn.actor_critic(np.zeros((5, 6)), np.zeros(6), np.zeros(5), np.zeros(()), h)
        p = nn.softmax(logits)
        np.testing.assert_allclose(p, np.full(6, 1 / 6), atol=1e-15)
        assert value == 0.0

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            logits = rng.normal(size=6) * float(rng.uniform(0.1, 30))
            assert abs(nn.softmax(logits).sum() - 1.0) < 1e-9

    def test_log_prob_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            hdim = int(rng.integers(2, 6))
            aw = rng.normal(size=(hdim, 6))
            ab = rng.normal(size=6)
            cw = rng.normal(size=hdim)
            cb = np.array(rng.normal())
            h = rng.normal(size=hdim)
            a = int(rng.integers(6))

            logits, value = nn.actor_critic(aw, ab, cw, cb, h)
            p = nn.softmax(logits)
            onehot = np.zeros(6)
            onehot[a] = 1.0
            # d log p[a] / d logits = onehot - p; plus value path gradient
            daw, dab, dcw, dcb, dh = actor_critic_backward(aw, cw, h, onehot - p, 1.0)

            def loss():
                lg, v = nn.actor_critic(aw, ab, cw, cb, h)
                return float(nn.log_softmax(lg)[a] + v)

            for arr, grad in ((aw, daw), (ab, dab), (cw, dcw), (h, dh)):
                assert fd_probe(loss, arr, grad, rng, probes=2) <= 1e-4


class TestSequenceKernels:
    """The *_seq kernels, and actor_critic on (T, H) rows, against their
    per-step references, step by step."""

    TOL = 1e-12

    @staticmethod
    def _close(got, want, tol):
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= tol * (scale if scale > 0 else 1.0)

    def test_gcn_rows_and_gradients_match_per_step(self):
        rng = np.random.default_rng(11)
        t_len, m, n = 7, 4, 5
        w1, w2 = rng.normal(size=(n, n)), rng.normal(size=(n, n))
        ahat = nn.normalize_adjacency(random_edge_matrix(rng, m))
        nodes_seq = rng.normal(size=(t_len, m, n))
        rows = rng.integers(m, size=t_len)
        dout_rows = rng.normal(size=(t_len, n))
        out, cache = nn.gcn_forward_seq(w1, w2, nodes_seq, ahat, rows)
        dw1, dw2, dnodes = nn.gcn_backward_seq(cache, dout_rows, w1, w2)
        ref_dw1, ref_dw2 = np.zeros_like(w1), np.zeros_like(w2)
        for t in range(t_len):
            full, step_cache = gcn_forward(w1, w2, nodes_seq[t], ahat)
            self._close(out[t], full[rows[t]], self.TOL)
            dout = np.zeros((m, n))
            dout[rows[t]] = dout_rows[t]
            a, b, d = gcn_backward(step_cache, dout, w1, w2)
            ref_dw1 += a
            ref_dw2 += b
            self._close(dnodes[t], d, self.TOL)
        self._close(dw1, ref_dw1, self.TOL)
        self._close(dw2, ref_dw2, self.TOL)

    @pytest.mark.parametrize("t_len", [1, 9])
    def test_lstm_states_and_gradients_match_per_step(self, t_len):
        rng = np.random.default_rng(12)
        f, h = 6, 5
        wx = rng.normal(size=(f, 4 * h)) * 0.5
        wh = rng.normal(size=(h, 4 * h)) * 0.5
        b = rng.normal(size=4 * h) * 0.2
        xs = rng.normal(size=(t_len, f))
        dhs = rng.normal(size=(t_len, h))
        hs, cache = nn.lstm_forward_seq(wx, wh, b, xs)
        dwx, dwh, db, dz = nn.lstm_backward_seq(cache, dhs, wx, wh)
        state = (np.zeros(h), np.zeros(h))
        caches = []
        for t in range(t_len):
            hh, cc, step_cache = lstm_step_split(wx, wh, b, xs[t], *state)
            self._close(hs[t], hh, self.TOL)
            state = (hh, cc)
            caches.append(step_cache)
        ref = [np.zeros_like(wx), np.zeros_like(wh), np.zeros_like(b)]
        dh_next, dc_next = np.zeros(h), np.zeros(h)
        for t in range(t_len - 1, -1, -1):
            a, w, d, dx, dh_next, dc_next = lstm_backward(caches[t], dhs[t] + dh_next,
                                                          dc_next, wx, wh)
            for acc, g in zip(ref, (a, w, d)):
                acc += g
            self._close(dz[t] @ wx.T, dx, self.TOL)
        for got, want in zip((dwx, dwh, db), ref):
            self._close(got, want, self.TOL)

    def test_heads_match_per_step(self):
        rng = np.random.default_rng(13)
        t_len, h = 6, 5
        aw, ab = rng.normal(size=(h, nn.NUM_ACTIONS)), rng.normal(size=nn.NUM_ACTIONS)
        cw, cb = rng.normal(size=h), np.array(0.3)
        hs = rng.normal(size=(t_len, h))
        dlogits = rng.normal(size=(t_len, nn.NUM_ACTIONS))
        dvalues = rng.normal(size=t_len)
        logits, values = nn.actor_critic(aw, ab, cw, cb, hs)
        grads = nn.actor_critic_backward_seq(aw, cw, hs, dlogits, dvalues)
        ref = [np.zeros_like(aw), np.zeros_like(ab), np.zeros_like(cw), np.zeros(())]
        for t in range(t_len):
            lg, v = nn.actor_critic(aw, ab, cw, cb, hs[t])
            self._close(logits[t], lg, self.TOL)
            self._close(values[t], v, self.TOL)
            *step, dh = actor_critic_backward(aw, cw, hs[t], dlogits[t], dvalues[t])
            for acc, g in zip(ref, step):
                acc += g
            self._close(grads[4][t], dh, self.TOL)
        for got, want in zip(grads[:4], ref):
            self._close(got, want, self.TOL)

    def test_log_softmax_rows_equal_one_dimensional_calls(self):
        logits = np.random.default_rng(14).normal(size=(8, nn.NUM_ACTIONS)) * 5
        rows = nn.log_softmax(logits)
        for t in range(len(logits)):
            np.testing.assert_array_equal(rows[t], nn.log_softmax(logits[t]))


class TestAdam:
    def test_zero_gradients_leave_params(self):
        params = nn.init_params(4, 4, hidden=4, seed=0)
        before = {k: v.copy() for k, v in params.items()}
        state = nn.AdamState(params)
        nn.adam_update(params, nn.zeros_like_params(params), state, lr=0.1)
        for k in params:
            np.testing.assert_array_equal(params[k], before[k])

    def test_first_step_approaches_signed_lr(self):
        params = {"w": np.array([10.0, -10.0, 1000.0])}
        state = nn.AdamState(params)
        grads = {"w": np.array([50.0, -80.0, 1e6])}
        nn.adam_update(params, grads, state, lr=0.01)
        delta = params["w"] - np.array([10.0, -10.0, 1000.0])
        np.testing.assert_allclose(delta, [-0.01, 0.01, -0.01], rtol=1e-6)

    def test_quadratic_bowl_converges_monotonically(self):
        target = np.array([1.0, -2.0, 3.0])
        params = {"x": np.array([6.0, 6.0, -6.0])}
        state = nn.AdamState(params)
        losses = []
        for _ in range(100):
            grads = {"x": 2.0 * (params["x"] - target)}
            losses.append(float(((params["x"] - target) ** 2).sum()))
            nn.adam_update(params, grads, state, lr=0.1)
        losses.append(float(((params["x"] - target) ** 2).sum()))
        burn = 5
        assert all(losses[i + 1] < losses[i] for i in range(burn, 99))
        assert losses[-1] < losses[0] / 20

    def test_in_place_update_is_bitwise_the_out_of_place_formula(self):
        rng = np.random.default_rng(15)
        params = nn.init_params(4, 3, hidden=4, seed=0)
        params["lambda_raw"] = np.array(0.2)
        arrays = {k: v for k, v in params.items()}  # the objects updated in place
        state = nn.AdamState(params)
        ref = {k: v.copy() for k, v in params.items()}
        m = nn.zeros_like_params(params)
        v = nn.zeros_like_params(params)
        b1, b2, eps, lr = nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPS, 0.01
        for t in range(1, 7):
            grads = {k: rng.normal(size=np.shape(p)) for k, p in params.items()}
            grads["lambda_raw"] = np.float64(rng.normal())  # as the A2C update builds it
            nn.adam_update(params, grads, state, lr=lr)
            for k, g in grads.items():
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * g * g
                mhat = m[k] / (1.0 - b1 ** t)
                vhat = v[k] / (1.0 - b2 ** t)
                ref[k] = ref[k] - lr * mhat / (np.sqrt(vhat) + eps)
            for k in params:
                assert params[k] is arrays[k] and params[k].shape == np.shape(ref[k])
                np.testing.assert_array_equal(params[k], ref[k])
                np.testing.assert_array_equal(state.m[k], m[k])
                np.testing.assert_array_equal(state.v[k], v[k])
        assert params["critic_b"].shape == () and params["lambda_raw"] != 0.2

    def test_non_finite_gradient_rejected(self):
        params = {"w": np.zeros(3)}
        state = nn.AdamState(params)
        with pytest.raises(NonFiniteError):
            nn.adam_update(params, {"w": np.array([1.0, np.nan, 0.0])}, state, lr=0.1)
        np.testing.assert_array_equal(params["w"], np.zeros(3))
        assert state.t == 0


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        params = nn.init_params(8, 8, hidden=8, seed=3)
        meta = {"D": 8, "N": 8, "M": 4, "H": 8, "seed": 3}
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, params, meta)
        arrays, meta2 = nn.load_checkpoint(path)
        assert meta2 == {k: str(v) for k, v in meta.items()}
        assert set(arrays) == set(params)
        for k in params:
            np.testing.assert_array_equal(arrays[k], params[k])
            assert arrays[k].shape == params[k].shape
        # byte-identical when saved again
        nn.save_checkpoint(tmp_path / "again.ckpt", arrays, meta2)
        assert (tmp_path / "model.ckpt").read_text() == (tmp_path / "again.ckpt").read_text()

    def test_version_rejected(self):
        with pytest.raises(FormatError):
            nn.checkpoint_from_text("ckpt-v2 D=1\n")

    def test_value_count_mismatch_rejected(self):
        text = "ckpt-v1 D=1\narray w 2 2\n1.0 2.0 3.0\n"
        with pytest.raises(FormatError):
            nn.checkpoint_from_text(text)

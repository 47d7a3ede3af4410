import itertools
import math

import numpy as np
import pytest

import zonegraph.nn as nn
from zonegraph.controller import (
    GraphState,
    adapt_graph,
    graph_feature,
    locate_current_zone,
    max_product_path,
    target_zone,
)
from zonegraph.embedding import EmbeddingProvider, observation_feature
from zonegraph import policy
from zonegraph.errors import ConfigError, UsageError
from zonegraph.graph import KnowledgeGraph, build_scene_graph
from zonegraph.policy import (
    TrainConfig,
    Trajectory,
    a2c_loss_and_grads,
    a2c_update,
    compose_input,
    compute_returns,
    reward,
    rollout,
    train,
    _episode_rng,
)
from zonegraph.selfcheck import random_edge_matrix, random_trajectory
from zonegraph.sim import Action, generate_scene, reset_episode, step, visible_objects

from conftest import (actor_critic_backward, fd_check, gcn_backward, gcn_forward,
                      image_feature, lstm_backward, lstm_step_split, make_scene,
                      unfactored_cell_step)

ALL_MASKS = [frozenset(m) for k in range(len(policy.MASKABLE) + 1)
             for m in itertools.combinations(sorted(policy.MASKABLE), k)]


def pool_spatial(spatial: np.ndarray) -> np.ndarray:
    """Mean over all grid cells, zeros included."""
    return spatial.mean(axis=(0, 1))


def _rollout_reference(state, params, graph, provider, rng, greedy, mask):
    """The rollout one stage at a time through the reference kernels: the
    G x G x D image grid and its mean, an unmemoised planner, the split-gate
    recurrent cell and Generator.choice. rollout must match it bitwise."""
    gs = GraphState(graph, lam=float(nn.sigmoid(params["lambda_raw"])))
    goal_emb = provider.object_embedding(state.goal)
    z_target = target_zone(gs, goal_emb)
    hidden = nn.hidden_size(params)
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    prev_action = -1
    steps = []  # (img, f_obs, zone, subgoal, action, reward)
    while not state.terminated:
        obs = visible_objects(state.scene, state.pose)
        spatial = image_feature(provider, obs)
        img = nn.IMG_INPUT_GAIN * pool_spatial(spatial)
        f_obs = observation_feature(provider, obs)
        zone = locate_current_zone(gs, f_obs)
        adapt_graph(gs, f_obs, zone)
        subgoal = z_target
        if zone != z_target:
            path, _ = max_product_path(graph.edges, zone, z_target)
            subgoal = path[1] if path else zone
        f_gra = graph_feature(params, gs, subgoal)
        x = nn.CELL_INPUT_GAIN * compose_input(img, goal_emb, f_gra, prev_action, mask)
        h, c, _ = lstm_step_split(params["lstm_wx"], params["lstm_wh"], params["lstm_b"], x, h, c)
        logits, _ = nn.actor_critic(
            params["actor_w"], params["actor_b"], params["critic_w"], params["critic_b"], h
        )
        if greedy:
            action = nn.greedy_action(logits)
        else:
            p = nn.softmax(logits)
            action = int(rng.choice(len(p), p=p / p.sum()))
        event = step(state, Action(action))
        steps.append((img, f_obs, zone, subgoal, action, reward(event)))
        prev_action = action
    img, f_obs, zones, subgoals, actions, rewards = (np.array(col) for col in zip(*steps))
    return Trajectory(img=img, f_obs=f_obs, zones=zones, subgoals=subgoals, actions=actions,
                      rewards=rewards, goal=state.goal, goal_emb=goal_emb,
                      success=state.success, mask=mask)


def _a2c_reference(params, trajectories, graph, config, frozen_advantages=None):
    """The update one step at a time through the finite-difference-tested
    per-step reference kernels of conftest: the oracle that the batched
    a2c_loss_and_grads must match."""
    grads = nn.zeros_like_params(params)
    lam = float(nn.sigmoid(params["lambda_raw"]))
    w1, w2 = params["gcn_w1"], params["gcn_w2"]
    wx, wh, b = params["lstm_wx"], params["lstm_wh"], params["lstm_b"]
    aw, ab, cw, cb = params["actor_w"], params["actor_b"], params["critic_w"], params["critic_b"]
    hidden = nn.hidden_size(params)
    dim = trajectories[0].goal_emb.shape[0]
    n_feat = graph.feature_dim
    ahat = nn.normalize_adjacency(graph.edges)
    total_loss = 0.0
    policy_loss = value_loss = entropy_sum = 0.0
    dlam = 0.0
    advantage_list = []

    for traj_idx, traj in enumerate(trajectories):
        t_len = traj.length
        prev_actions = [-1] + traj.actions[:-1].tolist()
        adapted = graph.nodes.copy()
        h = np.zeros(hidden)
        c = np.zeros(hidden)
        old_rows, gcn_caches, lstm_caches, h_list, logits_list = [], [], [], [], []
        values = np.zeros(t_len)
        for t in range(t_len):
            zone = traj.zones[t]
            old_row = adapted[zone].copy()
            adapted[zone] = lam * traj.f_obs[t] + (1.0 - lam) * old_row
            old_rows.append(old_row)
            gcn_out, gcache = gcn_forward(w1, w2, adapted, ahat)
            gcn_caches.append(gcache)
            f_gra = gcn_out[traj.subgoals[t]]
            x = nn.CELL_INPUT_GAIN * compose_input(
                traj.img[t], traj.goal_emb, f_gra, prev_actions[t], traj.mask
            )
            h, c, lcache = lstm_step_split(wx, wh, b, x, h, c)
            lstm_caches.append(lcache)
            h_list.append(h)
            logits, value = nn.actor_critic(aw, ab, cw, cb, h)
            logits_list.append(logits)
            values[t] = value

        returns = compute_returns(traj.rewards.tolist(), config.gamma)
        if frozen_advantages is not None:
            advantages = frozen_advantages[traj_idx]
        else:
            advantages = returns - values
        advantage_list.append(advantages)

        dlogits_list = []
        dvalues = np.zeros(t_len)
        for t in range(t_len):
            logp = nn.log_softmax(logits_list[t])
            p = np.exp(logp)
            ent = float(-(p * logp).sum())
            a = traj.actions[t]
            total_loss += -advantages[t] * logp[a]
            policy_loss += -advantages[t] * logp[a]
            total_loss += config.value_coef * (returns[t] - values[t]) ** 2
            value_loss += (returns[t] - values[t]) ** 2
            total_loss += -config.entropy_coef * ent
            entropy_sum += ent
            onehot = np.zeros(nn.NUM_ACTIONS)
            onehot[a] = 1.0
            dlogits = -advantages[t] * (onehot - p) + config.entropy_coef * p * (logp + ent)
            dlogits_list.append(dlogits)
            dvalues[t] = config.value_coef * 2.0 * (values[t] - returns[t])

        dh_next = np.zeros(hidden)
        dc_next = np.zeros(hidden)
        d_adapted = np.zeros((graph.zone_count, n_feat))
        for t in range(t_len - 1, -1, -1):
            zone = traj.zones[t]
            daw, dab, dcw, dcb, dh_head = actor_critic_backward(
                aw, cw, h_list[t], dlogits_list[t], dvalues[t]
            )
            grads["actor_w"] += daw
            grads["actor_b"] += dab
            grads["critic_w"] += dcw
            grads["critic_b"] = grads["critic_b"] + dcb
            dwx, dwh, db, dx, dh_next, dc_next = lstm_backward(
                lstm_caches[t], dh_head + dh_next, dc_next, wx, wh
            )
            grads["lstm_wx"] += dwx
            grads["lstm_wh"] += dwh
            grads["lstm_b"] += db
            dgra = nn.CELL_INPUT_GAIN * dx[2 * dim : 2 * dim + n_feat]
            if "gra" in traj.mask:
                dgra = np.zeros_like(dgra)
            dout = np.zeros((graph.zone_count, n_feat))
            dout[traj.subgoals[t]] = dgra
            dw1, dw2, dnodes = gcn_backward(gcn_caches[t], dout, w1, w2)
            grads["gcn_w1"] += dw1
            grads["gcn_w2"] += dw2
            d_adapted += dnodes
            dlam += float(d_adapted[zone] @ (traj.f_obs[t] - old_rows[t]))
            d_adapted[zone] *= 1.0 - lam

    grads["lambda_raw"] = grads["lambda_raw"] + dlam * lam * (1.0 - lam)
    stats = {
        "loss": float(total_loss),
        "policy_loss": float(policy_loss),
        "value_loss": float(value_loss),
        "entropy": float(entropy_sum),
        "advantages": advantage_list,
    }
    return float(total_loss), grads, stats


def zero_params(dim, node_dim, hidden=8):
    return {k: np.zeros_like(v) for k, v in nn.init_params(dim, node_dim, hidden).items()}


def tiny_world(provider, zones=2):
    scene = make_scene(4, 4, [("Sink", 0, 0, "mid"), ("Pan", 3, 3, "mid"),
                              ("Bowl", 0, 3, "low"), ("Kettle", 3, 0, "mid")])
    graph = build_scene_graph(scene, provider, zones=zones, eps=0.5, seed=0)
    return scene, graph


class TestComposeInput:
    def test_zero_grid_pools_to_zero(self):
        spatial = np.zeros((7, 7, 16))
        assert np.all(pool_spatial(spatial) == 0.0)

    def test_single_cell_divided_by_grid_size(self):
        spatial = np.zeros((7, 7, 4))
        v = np.array([1.0, -2.0, 3.0, 4.0])
        spatial[2, 5] = v
        np.testing.assert_allclose(pool_spatial(spatial), v / 49, atol=1e-15)

    @staticmethod
    def _action_block(prev_action):
        x = compose_input(np.full(3, 1.0), np.full(3, 2.0), np.full(4, 3.0), prev_action)
        return x[nn.input_layout(3, 4)[3]]

    def test_one_hot_done(self):
        np.testing.assert_array_equal(self._action_block(5), [0, 0, 0, 0, 0, 1])

    def test_first_step_all_zero_action(self):
        assert np.all(self._action_block(-1) == 0.0)

    def test_layout_and_length(self):
        img = np.full(3, 1.0)
        obj = np.full(3, 2.0)
        gra = np.full(4, 3.0)
        x = compose_input(img, obj, gra, 0)
        assert x.shape == (2 * 3 + 4 + 6,)
        np.testing.assert_array_equal(x[:3], img)
        np.testing.assert_array_equal(x[3:6], obj)
        np.testing.assert_array_equal(x[6:10], gra)
        np.testing.assert_array_equal(x[10:], [1, 0, 0, 0, 0, 0])

    def test_masking_zeroes_components(self):
        img = np.full(3, 1.0)
        obj = np.full(3, 2.0)
        gra = np.full(4, 3.0)
        x = compose_input(img, obj, gra, 2, mask=frozenset({"img", "act"}))
        assert np.all(x[:3] == 0.0)
        np.testing.assert_array_equal(x[3:6], obj)
        np.testing.assert_array_equal(x[6:10], gra)
        assert np.all(x[10:] == 0.0)

    def test_unknown_mask_rejected(self):
        with pytest.raises(ConfigError):
            compose_input(np.zeros(2), np.zeros(2), np.zeros(2), 0, mask=frozenset({"bogus"}))
        with pytest.raises(ConfigError):
            compose_input(np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)), np.array([-1, 0]),
                          mask=frozenset({"bogus"}))

    @pytest.mark.parametrize("mask", ALL_MASKS)
    def test_rows_are_the_stack_of_step_calls(self, mask):
        rng = np.random.default_rng(len(mask))
        t_len, d, n = 9, 5, 4
        img, f_gra = rng.normal(size=(t_len, d)), rng.normal(size=(t_len, n))
        goal = rng.normal(size=d)
        img[3] = -0.0  # signed zeros keep their sign through composition
        prev = np.concatenate(([-1], rng.integers(nn.NUM_ACTIONS, size=t_len - 1)))
        prev[5] = -1  # no previous action on a later row as well
        got = compose_input(img, goal, f_gra, prev, mask)
        want = np.array([compose_input(img[t], goal, f_gra[t], int(prev[t]), mask)
                         for t in range(t_len)])
        assert got.shape == want.shape == (t_len, nn.input_size(d, n))
        assert got.tobytes() == want.tobytes()
        if "act" not in mask:
            assert got[:, nn.input_layout(d, n)[3]].sum(axis=1).tolist() == [
                0.0 if a < 0 else 1.0 for a in prev]


class TestReward:
    def test_success_is_five(self):
        assert reward("success") == 5.0

    def test_ordinary_step_penalty(self):
        assert reward("moved") == -0.01

    def test_failed_done_penalty(self):
        assert reward("failed_done") == -0.01
        assert reward("timeout") == -0.01


class TestRollout:
    def test_deterministic_for_seed(self, small_provider):
        scene, graph = tiny_world(small_provider)
        params = nn.init_params(8, graph.feature_dim, hidden=8, seed=0)
        a = rollout(reset_episode(scene, "Sink", seed=4), params, graph, small_provider, rng=11)
        b = rollout(reset_episode(scene, "Sink", seed=4), params, graph, small_provider, rng=11)
        assert np.array_equal(a.actions, b.actions)
        assert a.success == b.success and a.length == b.length

    def test_length_never_exceeds_t_max(self, small_provider):
        scene, graph = tiny_world(small_provider)
        params = zero_params(8, graph.feature_dim)
        for seed in range(30):
            st = reset_episode(scene, "Pan", seed=seed, t_max=17)
            traj = rollout(st, params, graph, small_provider, rng=seed)
            assert traj.length <= 17

    def test_uniform_policy_one_step_success_binomial(self, small_provider):
        # both cells hold the goal at distance zero, so the first Done always
        # succeeds; under zero parameters P(Done first) is exactly 1/6
        scene = make_scene(2, 1, [("Sink", 0, 0, "mid"), ("Sink", 1, 0, "mid")])
        graph = build_scene_graph(scene, small_provider, zones=1, eps=0.5, seed=0)
        params = zero_params(8, graph.feature_dim)
        n = 10000
        hits = 0
        for i in range(n):
            st = reset_episode(scene, "Sink", seed=i, t_max=50)
            traj = rollout(st, params, graph, small_provider, rng=i)
            if traj.length == 1 and traj.success:
                hits += 1
        p = 1.0 / 6.0
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) <= 3 * sigma

    def test_greedy_is_deterministic_without_rng(self, small_provider):
        scene, graph = tiny_world(small_provider)
        params = nn.init_params(8, graph.feature_dim, hidden=8, seed=1)
        a = rollout(reset_episode(scene, "Sink", seed=2), params, graph, small_provider,
                    rng=1, greedy=True)
        b = rollout(reset_episode(scene, "Sink", seed=2), params, graph, small_provider,
                    rng=999, greedy=True)
        assert np.array_equal(a.actions, b.actions)

    def test_terminated_episode_rejected(self, small_provider):
        scene, graph = tiny_world(small_provider)
        params = nn.init_params(8, graph.feature_dim, hidden=8, seed=0)
        state = reset_episode(scene, "Bowl", seed=0)
        rollout(state, params, graph, small_provider, rng=0)
        with pytest.raises(UsageError, match="terminated"):
            rollout(state, params, graph, small_provider, rng=0)

    def test_exactly_one_terminal_step(self, small_provider):
        # one record per environment step, the last of which ends the episode
        scene, graph = tiny_world(small_provider)
        params = nn.init_params(8, graph.feature_dim, hidden=8, seed=0)
        for seed in range(10):
            state = reset_episode(scene, "Bowl", seed=seed)
            traj = rollout(state, params, graph, small_provider, rng=seed)
            assert state.terminated and traj.length == state.step_count


@pytest.fixture(scope="module")
def worlds():
    out = []
    for seed, dim in ((0, 64), (3, 16)):
        provider = EmbeddingProvider.synthetic(dim=dim, seed=0)
        scene = generate_scene("kitchen", (8, 8), seed)
        graph = build_scene_graph(scene, provider, zones=8, eps=0.5, seed=0)
        params = nn.init_params(dim, graph.feature_dim, seed=seed)
        # a sharper policy than the near-uniform initial one, so that
        # episodes move, turn and stop for a range of reasons
        params["actor_w"] = params["actor_w"] * 300.0
        params["lambda_raw"] = np.array(0.8)
        goals = sorted(scene.goal_categories_present())[:3]
        out.append((scene, graph, provider, params, goals))
    return out


def turning_params(params):
    """A policy that mostly turns and looks in place, so that it revisits its
    few poses and most steps read the episode's perception memo."""
    turning = dict(params)
    turning["actor_w"] = params["actor_w"] * 0.01
    turning["actor_b"] = np.array([-4.0, 6.0, 2.0, 5.0, 5.0, -8.0])
    return turning


class TestRolloutMatchesReference:
    """rollout against _rollout_reference, field by field and bitwise, with
    the generator state after the episode."""

    @staticmethod
    def _assert_same(got, want):
        assert (got.goal, got.success, got.mask) == (want.goal, want.success, want.mask)
        assert np.array_equal(got.goal_emb, want.goal_emb)
        for name in ("img", "f_obs", "zones", "subgoals", "actions", "rewards"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    @classmethod
    def _compare(cls, scene, graph, provider, params, goal, seed, t_max, greedy, mask):
        st_a = reset_episode(scene, goal, seed=seed, t_max=t_max)
        st_b = reset_episode(scene, goal, seed=seed, t_max=t_max)
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        got = rollout(st_a, params, graph, provider, rng_a, greedy=greedy, mask=mask)
        want = _rollout_reference(st_b, params, graph, provider, rng_b, greedy, mask)
        cls._assert_same(got, want)
        assert (st_a.pose, st_a.step_count, st_a.success, st_a.traveled) == \
            (st_b.pose, st_b.step_count, st_b.success, st_b.traveled)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        return got

    @pytest.mark.parametrize("greedy", [False, True], ids=["sampled", "greedy"])
    @pytest.mark.parametrize("mask", [(), ("img",), ("gra",), ("obj", "act"), ("act",),
                                      ("img", "obj", "gra", "act")])
    def test_bitwise_identical(self, worlds, greedy, mask):
        mask = frozenset(mask)
        lengths = set()
        for w, (scene, graph, provider, params, goals) in enumerate(worlds):
            for g, goal in enumerate(goals):
                for t_max in (6, 100):
                    seed = 100 * w + 10 * g + t_max
                    got = self._compare(scene, graph, provider, params, goal, seed, t_max,
                                        greedy, mask)
                    lengths.add(got.length)
        assert len(lengths) >= 2  # episodes of several lengths were compared

    @pytest.mark.parametrize("greedy", [False, True], ids=["sampled", "greedy"])
    def test_turning_in_place_revisits_poses(self, worlds, greedy, monkeypatch):
        # a policy that mostly turns and looks in place revisits its few
        # poses, so most steps read the episode's perception memo; perception
        # runs once per distinct pose
        calls = []
        real = policy.visible_objects

        def counted(scene, pose):
            calls.append(pose)
            return real(scene, pose)

        monkeypatch.setattr(policy, "visible_objects", counted)
        for w, (scene, graph, provider, params, goals) in enumerate(worlds):
            turning = turning_params(params)
            for g, goal in enumerate(goals):
                calls.clear()
                got = self._compare(scene, graph, provider, turning, goal, 7 * w + g, 60,
                                    greedy, frozenset())
                assert len(calls) == len(set(calls))
                assert got.length == 60 and 2 * len(calls) <= got.length

    def test_memo_does_not_outlive_its_episode(self, worlds):
        # the same episode on one scene under two providers: each rollout
        # matches the reference under its own provider
        scene, graph, provider, params, goals = worlds[0]
        other = EmbeddingProvider.synthetic(dim=provider.dim, seed=1)
        saw_objects = False
        for greedy in (False, True):
            for seed in range(4):
                for p in (provider, other, provider):
                    got = self._compare(scene, graph, p, params, goals[0], seed, 40, greedy,
                                        frozenset())
                    saw_objects = saw_objects or bool(got.img.any())
        assert saw_objects  # the providers' features entered some episodes


class TestFactoredCellInput:
    """rollout sums the cell's input projection block by block, each block
    as often as it changes, so its hidden states differ from the unfactored
    form's in their last bits. Held to conftest's unfactored_cell_step,
    replayed along the episode: the re-baseline tolerance on h and the
    logits of every step, and identical actions."""

    TOL = 1e-12

    @staticmethod
    def _record(monkeypatch):
        """Record each rollout step's hidden state and logits, and the
        poses perceived."""
        seen = {"h": [], "logits": [], "perceived": []}
        real_step, real_greedy, real_sample = nn.lstm_step, nn.greedy_action, nn.sample_action
        real_visible = policy.visible_objects

        def lstm_step(*args):
            h, c = real_step(*args)
            seen["h"].append(h)
            return h, c

        def greedy_action(logits):
            seen["logits"].append(logits)
            return real_greedy(logits)

        def sample_action(rng, logits):
            seen["logits"].append(logits)
            return real_sample(rng, logits)

        def visible_objects(scene, pose):
            seen["perceived"].append(pose)
            return real_visible(scene, pose)

        monkeypatch.setattr(nn, "lstm_step", lstm_step)
        monkeypatch.setattr(nn, "greedy_action", greedy_action)
        monkeypatch.setattr(nn, "sample_action", sample_action)
        monkeypatch.setattr(policy, "visible_objects", visible_objects)
        return seen

    @staticmethod
    def _replay(traj, seen, params, graph, rng, greedy):
        """Step through the episode in the unfactored form, taking its own
        actions, and return the worst relative error of the rollout's h and
        logits over the steps."""
        gs = GraphState(graph, lam=float(nn.sigmoid(params["lambda_raw"])))
        h = c = np.zeros(nn.hidden_size(params))
        prev_action = -1  # the first step has none
        worst = 0.0
        for t in range(traj.length):
            zone = int(traj.zones[t])
            adapt_graph(gs, traj.f_obs[t], zone)
            f_gra = graph_feature(params, gs, int(traj.subgoals[t]))
            h, c = unfactored_cell_step(params, traj.img[t], traj.goal_emb, f_gra, prev_action,
                                        traj.mask, h, c)
            logits = h @ params["actor_w"] + params["actor_b"]
            worst = max(worst, _rel_err(seen["h"][t], h), _rel_err(seen["logits"][t], logits))
            if greedy:
                prev_action = int(np.argmax(logits))
            else:
                p = nn.softmax(logits)
                prev_action = int(rng.choice(len(p), p=p / p.sum()))
            assert prev_action == traj.actions[t], t
        return worst

    @pytest.mark.parametrize("greedy", [False, True], ids=["sampled", "greedy"])
    @pytest.mark.parametrize("mask", ALL_MASKS)
    def test_matches_unfactored_form(self, worlds, greedy, mask, monkeypatch):
        seen = self._record(monkeypatch)
        steps = revisits = 0
        worst = 0.0
        for w, (scene, graph, provider, sharp, goals) in enumerate(worlds):
            for params in (sharp, turning_params(sharp)):
                for g, goal in enumerate(goals):
                    for value in seen.values():
                        value.clear()
                    seed = 100 * w + 10 * g
                    st = reset_episode(scene, goal, seed=seed, t_max=60)
                    traj = rollout(st, params, graph, provider, np.random.default_rng(seed),
                                   greedy=greedy, mask=mask)
                    assert len(seen["h"]) == len(seen["logits"]) == traj.length
                    worst = max(worst, self._replay(traj, seen, params, graph,
                                                    np.random.default_rng(seed), greedy))
                    steps += traj.length
                    revisits += traj.length - len(seen["perceived"])
        assert worst <= self.TOL
        assert 2 * revisits >= steps  # most steps read the perception memo


class TestReturnsAndLoss:
    def test_return_identity(self):
        rng = np.random.default_rng(0)
        rewards = list(rng.normal(size=12))
        gamma = 0.97
        r = compute_returns(rewards, gamma)
        for t in range(11):
            assert r[t] == pytest.approx(rewards[t] + gamma * r[t + 1], abs=1e-12)
        assert r[11] == pytest.approx(rewards[11], abs=1e-15)

    def test_two_step_arithmetic(self):
        r = compute_returns([-0.01, 5.0], 0.9)
        assert r[0] == pytest.approx(4.49, abs=1e-12)
        assert r[1] == pytest.approx(5.0, abs=1e-15)

    def test_one_step_advantage_is_reward_minus_value(self, small_provider):
        scene, graph = tiny_world(small_provider)
        params = nn.init_params(8, graph.feature_dim, hidden=8, seed=2)
        # the first step of a rollout as a one-step trajectory
        st = reset_episode(scene, "Sink", seed=1)
        traj = rollout(st, params, graph, small_provider, rng=3)
        first = slice(0, 1)
        one = Trajectory(traj.img[first], traj.f_obs[first], traj.zones[first],
                         traj.subgoals[first], traj.actions[first], traj.rewards[first],
                         traj.goal, traj.goal_emb, False)
        _, _, stats = a2c_loss_and_grads(params, [one], graph, TrainConfig())
        adv = stats["advantages"][0]
        # the value of that step, recomputed at identical parameters
        gs = GraphState(graph, lam=float(nn.sigmoid(params["lambda_raw"])))
        adapt_graph(gs, one.f_obs[0], int(one.zones[0]))
        f_gra = graph_feature(params, gs, int(one.subgoals[0]))
        x = nn.CELL_INPUT_GAIN * compose_input(one.img[0], one.goal_emb, f_gra, -1)
        hidden = np.zeros(8)
        h, _ = nn.lstm_step(x @ params["lstm_wx"] + params["lstm_b"], params["lstm_wh"],
                            hidden, hidden)
        _, value = nn.actor_critic(params["actor_w"], params["actor_b"], params["critic_w"],
                                   params["critic_b"], h)
        assert adv[0] == pytest.approx(one.rewards[0] - value, abs=1e-9)

    def test_entropy_at_zero_params_is_log6(self, small_provider):
        scene, graph = tiny_world(small_provider)
        params = zero_params(8, graph.feature_dim)
        st = reset_episode(scene, "Sink", seed=0, t_max=5)
        traj = rollout(st, params, graph, small_provider, rng=0)
        _, _, stats = a2c_loss_and_grads(params, [traj], graph, TrainConfig())
        per_step_entropy = stats["entropy"] / traj.length
        assert abs(per_step_entropy - math.log(6)) < 1e-12

    @staticmethod
    def _fd_case():
        rng = np.random.default_rng(21)
        m, n, h, d = 4, 6, 8, 5
        graph = KnowledgeGraph(rng.standard_normal((m, n)) * 0.5,
                               random_edge_matrix(rng, m), "kitchen")
        params = nn.init_params(d, n, hidden=h, seed=1)
        params["lambda_raw"] = np.array(0.37)
        traj = random_trajectory(rng, m, n, d, 3)
        cfg = TrainConfig(gamma=0.9)
        _, grads, stats = a2c_loss_and_grads(params, [traj], graph, cfg)
        adv = stats["advantages"]

        def loss_fn(p):
            l, _, _ = a2c_loss_and_grads(p, [traj], graph, cfg, frozen_advantages=adv)
            return l

        return params, grads, loss_fn, rng

    def test_full_loss_gradient_matches_finite_differences(self):
        params, grads, loss_fn, rng = self._fd_case()
        worst = fd_check(loss_fn, params, grads, rng, probes_per_array=6)
        assert worst <= 1e-4
        # adaptation recurrence must feed the blend parameter a real gradient
        assert grads["lambda_raw"] != 0.0

    def test_finite_differences_detect_corrupted_gradient(self):
        # a gradient off by a relative 1e-3 must not pass the 1e-4 tolerance
        params, grads, loss_fn, rng = self._fd_case()
        scaled = {k: g * 1.001 for k, g in grads.items()}
        assert fd_check(loss_fn, params, scaled, rng, probes_per_array=6) > 1e-4


def _rel_err(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    scale = np.abs(want).max()
    diff = np.abs(got - want).max()
    return float(diff / scale) if scale > 0 else float(diff)


class TestBatchedUpdateMatchesReference:
    """a2c_loss_and_grads batches each trajectory over its steps; the
    per-step _a2c_reference fixes what it computes. Summation order differs,
    so the two agree to round-off, not bitwise."""

    TOL = 1e-10

    def _compare(self, hidden, lengths, masks, seed=0, frozen=False):
        rng = np.random.default_rng(seed)
        m, n, d = 5, 7, 6
        graph = KnowledgeGraph(rng.standard_normal((m, n)) * 0.5,
                               random_edge_matrix(rng, m), "kitchen")
        params = nn.init_params(d, n, hidden=hidden, seed=seed)
        params["lambda_raw"] = np.array(0.4)
        params["actor_w"] = rng.standard_normal(params["actor_w"].shape) * 0.3
        params["critic_w"] = rng.standard_normal(params["critic_w"].shape) * 0.3
        trajs = [random_trajectory(rng, m, n, d, t_len, img_scale=0.3, mask=mask)
                 for t_len, mask in zip(lengths, masks)]
        cfg = TrainConfig(gamma=0.95)
        adv = [rng.standard_normal(t_len) for t_len in lengths] if frozen else None
        loss, grads, stats = a2c_loss_and_grads(params, trajs, graph, cfg, frozen_advantages=adv)
        ref_loss, ref_grads, ref_stats = _a2c_reference(params, trajs, graph, cfg,
                                                        frozen_advantages=adv)
        errors = {"loss": _rel_err(loss, ref_loss)}
        errors.update({k: _rel_err(grads[k], ref_grads[k]) for k in params})
        for key in ("policy_loss", "value_loss", "entropy"):
            errors[key] = _rel_err(stats[key], ref_stats[key])
        assert len(stats["advantages"]) == len(trajs)
        for i, (a, r) in enumerate(zip(stats["advantages"], ref_stats["advantages"])):
            errors[f"advantages[{i}]"] = _rel_err(a, r)
        worst = max(errors, key=errors.get)
        assert errors[worst] <= self.TOL, (worst, errors[worst])
        return grads

    @pytest.mark.parametrize("hidden", [8, 32])
    @pytest.mark.parametrize("mask", [(), ("gra",), ("obj",), ("img", "act")])
    def test_masks(self, hidden, mask):
        grads = self._compare(hidden, [14], [mask])
        if "gra" in mask:
            assert not grads["gcn_w1"].any() and grads["lambda_raw"] == 0.0
        else:
            assert grads["gcn_w1"].any() and grads["lambda_raw"] != 0.0

    @pytest.mark.parametrize("hidden", [8, 32])
    def test_multi_trajectory_batch(self, hidden):
        self._compare(hidden, [9, 1, 23, 4], [(), ("obj",), (), ("gra",)], seed=3)

    @pytest.mark.parametrize("hidden", [8, 32])
    def test_one_step_trajectory(self, hidden):
        self._compare(hidden, [1], [()], seed=5)

    @pytest.mark.parametrize("hidden", [8, 32])
    def test_frozen_advantages(self, hidden):
        self._compare(hidden, [11, 6], [(), ("img", "act")], seed=7, frozen=True)

    def test_rollout_trajectories(self, small_provider):
        # trajectories the policy itself rolls out, at the default hidden size
        scene, graph = tiny_world(small_provider, zones=3)
        params = nn.init_params(8, graph.feature_dim, seed=4)
        trajs = [rollout(reset_episode(scene, goal, seed=i, t_max=30), params, graph,
                         small_provider, rng=i)
                 for i, goal in enumerate(("Sink", "Pan", "Bowl"))]
        cfg = TrainConfig()
        loss, grads, stats = a2c_loss_and_grads(params, trajs, graph, cfg)
        ref_loss, ref_grads, ref_stats = _a2c_reference(params, trajs, graph, cfg)
        assert _rel_err(loss, ref_loss) <= self.TOL
        for k in params:
            assert _rel_err(grads[k], ref_grads[k]) <= self.TOL, k
        for a, r in zip(stats["advantages"], ref_stats["advantages"]):
            assert _rel_err(a, r) <= self.TOL


class TestTrain:
    def test_zero_episodes_keeps_initialization(self, small_provider):
        scene, graph = tiny_world(small_provider)
        cfg = TrainConfig(episodes=0, seed=3)
        result = train(cfg, [scene], graph, small_provider, hidden=8)
        init = nn.init_params(8, graph.feature_dim, 8, seed=3)
        for k in init:
            np.testing.assert_array_equal(result.params[k], init[k])

    def test_synchronous_bitwise_deterministic(self, small_provider):
        scene, graph = tiny_world(small_provider)
        cfg = TrainConfig(episodes=12, workers=3, seed=5, t_max=20)
        a = train(cfg, [scene], graph, small_provider, hidden=8)
        b = train(TrainConfig(episodes=12, workers=3, seed=5, t_max=20),
                  [scene], graph, small_provider, hidden=8)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])
        assert a.goal_log == b.goal_log

    def test_rollouts_independent_of_completion_order(self, small_provider):
        # worker episodes are pure functions of (seed, episode index), so a
        # batch assembled in worker-index order is identical however the
        # rollouts were scheduled
        scene, graph = tiny_world(small_provider)
        params = nn.init_params(8, graph.feature_dim, 8, seed=7)
        graph_state_goals = ["Sink", "Pan", "Bowl", "Kettle"]

        def episode(idx):
            rng = _episode_rng(9, idx)
            _ = rng.integers(1)  # scene draw placeholder for the single scene
            goal = graph_state_goals[int(rng.integers(len(graph_state_goals)))]
            st = reset_episode(scene, goal, seed=int(rng.integers(2**63)), t_max=15)
            return rollout(st, params, graph, small_provider, rng)

        in_order = [episode(i) for i in (0, 1, 2, 3)]
        shuffled = {i: episode(i) for i in (2, 0, 3, 1)}
        reassembled = [shuffled[i] for i in (0, 1, 2, 3)]
        pa = {k: v.copy() for k, v in params.items()}
        pb = {k: v.copy() for k, v in params.items()}
        cfg = TrainConfig()
        a2c_update(in_order, pa, nn.AdamState(pa), graph, cfg)
        a2c_update(reassembled, pb, nn.AdamState(pb), graph, cfg)
        for k in pa:
            np.testing.assert_array_equal(pa[k], pb[k])

    def test_goal_split_restriction_and_log(self, small_provider):
        scene, graph = tiny_world(small_provider)
        cfg = TrainConfig(episodes=30, seed=1, t_max=10)
        allowed = frozenset({"Sink", "Kettle"})
        result = train(cfg, [scene], graph, small_provider, allowed_goals=allowed, hidden=8)
        assert sum(result.goal_log.values()) == 30
        assert set(result.goal_log) <= allowed

    def test_empty_split_rejected_before_training(self, small_provider):
        scene, graph = tiny_world(small_provider)
        with pytest.raises(ConfigError):
            train(TrainConfig(episodes=5), [scene], graph, small_provider,
                  allowed_goals=frozenset({"Television"}), hidden=8)

    @pytest.mark.parametrize("field", ["entropy_coef", "value_coef"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), float("-inf"), -0.1])
    def test_loss_coefficient_must_be_finite_and_non_negative(self, field, value):
        with pytest.raises(ConfigError):
            TrainConfig(**{field: value}).validate()
        TrainConfig(**{field: 0.0}).validate()

    def test_lambda_stays_in_unit_interval(self, small_provider):
        scene, graph = tiny_world(small_provider)
        cfg = TrainConfig(episodes=40, seed=2, t_max=10, lr=0.05)  # big steps on purpose
        result = train(cfg, [scene], graph, small_provider, hidden=8)
        lam = float(nn.sigmoid(result.params["lambda_raw"]))
        assert 0.0 < lam < 1.0

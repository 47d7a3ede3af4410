"""Low-level controller assembly and synchronous advantage-actor-critic
(A2C) training: one optimizer step per round of `workers` episodes.

A rollout records, per step, the raw features and the discrete choices the
controllers made. The update recomputes the differentiable pipeline
(graph adaptation -> GCN -> recurrent cell -> heads) from those records with
the current parameters and backpropagates by hand, so the same code path is
exercised by training and by the finite-difference gradient tests. Advantages
are treated as constants in the policy term, the standard actor-critic
estimator.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass

import numpy as np

from . import nn
from .controller import GraphState, adapt_graph, graph_feature, locate_current_zone, plan_subgoal, target_zone
from .embedding import EmbeddingProvider, observation_feature, pooled_image_feature
from .errors import ConfigError, NonFiniteError, UsageError
from .graph import KnowledgeGraph
from .sim import SEED_MASK, EpisodeState, Scene, reset_episode, step, visible_objects

MASKABLE = frozenset({"img", "obj", "gra", "act"})


@dataclass
class TrainConfig:
    episodes: int = 20000
    workers: int = 1
    gamma: float = 0.99
    # 0.01 lets the policy collapse into terminating immediately under the
    # +5 / -0.01 reward asymmetry; 0.05 keeps exploration alive at desk scale
    entropy_coef: float = 0.05
    value_coef: float = 0.5
    lr: float = 1e-4
    t_max: int = 100
    seed: int = 0

    def validate(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError("gamma must lie in (0, 1]")
        if not all(math.isfinite(c) and c >= 0 for c in (self.entropy_coef, self.value_coef)):
            raise ConfigError("loss coefficients must be finite and >= 0, got "
                              f"{self.entropy_coef!r} and {self.value_coef!r}")
        if self.episodes < 0 or self.workers < 1 or self.t_max < 1:
            raise ConfigError("episodes >= 0, workers >= 1, t_max >= 1 required")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr!r}")


@dataclass
class Trajectory:
    """One episode as the update replays it. Row t of each per-step array
    records step t."""

    img: np.ndarray  # (T, D) pooled image feature times nn.IMG_INPUT_GAIN
    f_obs: np.ndarray  # (T, D) single-view observation feature
    zones: np.ndarray  # (T,) zone the agent was located in
    subgoals: np.ndarray  # (T,) planned sub-goal zone
    actions: np.ndarray  # (T,)
    rewards: np.ndarray  # (T,)
    goal: str
    goal_emb: np.ndarray
    success: bool
    mask: frozenset = frozenset()

    @property
    def length(self) -> int:
        return len(self.actions)

    @property
    def total_reward(self) -> float:
        # Python's left-to-right sum: np.sum adds pairwise, which would move
        # the logged mean_reward_100 in its last digits
        return sum(self.rewards.tolist())


def _check_mask(mask: frozenset) -> None:
    bad = mask - MASKABLE
    if bad:
        raise ConfigError(f"unknown mask component(s): {sorted(bad)}")


def compose_input(img: np.ndarray, goal_emb: np.ndarray, f_gra: np.ndarray,
                  prev_action, mask: frozenset = frozenset()) -> np.ndarray:
    """[image | goal | graph | one-hot previous action] laid out by
    nn.input_layout, for one step, or for each row of (T, D) images and
    (T, N) graph features with a (T,) array of previous actions; the goal is
    shared. A previous action of -1 (none yet) leaves the action block zero,
    and masked components are zeroed at composition (ablation hook)."""
    _check_mask(mask)
    prev = np.asarray(prev_action)
    img_at, goal_at, gra_at, act_at = nn.input_layout(goal_emb.shape[0], f_gra.shape[-1])
    x = np.zeros(prev.shape + (act_at.stop,))
    if "img" not in mask:
        x[..., img_at] = img
    if "obj" not in mask:
        x[..., goal_at] = goal_emb
    if "gra" not in mask:
        x[..., gra_at] = f_gra
    if "act" not in mask:
        prev = prev.reshape(-1)
        took = np.flatnonzero(prev >= 0)
        x.reshape(-1, act_at.stop)[took, act_at.start + prev[took]] = 1.0
    return x


def reward(event: str) -> float:
    """+5 on successful termination, -0.01 on every other step."""
    return 5.0 if event == "success" else -0.01


def rollout(state: EpisodeState, params: nn.Params, graph: KnowledgeGraph,
            provider: EmbeddingProvider, rng, greedy: bool = False,
            mask: frozenset = frozenset()) -> Trajectory:
    """Run one episode to termination. Sampling uses the softmax policy with
    the supplied generator; greedy mode takes argmax with lowest-index ties.

    Perception depends only on the scene, the pose and the provider, which
    an episode never changes, so each pose's features are computed on its
    first visit and reused on later ones.

    The cell's input projection x @ wx + b, with x = CELL_INPUT_GAIN times
    compose_input's [image | goal | graph | action], is summed block by
    block, each block as often as it changes: the goal term once per
    episode, the image term once per pose (kept in the memo with the bias
    and the goal term), and the previous action's one-hot term is one row
    of CELL_INPUT_GAIN * wx. Only the graph term is a product per step.
    Masked blocks add nothing."""
    if state.terminated:
        raise UsageError("rollout() on a terminated episode")
    _check_mask(mask)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(int(rng) & SEED_MASK)
    gs = GraphState(graph, lam=float(nn.sigmoid(params["lambda_raw"])))
    goal_emb = provider.object_embedding(state.goal)
    z_target = target_zone(gs, goal_emb)
    wx, wh, b = params["lstm_wx"], params["lstm_wh"], params["lstm_b"]
    actor_w, actor_b = params["actor_w"], params["actor_b"]
    hidden = nn.hidden_size(params)
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    gain = nn.CELL_INPUT_GAIN
    img_at, goal_at, gra_at, act_at = nn.input_layout(goal_emb.shape[0], graph.feature_dim)
    wx_img, wx_gra = wx[img_at], wx[gra_at]
    use_img, use_gra = "img" not in mask, "gra" not in mask
    base = b + (gain * goal_emb) @ wx[goal_at] if "obj" not in mask else b.copy()
    act_rows = None if "act" in mask else gain * wx[act_at]
    act_row = None  # the previous action's term; none before the first action
    perceived = {}  # pose -> (img, f_obs, base plus the image term), all read-only
    records = []  # per step: img, f_obs, zone, subgoal, action, reward (Trajectory's order)
    while not state.terminated:
        seen = perceived.get(state.pose)
        if seen is None:
            obs = visible_objects(state.scene, state.pose)
            img = nn.IMG_INPUT_GAIN * pooled_image_feature(provider, obs)
            pose_base = base + (gain * img) @ wx_img if use_img else base
            seen = (img, observation_feature(provider, obs), pose_base)
            for array in seen:
                array.flags.writeable = False
            perceived[state.pose] = seen
        img, f_obs, pose_base = seen
        zone = locate_current_zone(gs, f_obs)
        adapt_graph(gs, f_obs, zone)
        subgoal = plan_subgoal(gs, zone, z_target)
        if use_gra:
            zx = (gain * graph_feature(params, gs, subgoal)) @ wx_gra
            zx += pose_base
        else:
            zx = pose_base.copy()
        if act_row is not None:
            zx += act_row
        h, c = nn.lstm_step(zx, wh, h, c)
        logits = h @ actor_w + actor_b
        if greedy:
            action = nn.greedy_action(logits)
        else:
            action = nn.sample_action(rng, logits)
        event = step(state, action)
        records.append((img, f_obs, zone, subgoal, action, reward(event)))
        if act_rows is not None:
            act_row = act_rows[action]
    columns = [np.array(column) for column in zip(*records)]
    return Trajectory(*columns, goal=state.goal, goal_emb=goal_emb, success=state.success,
                      mask=mask)


def compute_returns(rewards: list[float], gamma: float) -> np.ndarray:
    """Discounted returns of a complete episode: R_t = r_t + gamma * R_{t+1}."""
    out = np.zeros(len(rewards))
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def a2c_loss_and_grads(params: nn.Params, trajectories: list[Trajectory],
                       graph: KnowledgeGraph, config: TrainConfig,
                       frozen_advantages: list[np.ndarray] | None = None):
    """Summed actor-critic loss over complete trajectories and its exact
    gradient, recomputed from the recorded per-step data. Discrete choices
    (zones, sub-goals, actions) are frozen trajectory data; gradients flow
    through the GCN weights, the recurrent cell, the heads and, via the
    graph-adaptation recurrence, into the raw blend parameter.

    Each trajectory is processed as one sequence: every recurrent-cell input
    is known before the recurrence runs, so the GCN, the input projection,
    the heads and every weight gradient are batched over its T steps, and
    only h @ Wh, Wh @ dz and the blend recurrence run step by step.

    The policy term weights advantages as constants (the usual actor-critic
    estimator). `frozen_advantages` pins those weights explicitly, which is
    what a finite-difference probe of this objective needs; training leaves
    it None and uses the advantages at the current parameters."""
    if not trajectories:
        raise ConfigError("a2c update needs at least one trajectory")
    grads = nn.zeros_like_params(params)
    lam = float(nn.sigmoid(params["lambda_raw"]))
    w1, w2 = params["gcn_w1"], params["gcn_w2"]
    wx, wh, b = params["lstm_wx"], params["lstm_wh"], params["lstm_b"]
    aw, ab, cw, cb = params["actor_w"], params["actor_b"], params["critic_w"], params["critic_b"]
    gra = nn.input_layout(trajectories[0].goal_emb.shape[0], graph.feature_dim)[2]
    total_loss = 0.0
    policy_loss = value_loss = entropy_sum = 0.0
    dlam = 0.0
    advantage_list: list[np.ndarray] = []

    for traj_idx, traj in enumerate(trajectories):
        t_len = traj.length
        rows = np.arange(t_len)
        zones = traj.zones.tolist()
        actions = traj.actions
        f_obs = traj.f_obs

        # nodes_seq[t] is the adapted graph the GCN sees at step t
        gs = GraphState(graph, lam)
        nodes_seq = np.empty((t_len,) + graph.nodes.shape)
        old_rows = np.empty_like(f_obs)
        for t, zone in enumerate(zones):
            old_rows[t] = gs.adapted[zone]
            adapt_graph(gs, f_obs[t], zone)
            nodes_seq[t] = gs.adapted
        f_gra, gcache = nn.gcn_forward_seq(w1, w2, nodes_seq, gs.ahat, traj.subgoals)
        prev_actions = np.concatenate(([-1], actions[:-1]))
        xs = nn.CELL_INPUT_GAIN * compose_input(traj.img, traj.goal_emb, f_gra, prev_actions,
                                                traj.mask)
        hs, lcache = nn.lstm_forward_seq(wx, wh, b, xs)
        logits, values = nn.actor_critic(aw, ab, cw, cb, hs)

        returns = compute_returns(traj.rewards.tolist(), config.gamma)
        if frozen_advantages is not None:
            advantages = frozen_advantages[traj_idx]
        else:
            advantages = returns - values  # constants in the policy term
        advantage_list.append(advantages)

        logp = nn.log_softmax(logits)
        p = np.exp(logp)
        ent = -(p * logp).sum(axis=1)
        traj_policy = float(-(advantages * logp[rows, actions]).sum())
        traj_value = float(((returns - values) ** 2).sum())
        traj_entropy = float(ent.sum())
        total_loss += (traj_policy + config.value_coef * traj_value
                       - config.entropy_coef * traj_entropy)
        policy_loss += traj_policy
        value_loss += traj_value
        entropy_sum += traj_entropy
        onehot = np.zeros_like(p)
        onehot[rows, actions] = 1.0
        dlogits = (-advantages[:, None] * (onehot - p)
                   + config.entropy_coef * p * (logp + ent[:, None]))
        dvalues = config.value_coef * 2.0 * (values - returns)

        daw, dab, dcw, dcb, dh_head = nn.actor_critic_backward_seq(aw, cw, hs, dlogits, dvalues)
        grads["actor_w"] += daw
        grads["actor_b"] += dab
        grads["critic_w"] += dcw
        grads["critic_b"] += dcb
        dwx, dwh, db, dz = nn.lstm_backward_seq(lcache, dh_head, wx, wh)
        grads["lstm_wx"] += dwx
        grads["lstm_wh"] += dwh
        grads["lstm_b"] += db
        if "gra" in traj.mask:
            dgra = np.zeros_like(f_gra)
        else:
            dgra = nn.CELL_INPUT_GAIN * (dz @ wx[gra].T)
        dw1, dw2, dnodes = nn.gcn_backward_seq(gcache, dgra, w1, w2)
        grads["gcn_w1"] += dw1
        grads["gcn_w2"] += dw2

        # the blend recurrence, newest step first; d_adapted ends on the base
        # nodes, which are constants
        d_adapted = np.zeros_like(graph.nodes)
        d_rows = np.empty_like(f_obs)  # d_adapted[zone] as step t blends it
        for t in range(t_len - 1, -1, -1):
            d_adapted += dnodes[t]
            d_rows[t] = d_adapted[zones[t]]
            d_adapted[zones[t]] *= 1.0 - lam
        dlam += float((d_rows * (f_obs - old_rows)).sum())

    grads["lambda_raw"] = grads["lambda_raw"] + dlam * lam * (1.0 - lam)
    stats = {
        "loss": float(total_loss),
        "policy_loss": float(policy_loss),
        "value_loss": float(value_loss),
        "entropy": float(entropy_sum),
        "advantages": advantage_list,
    }
    return float(total_loss), grads, stats


def a2c_update(trajectories: list[Trajectory], params: nn.Params, adam: nn.AdamState,
               graph: KnowledgeGraph, config: TrainConfig) -> dict:
    """One optimizer step from a batch of trajectories. A non-finite loss or
    gradient skips the step, which stats["skipped"] reports."""
    loss, grads, stats = a2c_loss_and_grads(params, trajectories, graph, config)
    try:
        if not np.isfinite(loss):
            raise NonFiniteError(f"non-finite loss {loss!r}")
        nn.adam_update(params, grads, adam, config.lr)
        stats["skipped"] = False
    except NonFiniteError:
        stats["skipped"] = True
    return stats


@dataclass
class TrainResult:
    params: nn.Params
    goal_log: Counter
    final_sr_1000: float


def _episode_rng(seed: int, episode: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed & SEED_MASK, 0x5EED, episode]))


def _allowed_goals_by_scene(scenes: list[Scene], allowed_goals) -> dict[str, list[str]]:
    table = {}
    for scene in scenes:
        goals = sorted(scene.goal_categories_present())
        if allowed_goals is not None:
            goals = [g for g in goals if g in allowed_goals]
        if not goals:
            raise ConfigError(
                f"scene {scene.id!r} offers no trainable goal under the configured split"
            )
        table[scene.id] = goals
    return table


def train(config: TrainConfig, scenes: list[Scene], graph: KnowledgeGraph,
          provider: EmbeddingProvider, allowed_goals=None, hidden: int = nn.DEFAULT_HIDDEN,
          stats_every: int = 100, stats_sink=None) -> TrainResult:
    """Train the policy with synchronous A2C. Each round rolls `workers`
    episodes with the pre-update parameters, sums their gradients in
    worker-index order and applies one optimizer step, which makes runs
    bitwise reproducible for a seed.

    Every episode is logged with its round's update: `stats_sink` gets a
    record every `stats_every` episodes and at the last one, carrying that
    round's loss and entropy and the count of rounds skipped so far. A run
    whose every update was skipped raises NonFiniteError."""
    config.validate()
    if not scenes:
        raise ConfigError("no training scenes")
    goals_by_scene = _allowed_goals_by_scene(scenes, allowed_goals)
    params = nn.init_params(provider.dim, graph.feature_dim, hidden, seed=config.seed)
    adam = nn.AdamState(params)
    goal_log: Counter = Counter()
    sr_1000: deque = deque(maxlen=1000)
    rew_100: deque = deque(maxlen=100)
    len_100: deque = deque(maxlen=100)

    def run_episode(index: int) -> Trajectory:
        rng = _episode_rng(config.seed, index)
        scene = scenes[int(rng.integers(len(scenes)))]
        goals = goals_by_scene[scene.id]
        goal = goals[int(rng.integers(len(goals)))]
        est = reset_episode(scene, goal, seed=int(rng.integers(2**63)), t_max=config.t_max)
        return rollout(est, params, graph, provider, rng)

    rounds = range(0, config.episodes, config.workers)
    skipped = 0
    for start in rounds:
        trajs = [run_episode(i) for i in range(start, min(start + config.workers, config.episodes))]
        update = a2c_update(trajs, params, adam, graph, config)
        skipped += update["skipped"]
        for episode, traj in enumerate(trajs, start + 1):
            goal_log[traj.goal] += 1
            sr_1000.append(1.0 if traj.success else 0.0)
            rew_100.append(traj.total_reward)
            len_100.append(traj.length)
            if stats_sink is not None and (episode % stats_every == 0
                                           or episode == config.episodes):
                stats_sink({
                    "episode": episode,
                    "sr_1000": float(np.mean(sr_1000)),
                    "mean_reward_100": float(np.mean(rew_100)),
                    "mean_length_100": float(np.mean(len_100)),
                    "loss": update["loss"],
                    "entropy": update["entropy"],
                    "skipped_updates": skipped,
                })
    if rounds and skipped == len(rounds):
        raise NonFiniteError(f"all {skipped} update(s) skipped as non-finite")

    return TrainResult(
        params=params,
        goal_log=goal_log,
        final_sr_1000=float(np.mean(sr_1000)) if sr_1000 else 0.0,
    )

"""Desk-scale object-goal navigation with a continuous zone knowledge graph,
a hierarchical (graph planner + recurrent actor-critic) policy, and an
SR/SPL/DTS evaluation harness."""

__version__ = "0.1.0"

from .categories import GOAL_CATEGORIES, ROOM_CATEGORIES, ZERO_SHOT_TEST_GOALS
from .embedding import EmbeddingProvider, load_embeddings, observation_feature, pooled_image_feature, save_embeddings
from .graph import KnowledgeGraph, build_scene_graph, cluster_zones, match_graphs, merge_graphs, sweep_position_features
from .metrics import evaluate, general_split, zero_shot_split
from .policy import TrainConfig, a2c_update, compose_input, reward, rollout, train
from .sim import Action, EpisodeState, Pose, Scene, generate_scene, reset_episode, shortest_path_length, step, visible_objects

__all__ = [
    "GOAL_CATEGORIES",
    "ROOM_CATEGORIES",
    "ZERO_SHOT_TEST_GOALS",
    "EmbeddingProvider",
    "load_embeddings",
    "save_embeddings",
    "observation_feature",
    "pooled_image_feature",
    "KnowledgeGraph",
    "build_scene_graph",
    "cluster_zones",
    "match_graphs",
    "merge_graphs",
    "sweep_position_features",
    "evaluate",
    "general_split",
    "zero_shot_split",
    "TrainConfig",
    "a2c_update",
    "compose_input",
    "reward",
    "rollout",
    "train",
    "Action",
    "EpisodeState",
    "Pose",
    "Scene",
    "generate_scene",
    "reset_episode",
    "shortest_path_length",
    "step",
    "visible_objects",
    "__version__",
]

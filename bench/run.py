"""The zonegraph benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; it measures the zonegraph package in
./src. It makes the workload's inputs from the seed (set-up), then runs
whole rounds of the workload's subcommands through `zonegraph.cli.run`, one
after another, until `--seconds` have passed, checks every output, and
prints one JSON line last: {"correct", "attempted", "failed", "metrics"}.
After each round it times set-up again, in a directory of its own, so that
the set-up times are sampled over the whole run as the rounds are.

With --trace 0 the metrics are the end-to-end ones. With --trace 1 rounds
alternate between untraced and traced; the traced rounds give the per-layer
metrics, and the two kinds together give the tracing overhead. Spans and
per-function totals of the traced rounds go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

import program  # pins the BLAS threads; import before numpy

# After each round, set-up repeats (at least once) for this share of the
# round's time, so that set-up samples span the run as the rounds do. The
# machine's speed drifts over seconds, and set-ups timed in one burst before
# the rounds caught one moment of it.
SETUP_SHARE = 0.1
MIN_ROUNDS = 3
WORK_DIR = program.ROOT / ".bench_work"
OUT_DIR = program.ROOT / ".bench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def context() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": program.BLAS_THREADS}


def time_setup(name: str, seed: int, work):
    """Make a workload's inputs afresh in `work`: (seconds, workload)."""
    import workloads

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.make(name, seed, work)
    t0 = perf_counter()
    wl.setup()
    return perf_counter() - t0, wl


def run_rounds(wl, seconds: float, tracer, op_timer, setup_times: list[float]):
    """Closed loop: each round starts when the previous one ends, and a new
    round starts only if it is expected to end within `seconds` (after
    MIN_ROUNDS). With a tracer, even rounds run untraced and odd rounds traced.
    Set-up times after each round go to `setup_times`."""
    from spans import ROOT_SPAN

    walls: list[tuple[bool, float]] = []
    t_start = perf_counter()
    while True:
        traced = tracer is not None and len(walls) % 2 == 1
        if traced:
            tracer.install()
        t0 = perf_counter()
        rnd = tracer.run(ROOT_SPAN, wl.round) if traced else wl.round()
        walls.append((traced, perf_counter() - t0))
        if traced:
            tracer.uninstall()
        if op_timer is not None:
            rnd.op_seconds = wl.op_times([(op_timer.names[nid], end - start)
                                          for _, nid, start, end, _, _ in op_timer.spans])
            op_timer.spans.clear()
        rnd.traced = traced
        wl.rounds.append(rnd)
        t_end = perf_counter() + SETUP_SHARE * walls[-1][1]
        while True:
            setup_times.append(time_setup(wl.name, wl.seed, WORK_DIR / f"{wl.name}.setup")[0])
            if perf_counter() >= t_end:
                break
        elapsed = perf_counter() - t_start
        next_round = (1 + SETUP_SHARE) * statistics.median(w for _, w in walls[-3:])
        if len(walls) >= MIN_ROUNDS and elapsed + next_round > seconds:
            return walls


def end_to_end(wl, setup_times, peak_mb) -> dict:
    ops = [t for r in wl.rounds for t in r.op_seconds]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "work_per_s": (sum(r.work for r in wl.rounds) / sum(r.seconds for r in wl.rounds), "1/s"),
        "op_ms_mean": (1e3 * statistics.fmean(ops), "ms"),
        "op_ms_p90": (1e3 * statistics.quantiles(ops, n=10, method="inclusive")[-1], "ms"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(wl, tracer, walls) -> dict:
    from spans import LAYERS

    stats = tracer.stats()
    traced_wall = sum(w for t, w in walls if t)
    get = lambda name, key: stats.get(name, {}).get(key, 0)

    def per_call(name, scale):
        calls = get(name, "calls")
        return scale * get(name, "total_s") / calls if calls else 0.0

    steps = get("sim.step", "calls")
    episodes = get("policy.rollout", "calls")
    m: dict[str, tuple[float, str]] = {}
    for name in ("sim.visible_objects", "sim.step", "sim.shortest_path_length",
                 "embedding.image_feature", "embedding.observation_feature",
                 "controller.locate_current_zone", "controller.adapt_graph",
                 "controller.plan_subgoal", "controller.graph_feature",
                 "nn.lstm_step", "nn.greedy_action", "nn.sample_action", "nn.lstm_backward",
                 "nn.gcn_forward", "nn.gcn_backward", "nn.actor_critic_backward",
                 "nn.adam_update"):
        m[f"{name}.us"] = (per_call(name, 1e6), "us")
    for name in ("graph.sweep_position_features", "graph.cluster_zones",
                 "graph.build_room_graph", "graph.merge_graphs", "sim.load_scene",
                 "graph.graph_to_text", "nn.checkpoint_to_text", "nn.checkpoint_from_text"):
        m[f"{name}.ms"] = (per_call(name, 1e3), "ms")
    for name in ("sim.visible_objects", "nn.lstm_step"):
        m[f"{name}.calls_per_step"] = (get(name, "calls") / steps if steps else 0.0, "count")
    for name in ("sim.shortest_path_length", "nn.adam_update"):
        m[f"{name}.calls_per_episode"] = (
            get(name, "calls") / episodes if episodes else 0.0, "count")
    m["policy.rollout.self_share"] = (get("policy.rollout", "self_s") / traced_wall, "ratio")
    m["policy.a2c_loss_and_grads.us_per_step"] = (
        1e6 * get("policy.a2c_loss_and_grads", "total_s") / steps if steps else 0.0, "us")
    m["metrics.run_eval_episode.self_ms"] = (
        1e3 * get("metrics.run_eval_episode", "self_s") / get("metrics.run_eval_episode", "calls")
        if get("metrics.run_eval_episode", "calls") else 0.0, "ms")
    for key, value in wl.layer_figures().items():
        m[key] = (value, "count")
    for layer in LAYERS + ("bench",):
        own = sum(s["self_s"] for n, s in stats.items() if n.split(".")[0] == layer)
        m[f"{layer}.self_share"] = (own / traced_wall, "ratio")
    plain = statistics.median(w for t, w in walls if not t)
    traced = statistics.median(w for t, w in walls if t)
    m["trace.overhead_pct"] = (100.0 * (traced / plain - 1.0), "%")
    m["trace.spans"] = (len(tracer.spans) + tracer.dropped, "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def write_trace(wl, tracer, walls) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    traced_wall = sum(w for t, w in walls if t)
    table = {name: {**s, "us_per_call": 1e6 * s["total_s"] / s["calls"],
                    "share": s["total_s"] / traced_wall, "self_share": s["self_s"] / traced_wall}
             for name, s in sorted(tracer.stats().items()) if s["calls"]}
    (OUT_DIR / f"{wl.name}.layers.json").write_text(json.dumps(
        {"workload": wl.name, "seed": wl.seed, "traced_wall_s": traced_wall,
         "functions": table}, indent=1) + "\n")
    tracer.write_spans(OUT_DIR / f"{wl.name}.spans.jsonl")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        program.load()
    except program.MissingProgram as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.NAMES}",
              file=sys.stderr)
        return 2
    setup_s, wl = time_setup(args.workload, args.seed, WORK_DIR / args.workload)
    setup_times = [setup_s]

    tracer = op_timer = None
    if args.trace:
        tracer = Tracer(op_boundary=wl.op_boundary)
    elif wl.op_spans:
        op_timer = Tracer(only=frozenset(wl.op_spans))
        op_timer.install()
    walls = run_rounds(wl, args.seconds, tracer, op_timer, setup_times)
    if op_timer is not None:
        op_timer.uninstall()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        problems = wl.check()
    except Exception:  # a malformed output must read as a failed check, not a crash
        problems = ["output check raised:\n" + traceback.format_exc()]
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(wl, tracer, walls)
        write_trace(wl, tracer, walls)
    else:
        metrics = end_to_end(wl, setup_times, peak_mb)
    print(json.dumps({"context": {**context(), "workload": wl.name, "seed": args.seed,
                                  "round_s": [round(w, 4) for _, w in walls],
                                  "setups": len(setup_times)}}))
    print(json.dumps({"correct": not problems,
                      "attempted": sum(r.ops for r in wl.rounds),
                      "failed": sum(r.failed for r in wl.rounds),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

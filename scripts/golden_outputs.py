"""Write a fixed set of zonegraph outputs into one directory, so that two
checkouts can be compared byte for byte.

Every output comes from `zonegraph.cli.run`, on the benchmark's world (four
8x8 kitchens seeded 0-3), on scene set 0 at 16x16 of every room category
(four scenes seeded 0-3 each), and on the benchmark's known-fault set (four
8x8 bedrooms seeded 36-39):

    kitchen.kg                   the merged knowledge graph
    <room>-16x16.kg              each room's merged graph of set 0 at 16x16
    bedroom-8x8-s<seed>.kg       each scene of the known-fault set built
                                 alone, from a directory of its own: scene
                                 38 has 5 distinct features, so k-means++
                                 stops at 5 centers and the merged build of
                                 the set fails by design
    inspect-graph.out            `inspect-graph kitchen.kg`: the graph read back
    train-w{1,8}.ckpt(.log)      48 zero-shot training episodes, seed 0,
                                 stats every 16 episodes, 1 and 8 workers
    eval.report                  bench/data/eval.ckpt, zero-shot, greedy,
                                 150 episodes at seeds 1,2,3
    eval-mask-gra.report         the same with the graph input masked
    eval-mask-obj.report         the same with the goal input masked alone,
                                 so the rollout's once-per-episode goal
                                 term is switched off on its own
    eval-mask-img-obj-act.report the same with the image, goal and action
                                 inputs masked; with eval-mask-gra, every
                                 block of the recurrent cell's input is
                                 switched off in one of the runs
    selfcheck.out                `selfcheck`: the four checks of acceptance
                                 criteria 1, 3, 4 and 5 at the selfcheck's
                                 own seeds and counts, one line each; the
                                 gradient line probes the sequence kernels
                                 and the whole A2C update
    *.out                        each command's printed output

The commands run inside the output directory with relative paths, so the
printed output names no absolute path. To check that a change leaves every
output as it was, run the script once against each checkout's `src/` and
compare the two directories:

    PYTHONPATH=<parent>/src python scripts/golden_outputs.py /tmp/before
    PYTHONPATH=src python scripts/golden_outputs.py /tmp/after
    diff -r /tmp/before /tmp/after

The script pins the BLAS and OpenMP pools to one thread before numpy is
imported, as the benchmark does: the training checkpoints differ in the
last digits of some floats between thread counts, so outputs written on
machines with different core counts would not otherwise compare equal.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from zonegraph import cli  # after the pins: numpy reads them once, on import
from zonegraph.categories import ROOM_CATEGORIES

CHECKPOINT = Path(__file__).resolve().parent.parent / "bench" / "data" / "eval.ckpt"
EVAL = ["--ckpt", str(CHECKPOINT), "--scenes", "scenes", "--split", "zero-shot",
        "--episodes", "150", "--seeds", "1,2,3"]


def zonegraph(name: str, argv: list[str]) -> None:
    """Run one subcommand, keeping its printed output in `<name>.out`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.run(argv)
    Path(f"{name}.out").write_text(out.getvalue())
    if code != 0:
        raise SystemExit(f"{name}: exit {code}: {out.getvalue().strip()}")


def main(outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    os.chdir(outdir)
    zonegraph("gen-scenes", ["gen-scenes", "--room", "kitchen", "--count", "4",
                             "--size", "8x8", "--seed", "0", "--out", "scenes"])
    zonegraph("build-graph", ["build-graph", "--scenes", "scenes", "--room", "kitchen",
                              "--out", "kitchen.kg"])
    zonegraph("inspect-graph", ["inspect-graph", "kitchen.kg"])
    for room in ROOM_CATEGORIES:
        name = f"{room}-16x16"
        zonegraph(f"gen-scenes-{name}", ["gen-scenes", "--room", room, "--count", "4",
                                         "--size", "16x16", "--seed", "0", "--out", name])
        zonegraph(f"build-graph-{name}", ["build-graph", "--scenes", name, "--room", room,
                                          "--out", f"{name}.kg"])
    zonegraph("gen-scenes-bedroom-8x8", ["gen-scenes", "--room", "bedroom", "--count", "4",
                                         "--size", "8x8", "--seed", "36", "--out", "bedroom-8x8"])
    for scene in sorted(Path("bedroom-8x8").glob("*.scene")):
        name = f"bedroom-8x8-s{scene.stem.rpartition('_s')[2]}"
        os.makedirs(name, exist_ok=True)
        Path(name, scene.name).write_text(scene.read_text())
        zonegraph(f"build-graph-{name}", ["build-graph", "--scenes", name, "--room", "bedroom",
                                          "--out", f"{name}.kg"])
    Path("train.cfg").write_text("stats_every = 16\n")
    for workers in (1, 8):
        zonegraph(f"train-w{workers}", [
            "train", "--scenes", "scenes", "--graph", "kitchen.kg", "--config", "train.cfg",
            "--out", f"train-w{workers}.ckpt", "--episodes", "48", "--seed", "0",
            "--workers", str(workers), "--split", "zero-shot"])
    zonegraph("eval", ["eval", *EVAL, "--out", "eval.report"])
    zonegraph("eval-mask-gra", ["eval", *EVAL, "--mask", "gra", "--out", "eval-mask-gra.report"])
    zonegraph("eval-mask-obj", ["eval", *EVAL, "--mask", "obj", "--out", "eval-mask-obj.report"])
    zonegraph("eval-mask-img-obj-act", ["eval", *EVAL, "--mask", "img,obj,act",
                                        "--out", "eval-mask-img-obj-act.report"])
    zonegraph("selfcheck", ["selfcheck"])


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: golden_outputs.py <outdir>")
    main(sys.argv[1])

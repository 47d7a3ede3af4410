import dataclasses
import json
import operator
import os
import subprocess
import sys
import textwrap
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from zonegraph import nn, selfcheck
from zonegraph.cli import Config, load_checkpoint_bundle, parse_config_text, run
from zonegraph.errors import ConfigError
from zonegraph.graph import load_graph
from zonegraph.sim import load_scene

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv, capsys=None):
    return run(list(argv))


class TestConfig:
    def test_defaults(self):
        cfg = parse_config_text("")
        assert cfg.embedding.dim == 64 and cfg.train.lr == 1e-4
        assert cfg.train.gamma == 0.99 and cfg.train.entropy_coef == 0.05
        assert cfg.train.value_coef == 0.5 and cfg.train.t_max == 100

    def test_round_trip_values(self):
        text = """
        embedding.dim = 16
        train.episodes = 5      # inline comment
        train.lr = 0.001
        split = zero_shot
        """
        cfg = parse_config_text(text)
        assert cfg.embedding.dim == 16
        assert cfg.train.episodes == 5
        assert cfg.train.lr == 0.001
        assert cfg.split == "zero_shot"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("train.bogus = 3")
        with pytest.raises(ConfigError):
            parse_config_text("nonsense = 3")
        for text in ("other.episodes = 3", "sim.width = 9", "eval.seeds = 4",
                     "paths.report = x", "graph.zones = 8"):
            with pytest.raises(ConfigError):
                parse_config_text(text)

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("train.episodes = many")

    @pytest.mark.parametrize("line, message", [
        (".x = 1", "unknown section ''"),
        ("a.b.c = 1", "unknown section 'a'"),
        ("train.b.c = 1", "unknown key 'train.b.c'"),
        ("embedding = 1", "unknown key 'embedding'"),
        ("train = 1", "unknown key 'train'"),
        ("__class__.hidden = 1", "unknown section '__class__'"),
        ("train.__class__ = 1", "unknown key 'train.__class__'"),
        ("validate = 1", "unknown key 'validate'"),
        ("hidden = 1.5", "bad value '1.5' for 'hidden'"),
        ("train.gamma = x", "bad value 'x' for 'train.gamma'"),
        ("hidden", "expected 'key = value'"),
    ])
    def test_malformed_line_message(self, line, message):
        # sections and keys are Config's own fields: no attribute lookup
        # reaches the class or a method
        with pytest.raises(ConfigError) as e:
            parse_config_text(f"# header\n{line}")
        assert str(e.value) == f"config line 2: {message}"
        assert Config.hidden == nn.DEFAULT_HIDDEN and "validate" in vars(Config)

    def test_values_take_the_type_of_the_default(self):
        cfg = parse_config_text("hidden = 7\nsplit = 3\ntrain.gamma = 1\nembedding.path = 2")
        assert (cfg.hidden, cfg.split, cfg.train.gamma, cfg.embedding.path) == (7, "3", 1.0, "2")
        assert type(cfg.train.gamma) is float

    def test_readme_defaults_match_config(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Defaults (all overridable):", 1)[1].split("```")[1]
        listed = [line.split("#", 1)[0].partition("=")[0].strip()
                  for line in block.splitlines() if line.split("#", 1)[0].strip()]
        defaults = Config()
        settable = []
        for f in fields(defaults):
            value = getattr(defaults, f.name)
            if is_dataclass(value):
                settable += [f"{f.name}.{g.name}" for g in fields(value)]
            else:
                settable.append(f.name)
        assert sorted(listed) == sorted(settable)
        assert parse_config_text(block) == defaults


class TestParser:
    def test_no_parsed_value_carries_over(self, monkeypatch):
        # one parser serves every call in a process: each command's options
        # come from its own argv alone
        from zonegraph import cli

        seen = []
        monkeypatch.setattr(cli, "cmd_train", lambda args: seen.append(vars(args)) or 0)
        monkeypatch.setattr(cli, "cmd_eval", lambda args: seen.append(vars(args)) or 0)
        base = ["train", "--scenes", "s", "--graph", "g.kg", "--out", "m.ckpt"]
        assert run([*base, "--workers", "8", "--seed", "3", "--split", "general"]) == 0
        assert run(["eval", "--ckpt", "m.ckpt", "--scenes", "s", "--mask", "gra"]) == 0
        assert run(base) == 0
        assert seen[0]["workers"] == 8 and seen[0]["seed"] == 3
        assert seen[1]["mask"] == "gra" and "workers" not in seen[1]
        assert (seen[2]["workers"], seen[2]["seed"], seen[2]["split"], seen[2]["episodes"]) == \
            (None, None, None, None)
        assert "mask" not in seen[2] and "ckpt" not in seen[2]

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 74.5 GiB for an array"),
         "Unable to allocate 74.5 GiB for an array"),
        (MemoryError(), "out of memory"),
    ])
    def test_memory_error_is_one_categorised_line(self, monkeypatch, capsys, error, message):
        from zonegraph import cli

        def fail(args):
            raise error

        monkeypatch.setattr(cli, "cmd_train", fail)
        assert run(["train", "--scenes", "s", "--graph", "g.kg", "--out", "m.ckpt"]) == 1
        assert capsys.readouterr().err == f"error category=memory: {message}\n"

    def test_parser_built_once(self, monkeypatch, capsys):
        from zonegraph import cli

        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        assert run(["inspect-graph"]) == 1  # a usage error: no path
        assert run(["gen-scenes", "--frobnicate"]) == 1
        assert len(built) == 1
        assert capsys.readouterr().err.count("error category=usage:") == 2


class TestGenScenes:
    def test_writes_count_files_exit_zero(self, tmp_path, capsys):
        code = run_cli("gen-scenes", "--room", "bedroom", "--count", "4",
                       "--seed", "7", "--out", str(tmp_path / "scenes"))
        assert code == 0
        files = sorted((tmp_path / "scenes").glob("*.scene"))
        assert len(files) == 4
        for f in files:
            scene = load_scene(f)
            assert scene.room_category == "bedroom"

    def test_seed_determinism_byte_identical(self, tmp_path):
        run_cli("gen-scenes", "--room", "kitchen", "--count", "2", "--seed", "3",
                "--out", str(tmp_path / "a"))
        run_cli("gen-scenes", "--room", "kitchen", "--count", "2", "--seed", "3",
                "--out", str(tmp_path / "b"))
        for fa, fb in zip(sorted((tmp_path / "a").iterdir()), sorted((tmp_path / "b").iterdir())):
            assert fa.read_bytes() == fb.read_bytes()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_count_below_one_rejected(self, tmp_path, capsys, count):
        code = run_cli("gen-scenes", "--room", "bedroom", "--count", count,
                       "--out", str(tmp_path / "scenes"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error category=usage:") and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "scenes").exists()

    def test_unknown_flag_single_line_error(self, tmp_path, capsys):
        code = run_cli("gen-scenes", "--room", "bedroom", "--frobnicate", "1",
                       "--out", str(tmp_path))
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("error category=usage:")
        assert len(err.strip().splitlines()) == 1


class TestBuildGraph:
    def test_mixed_rooms_rejected(self, tmp_path, capsys):
        run_cli("gen-scenes", "--room", "bedroom", "--count", "1", "--seed", "1",
                "--out", str(tmp_path / "s"))
        run_cli("gen-scenes", "--room", "kitchen", "--count", "1", "--seed", "1",
                "--out", str(tmp_path / "s"))
        code = run_cli("build-graph", "--scenes", str(tmp_path / "s"), "--room", "kitchen",
                       "--zones", "3", "--out", str(tmp_path / "g.kg"))
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("error category=usage:")
        assert "mismatch" in err

    def test_build_and_reload(self, tmp_path):
        run_cli("gen-scenes", "--room", "kitchen", "--count", "2", "--seed", "5",
                "--out", str(tmp_path / "s"))
        code = run_cli("build-graph", "--scenes", str(tmp_path / "s"), "--room", "kitchen",
                       "--zones", "4", "--dim", "16", "--out", str(tmp_path / "g.kg"))
        assert code == 0
        g = load_graph(tmp_path / "g.kg")
        assert g.room_category == "kitchen" and g.feature_dim == 16
        assert 1 <= g.zone_count <= 4

    def test_scene_not_utf8(self, tmp_path, capsys):
        run_cli("gen-scenes", "--room", "kitchen", "--count", "1", "--seed", "5",
                "--out", str(tmp_path / "s"))
        (tmp_path / "s" / "zz.scene").write_bytes(bytes(range(256)))
        code = run_cli("build-graph", "--scenes", str(tmp_path / "s"), "--room", "kitchen",
                       "--out", str(tmp_path / "g.kg"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error category=format:") and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "g.kg").exists()

    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "-1", "-0.01"])
    def test_unusable_eps_rejected_before_any_scene_is_read(self, tmp_path, capsys, eps):
        # the scene directory does not exist: reading it would fail as config
        code = run_cli("build-graph", "--scenes", str(tmp_path / "none"), "--room", "kitchen",
                       "--eps", eps, "--out", str(tmp_path / "g.kg"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error category=usage:") and len(err.strip().splitlines()) == 1
        assert "--eps" in err and list(tmp_path.iterdir()) == []

    def test_zero_eps_builds(self, tmp_path):
        run_cli("gen-scenes", "--room", "kitchen", "--count", "1", "--seed", "5",
                "--out", str(tmp_path / "s"))
        code = run_cli("build-graph", "--scenes", str(tmp_path / "s"), "--room", "kitchen",
                       "--zones", "4", "--dim", "16", "--eps", "0", "--out", str(tmp_path / "g.kg"))
        assert code == 0
        edges = load_graph(tmp_path / "g.kg").edges
        np.testing.assert_array_equal(edges, np.eye(len(edges)))

    def test_seed_determinism(self, tmp_path):
        run_cli("gen-scenes", "--room", "kitchen", "--count", "2", "--seed", "5",
                "--out", str(tmp_path / "s"))
        for name in ("a.kg", "b.kg"):
            run_cli("build-graph", "--scenes", str(tmp_path / "s"), "--room", "kitchen",
                    "--zones", "4", "--dim", "16", "--seed", "9", "--out", str(tmp_path / name))
        assert (tmp_path / "a.kg").read_bytes() == (tmp_path / "b.kg").read_bytes()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-scenes -> build-graph -> short train -> checkpoint."""
    root = tmp_path_factory.mktemp("pipeline")
    assert run(["gen-scenes", "--room", "kitchen", "--count", "2", "--seed", "11",
                "--size", "6x6", "--out", str(root / "scenes")]) == 0
    assert run(["build-graph", "--scenes", str(root / "scenes"), "--room", "kitchen",
                "--zones", "4", "--dim", "16", "--out", str(root / "g.kg")]) == 0
    cfg = root / "train.cfg"
    cfg.write_text(
        "embedding.dim = 16\n"
        "train.episodes = 60\n"
        "train.t_max = 15\n"
        "train.seed = 2\n"
        "hidden = 16\n"
        "stats_every = 20\n"
    )
    assert run(["train", "--scenes", str(root / "scenes"), "--graph", str(root / "g.kg"),
                "--config", str(cfg), "--out", str(root / "model.ckpt")]) == 0
    return root


class TestTrainEval:
    def test_pipeline_emits_checkpoint_and_log(self, pipeline):
        assert (pipeline / "model.ckpt").exists()
        log_lines = (pipeline / "model.ckpt.log").read_text().strip().splitlines()
        assert log_lines
        rec = json.loads(log_lines[0])
        assert {"episode", "sr_1000", "mean_reward_100", "mean_length_100"} <= set(rec)

    def test_checkpoint_bundle_round_trip(self, pipeline):
        params, graph, provider, meta = load_checkpoint_bundle(pipeline / "model.ckpt")
        assert meta["D"] == "16" and meta["H"] == "16"
        assert graph.zone_count == int(meta["M"])
        assert provider.dim == 16
        assert "lstm_wx" in params

    def test_both_split_spellings_write_one_meta_value(self, pipeline, tmp_path):
        # `split = zero-shot` in a config file and `--split zero-shot` on the
        # command line name the same split, and the checkpoint says so once
        cfg = tmp_path / "train.cfg"
        cfg.write_text("embedding.dim = 16\nhidden = 16\nsplit = zero-shot\n")
        base = ["train", "--scenes", str(pipeline / "scenes"), "--graph", str(pipeline / "g.kg"),
                "--episodes", "0"]
        assert run([*base, "--config", str(cfg), "--out", str(tmp_path / "file.ckpt")]) == 0
        cfg.write_text("embedding.dim = 16\nhidden = 16\n")
        assert run([*base, "--config", str(cfg), "--split", "zero-shot",
                    "--out", str(tmp_path / "flag.ckpt")]) == 0
        for name in ("file.ckpt", "flag.ckpt"):
            assert nn.load_checkpoint(tmp_path / name)[1]["split"] == "zero_shot"

    def test_train_determinism_byte_identical(self, pipeline, tmp_path):
        cfg = pipeline / "train.cfg"
        for name in ("m1.ckpt", "m2.ckpt"):
            assert run(["train", "--scenes", str(pipeline / "scenes"),
                        "--graph", str(pipeline / "g.kg"), "--config", str(cfg),
                        "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "m1.ckpt").read_bytes() == (tmp_path / "m2.ckpt").read_bytes()

    def test_eval_writes_report_with_summary(self, pipeline, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = run(["eval", "--ckpt", str(pipeline / "model.ckpt"),
                    "--scenes", str(pipeline / "scenes"), "--split", "general",
                    "--episodes", "6", "--seeds", "1,2,3", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("report-v1 ")
        assert "summary SR=" in text and "±" in text
        lines = [l for l in text.splitlines() if l.startswith("{")]
        assert lines and all(json.loads(l) for l in lines)

    @pytest.mark.parametrize("episodes", ["0", "-3"])
    def test_eval_rejects_episodes_below_one(self, pipeline, tmp_path, capsys, episodes):
        # a run of no episodes would report SR=0.00 as if it had measured 0%
        out = tmp_path / "report.txt"
        code = run(["eval", "--ckpt", str(pipeline / "model.ckpt"),
                    "--scenes", str(pipeline / "scenes"), "--episodes", episodes,
                    "--seeds", "1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error category=usage:") and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_eval_random_policy(self, pipeline, tmp_path):
        out = tmp_path / "random.txt"
        code = run(["eval", "--ckpt", str(pipeline / "model.ckpt"),
                    "--scenes", str(pipeline / "scenes"), "--episodes", "5",
                    "--seeds", "1", "--policy", "random", "--out", str(out)])
        assert code == 0

    def test_eval_mask_flag(self, pipeline, tmp_path):
        code = run(["eval", "--ckpt", str(pipeline / "model.ckpt"),
                    "--scenes", str(pipeline / "scenes"), "--episodes", "4",
                    "--seeds", "1", "--mask", "img,obj",
                    "--out", str(tmp_path / "masked.txt")])
        assert code == 0
        code = run(["eval", "--ckpt", str(pipeline / "model.ckpt"),
                    "--scenes", str(pipeline / "scenes"), "--episodes", "4",
                    "--seeds", "1", "--mask", "bogus",
                    "--out", str(tmp_path / "bad.txt")])
        assert code != 0

    def test_inspect_graph(self, pipeline, capsys):
        code = run(["inspect-graph", str(pipeline / "g.kg")])
        assert code == 0
        out = capsys.readouterr().out
        assert "M=" in out and "N=16" in out and "lossless_roundtrip=True" in out
        assert "edges:" in out

    def test_inspect_graph_corrupt_header(self, tmp_path, capsys):
        bad = tmp_path / "bad.kg"
        bad.write_text("kg-v9 M=1 N=1 room=kitchen\n0.0\n1.0\n")
        code = run(["inspect-graph", str(bad)])
        assert code != 0
        assert capsys.readouterr().err.startswith("error category=format:")

    @pytest.mark.parametrize("field, bad, category", [
        ("emb_mode=synthetic", "emb_mode=file", "config"),  # file mode without emb_path
        ("D=16", "D=sixteen", "format"),
        # t_max=0 would run one-step episodes and report SR=0.00 as measured
        ("t_max=15", "t_max=abc", "format"),
        ("t_max=15", "t_max=0", "format"),
        ("t_max=15", "t_max=-5", "format"),
    ])
    def test_eval_bad_checkpoint_header(self, pipeline, tmp_path, capsys, field, bad, category):
        header, _, body = (pipeline / "model.ckpt").read_text().partition("\n")
        header += " "  # every field, the last one too, has a space either side
        assert f" {field} " in header and "emb_path" not in header
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_text(header.replace(f" {field} ", f" {bad} ").rstrip() + "\n" + body)
        code = run(["eval", "--ckpt", str(ckpt), "--scenes", str(pipeline / "scenes"),
                    "--episodes", "1", "--seeds", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error category={category}:") and len(err.strip().splitlines()) == 1

    def test_checkpoint_without_t_max_evaluates_at_the_default(self, pipeline, tmp_path):
        header, _, body = (pipeline / "model.ckpt").read_text().partition("\n")
        ckpt = tmp_path / "no-t_max.ckpt"
        assert header.endswith(" t_max=15")
        ckpt.write_text(header.removesuffix(" t_max=15") + "\n" + body)
        assert load_checkpoint_bundle(ckpt)[3]["t_max"] == "100"
        assert run(["eval", "--ckpt", str(ckpt), "--scenes", str(pipeline / "scenes"),
                    "--episodes", "1", "--seeds", "1", "--out", str(tmp_path / "r.txt")]) == 0

    def test_only_the_graph_merge_loads_scipy(self, pipeline, tmp_path):
        # a fresh process: scipy.optimize costs ~0.3 s and ~45 MB to import,
        # and only build-graph's merge uses it
        script = textwrap.dedent("""
            import sys
            from zonegraph.cli import run
            root, out = sys.argv[1], sys.argv[2]

            def loaded():
                return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

            steps = [
                ["gen-scenes", "--room", "kitchen", "--count", "2", "--seed", "3",
                 "--size", "6x6", "--out", out + "/scenes"],
                ["train", "--scenes", root + "/scenes", "--graph", root + "/g.kg",
                 "--config", root + "/train.cfg", "--episodes", "2",
                 "--out", out + "/m.ckpt"],
                ["eval", "--ckpt", root + "/model.ckpt", "--scenes", root + "/scenes",
                 "--episodes", "2", "--seeds", "1", "--out", out + "/r.txt"],
                ["inspect-graph", root + "/g.kg"],
            ]
            for argv in steps:
                assert run(argv) == 0, argv
                assert not loaded(), (argv[0], loaded())
            assert run(["build-graph", "--scenes", root + "/scenes", "--room", "kitchen",
                        "--zones", "4", "--dim", "16", "--out", out + "/g.kg"]) == 0
            assert "scipy.optimize" in loaded()
        """)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-c", script, str(pipeline), str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert (tmp_path / "g.kg").read_bytes() == (pipeline / "g.kg").read_bytes()

    @staticmethod
    def _edit_array(text, name, edit):
        """Apply edit(header_line, values_line) to one array of a ckpt-v1 text."""
        lines = text.splitlines()
        at = next(i for i, line in enumerate(lines) if line.split()[:2] == ["array", name])
        lines[at], lines[at + 1] = edit(lines[at], lines[at + 1])
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("name, edit", [
        ("critic_b", lambda head, values: (head, "nan")),
        ("critic_b", lambda head, values: (head.replace("critic_b", "critic_bias"), values)),
        ("actor_b", lambda head, values: ("array actor_b 5", " ".join(values.split()[:5]))),
    ], ids=["nan-critic_b", "renamed-critic_b", "short-actor_b"])
    def test_eval_rejects_malformed_checkpoint_arrays(self, pipeline, tmp_path, capsys, name, edit):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_text(self._edit_array((pipeline / "model.ckpt").read_text(), name, edit))
        code = run(["eval", "--ckpt", str(ckpt), "--scenes", str(pipeline / "scenes"),
                    "--episodes", "1", "--seeds", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error category=format:") and len(err.strip().splitlines()) == 1

    def test_eval_rejects_checkpoint_edges_breaking_kg_rules(self, pipeline, tmp_path, capsys):
        # well-formed arrays of the right shapes, but edges that no kg-v1 file
        # may hold: 7.5 and -3.0 off the diagonal, 0.0 on it
        arrays, meta = nn.load_checkpoint(pipeline / "model.ckpt")
        m = arrays["graph_edges"].shape[0]
        arrays["graph_edges"] = np.where(np.eye(m, dtype=bool), 0.0, 7.5)
        arrays["graph_edges"][0, 1] = arrays["graph_edges"][1, 0] = -3.0
        ckpt = tmp_path / "bad-edges.ckpt"
        nn.save_checkpoint(ckpt, arrays, meta)
        code = run(["eval", "--ckpt", str(ckpt), "--scenes", str(pipeline / "scenes"),
                    "--episodes", "3", "--seeds", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error category=format:") and len(err.strip().splitlines()) == 1

    def test_checkpoint_with_unread_header_key_loads(self, pipeline, tmp_path):
        # older checkpoints carry sync_mode=..., which nothing reads
        header, _, body = (pipeline / "model.ckpt").read_text().partition("\n")
        ckpt = tmp_path / "old.ckpt"
        ckpt.write_text(header + " sync_mode=synchronous\n" + body)
        params, graph, _, meta = load_checkpoint_bundle(ckpt)
        want, _, _, _ = load_checkpoint_bundle(pipeline / "model.ckpt")
        assert meta["sync_mode"] == "synchronous"
        for k in want:
            np.testing.assert_array_equal(params[k], want[k])

    def test_missing_file_error_category(self, tmp_path, capsys):
        code = run(["eval", "--ckpt", str(tmp_path / "nope.ckpt"),
                    "--scenes", str(tmp_path), "--episodes", "1", "--seeds", "1"])
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("error category=")

    @pytest.mark.parametrize("target", ["binary", "directory"])
    def test_eval_checkpoint_not_readable_text(self, pipeline, tmp_path, capsys, target):
        ckpt = tmp_path / "model.ckpt"
        if target == "binary":
            ckpt.write_bytes(bytes(range(256)))
        else:
            ckpt.mkdir()
        code = run(["eval", "--ckpt", str(ckpt), "--scenes", str(pipeline / "scenes"),
                    "--episodes", "1", "--seeds", "1"])
        assert code == 1
        err = capsys.readouterr().err
        category = "format" if target == "binary" else "io"
        assert err.startswith(f"error category={category}:") and len(err.strip().splitlines()) == 1

    def test_train_graph_not_utf8(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.kg"
        bad.write_bytes(b"kg-v1 M=1 N=1 room=kitchen\n\xff\n1.0\n")
        code = run(["train", "--scenes", str(pipeline / "scenes"), "--graph", str(bad),
                    "--episodes", "1", "--out", str(tmp_path / "m.ckpt")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error category=format:") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("line", ["stats_every = 0", "hidden = 0", "train.lr = -1",
                                      "train.lr = nan", "train.lr = inf",
                                      "train.entropy_coef = inf", "train.entropy_coef = nan",
                                      "train.value_coef = inf", "train.value_coef = nan"])
    def test_train_rejects_unusable_config_value(self, pipeline, tmp_path, capsys, line):
        # checked once the command line has overridden the file, before any
        # scene is read: one categorised line, and nothing written
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"embedding.dim = 16\nhidden = 16\ntrain.episodes = 4\n{line}\n")
        out = tmp_path / "m.ckpt"
        code = run(["train", "--scenes", str(pipeline / "scenes"), "--graph", str(pipeline / "g.kg"),
                    "--config", str(cfg), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error category=config:") and len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.cfg"]

    def test_train_rejects_negative_zone_count(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.kg"
        bad.write_text("kg-v1 M=-1 N=16 room=kitchen\n")
        code = run(["train", "--scenes", str(pipeline / "scenes"), "--graph", str(bad),
                    "--episodes", "1", "--out", str(tmp_path / "m.ckpt")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error category=format:") and len(err.strip().splitlines()) == 1


# each selfcheck line, its kernel by its path from zonegraph.selfcheck, and a
# corruption of that kernel's output
SELFCHECK_BREAKS = [
    ("equation-algebra", "sweep_position_features",
     lambda fmap: dataclasses.replace(fmap, rows=fmap.rows * 1.001)),
    ("planner-vs-enumeration", "max_product_path",
     lambda path_prob: (path_prob[0], path_prob[1] * 0.999)),
    ("matching-vs-bruteforce", "match_graphs", lambda perm: np.arange(len(perm))),
    # a recurrent input weight gradient off by a relative 1e-3
    ("gradient-finite-difference", "nn.lstm_backward_seq",
     lambda grads: (grads[0] * 1.001, *grads[1:])),
]


class TestSelfcheck:
    def test_selfcheck_passes(self, capsys):
        assert run(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert [l.partition(":")[0] for l in out.splitlines()] == [
            f"PASS {line}" for line, _, _ in SELFCHECK_BREAKS]

    @pytest.mark.parametrize("line, kernel, corrupt", SELFCHECK_BREAKS,
                             ids=[line for line, _, _ in SELFCHECK_BREAKS])
    def test_each_line_fails_on_its_own_broken_kernel(self, monkeypatch, capsys, line, kernel,
                                                       corrupt):
        real = operator.attrgetter(kernel)(selfcheck)
        monkeypatch.setattr(f"zonegraph.selfcheck.{kernel}", lambda *args: corrupt(real(*args)))
        assert run(["selfcheck"]) == 1
        failed = [l for l in capsys.readouterr().out.splitlines() if l.startswith("FAIL")]
        assert len(failed) == 1 and failed[0].startswith(f"FAIL {line}:"), failed

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from zonegraph.sim import generate_scene, scene_to_text

ROOT = Path(__file__).resolve().parents[1]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGraphDigest:
    def test_one_set_digests_every_stage_and_writes_nothing(self):
        digest = load_script("graph_digest")
        sets = digest.scene_sets()
        assert len(sets) == 129 and sets[-1] == ("bedroom", (8, 8), range(36, 40))
        data = ROOT / "bench" / "data"
        before = sorted((p.name, p.stat().st_mtime_ns) for p in data.iterdir())
        first, scenes = digest.digest(sets[:1])
        assert scenes == 4 and list(first) == list(digest.STAGES)
        assert all(len(h) == 64 for h in first.values())
        room, size, seeds = sets[0]
        texts = "".join(scene_to_text(generate_scene(room, size, seed)) for seed in seeds)
        assert first["scene"] == hashlib.sha256(texts.encode()).hexdigest()
        assert digest.digest(sets[:1]) == (first, 4)
        other, _ = digest.digest(sets[1:2])
        assert all(other[stage] != first[stage] for stage in digest.STAGES)
        assert sorted((p.name, p.stat().st_mtime_ns) for p in data.iterdir()) == before


class TestCodeLines:
    def test_counts_no_blank_line_comment_or_docstring(self):
        code_lines = load_script("code_lines")
        source = ('"""Module\ndocstring."""\n\nimport os  # a comment\n\n\n'
                  'def f(x):\n    """Docstring."""\n    # a comment\n'
                  '    return (x +\n            1)\n\n\nTEXT = """a\nb"""\n')
        # import, def, the two lines of return and the two of TEXT
        assert code_lines.code_lines(source) == 6

    def test_prints_each_file_then_the_totals(self, tmp_path, capsys):
        code_lines = load_script("code_lines")
        (tmp_path / "src" / "pkg").mkdir(parents=True)
        (tmp_path / "tests").mkdir()
        (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
        (tmp_path / "tests" / "test_a.py").write_text("# only a comment\n\nz = 3\n")
        code_lines.main(tmp_path)
        assert capsys.readouterr().out.splitlines() == [
            "     2  src/pkg/a.py", "     1  tests/test_a.py",
            "     2  src/ total", "     1  tests/ total", "     3  total"]


class TestGoldenOutputs:
    BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def test_pins_one_blas_thread_before_numpy_is_imported(self):
        # numpy reads the variables once, when it is first imported, so the
        # script is loaded in a fresh process with none of them set, and a
        # finder records them at the moment numpy is looked up
        script = textwrap.dedent("""
            import importlib.abc, importlib.util, json, os, sys
            names, path = sys.argv[1].split(","), sys.argv[2]
            seen = {}

            class Spy(importlib.abc.MetaPathFinder):
                def find_spec(self, name, target_path=None, target=None):
                    if name == "numpy" and not seen:
                        seen.update((v, os.environ.get(v)) for v in names)
                    return None

            sys.meta_path.insert(0, Spy())
            spec = importlib.util.spec_from_file_location("golden_outputs", path)
            spec.loader.exec_module(importlib.util.module_from_spec(spec))
            print(json.dumps(seen))
        """)
        env = {k: v for k, v in os.environ.items() if k not in self.BLAS_VARS}
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
        proc = subprocess.run(
            [sys.executable, "-c", script, ",".join(self.BLAS_VARS),
             str(ROOT / "scripts" / "golden_outputs.py")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout) == {v: "1" for v in self.BLAS_VARS}

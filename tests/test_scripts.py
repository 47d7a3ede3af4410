import hashlib
import importlib.util
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

import importlib.util
from pathlib import Path

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
        assert digest.digest(sets[:1]) == (first, 4)
        other, _ = digest.digest(sets[1:2])
        assert all(other[stage] != first[stage] for stage in digest.STAGES)
        assert sorted((p.name, p.stat().st_mtime_ns) for p in data.iterdir()) == before

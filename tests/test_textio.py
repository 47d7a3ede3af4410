"""The shared text codec and the loader contract of the four artifact
formats: a valid text round-trips byte for byte, and any text either loads
as a valid object or raises a ZonegraphError."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from zonegraph import nn
from zonegraph.categories import ROOM_CATEGORIES
from zonegraph.embedding import EmbeddingProvider, embeddings_from_text, embeddings_to_text, load_embeddings
from zonegraph.errors import FormatError, ZonegraphError
from zonegraph.graph import KnowledgeGraph, graph_from_text, graph_to_text, load_graph
from zonegraph.sim import generate_scene, load_scene, scene_from_text, scene_to_text
from zonegraph import textio
from zonegraph.textio import (float_row, header_fields, parse_float_row, parse_floats, read_text,
                             write_text)

FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestCodec:
    def test_read_text_rejects_non_utf8(self, tmp_path):
        path = tmp_path / "binary"
        path.write_bytes(b"kg-v1 \xff\xfe\x00")
        with pytest.raises(FormatError, match="not UTF-8"):
            read_text(path)

    def test_write_then_read(self, tmp_path):
        write_text(tmp_path / "f", "a b\nc\n")
        assert read_text(tmp_path / "f") == "a b\nc\n"

    def test_header_magic_must_be_the_whole_first_word(self):
        assert header_fields(["ckpt-v1 D=3 x=a=b flag"], "ckpt-v1") == {"D": "3", "x": "a=b"}
        for lines in ([], [""], ["ckpt-v1x D=3"], ["ckpt-v2 D=3"], ["D=3 ckpt-v1"]):
            with pytest.raises(FormatError, match="line 1: the file is not ckpt-v1"):
                header_fields(lines, "ckpt-v1")

    def test_float_row_is_repr_of_each_value(self):
        values = [0.1, -0.0, 1e-310, 1.7976931348623157e308, 3.0, -2.5e-05]
        assert float_row(values) == " ".join(repr(v) for v in values)
        assert float_row(np.array([[1.0, 2.0], [3.0, 4.0]])) == "1.0 2.0 3.0 4.0"
        assert float_row(0.99) == "0.99"

    @pytest.mark.parametrize("size", [8191, 8192, 8193, 20000])
    def test_float_row_across_chunks(self, size):
        values = np.random.default_rng(size).normal(size=size) * 10.0 ** (np.arange(size) % 600 - 300)
        assert float_row(values) == " ".join(repr(float(v)) for v in values)

    @given(arrays(np.float64, st.integers(0, 20), elements=FINITE))
    def test_float_row_round_trips_bitwise(self, values):
        back = parse_floats(float_row(values).split(), 1)
        assert back.tobytes() == values.tobytes()

    @pytest.mark.parametrize("parts, count, message", [
        (["1.0", "2.0"], 3, "line 7: expected 3 floats, got 2"),
        (["1.0", "x"], None, "line 7: unparsable float"),
        (["1.0", "nan"], None, "line 7: non-finite value"),
        (["-inf"], 1, "line 7: non-finite value"),
        (["1e999"], 1, "line 7: non-finite value"),
    ])
    def test_parse_floats_rejects(self, parts, count, message):
        with pytest.raises(FormatError, match=message):
            parse_floats(parts, 7, count)


# ---------------------------------------------------------------------------
# Checkpoint rows longer than one parse chunk

def _long_row(size, seed=0):
    values = np.random.default_rng(seed).normal(size=size) * 10.0 ** (np.arange(size) % 600 - 300)
    return values, float_row(values)


class TestChunkedRows:
    def test_long_row_spans_several_chunks(self):
        _, line = _long_row(20000)
        assert len(line) > 4 * textio._PARSE_CHARS

    @pytest.mark.parametrize("size", [1, 2999, 20000])
    def test_checkpoint_round_trips_bitwise(self, tmp_path, size):
        values, _ = _long_row(size, seed=size)
        arrays = {"w": values.reshape(size, 1), "b": values[:3]}
        path = tmp_path / "long.ckpt"
        nn.save_checkpoint(path, arrays, {"D": 1})
        for back, meta in (nn.load_checkpoint(path), nn.checkpoint_from_text(path.read_text())):
            assert meta == {"D": "1"} and sorted(back) == ["b", "w"]
            for name in arrays:
                assert back[name].shape == arrays[name].shape
                assert back[name].tobytes() == arrays[name].tobytes()

    @pytest.mark.parametrize("edits", [
        {15000: "abc"}, {15000: "nan"}, {19999: "-inf"}, {100: "nan", 15000: "x"},
        {100: "x", 15000: "nan"}, {19999: "1e999", 0: "0x1"}, {}, {20000: "1.0"}, {19999: None},
        {0: None, 15000: "abc"},
    ], ids=lambda edits: ",".join(f"{at}={v}" for at, v in edits.items()) or "none")
    def test_row_reads_as_parse_floats_reads_its_tokens(self, edits):
        # parse_floats on the whole token list is the reference: the same
        # values, or the same message with the same count and line
        tokens = _long_row(20000)[1].split()
        for at, token in sorted(edits.items(), reverse=True):
            if token is None:
                del tokens[at]
            elif at == len(tokens):
                tokens.append(token)
            else:
                tokens[at] = token
        line = " ".join(tokens)
        try:
            want = parse_floats(line.split(), 12, 20000)
        except FormatError as e:
            with pytest.raises(FormatError, match=f"^{re.escape(str(e))}$"):
                parse_float_row(line, 12, 20000)
        else:
            assert parse_float_row(line, 12, 20000).tobytes() == want.tobytes()

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t[:-1], "line 3: expected 20000 floats, got 19999"),
        (lambda t: t + ["2.5"], "line 3: expected 20000 floats, got 20001"),
        (lambda t: t[:15000] + ["abc"] + t[15001:], "line 3: unparsable float"),
        (lambda t: t[:15000] + ["nan"] + t[15001:], "line 3: non-finite value"),
    ], ids=["short", "long", "unparsable", "non-finite"])
    def test_checkpoint_error_past_the_first_chunk(self, edit, message):
        tokens = _long_row(20000)[1].split()
        text = f"ckpt-v1 D=1\narray w 20000\n{' '.join(edit(tokens))}\n"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            nn.checkpoint_from_text(text)

    def test_oversized_shape_allocates_nothing_from_it(self):
        # a (20000, 20000) array would take 3.2 GB; the header alone must
        # not make the parser allocate it
        text = "ckpt-v1 D=1\narray w 20000 20000\n1.0 2.0\n"
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="^line 3: expected 400000000 floats, got 2$"):
                nn.checkpoint_from_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# ---------------------------------------------------------------------------
# Generated valid texts, one strategy per format

SCENE_TEXTS = st.builds(
    lambda room, w, d, seed: scene_to_text(generate_scene(room, (w, d), seed)),
    st.sampled_from(ROOM_CATEGORIES), st.integers(4, 9), st.integers(4, 9), st.integers(0, 10**6))


@st.composite
def graph_texts(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    nodes = draw(arrays(np.float64, (m, n), elements=FINITE))
    upper = np.triu(draw(arrays(np.float64, (m, m), elements=st.floats(0.0, 1.0))), 1)
    edges = upper + upper.T + np.eye(m)
    return graph_to_text(KnowledgeGraph(nodes, edges, draw(st.sampled_from(ROOM_CATEGORIES))))


NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,7}", fullmatch=True)


@st.composite
def checkpoint_texts(draw):
    meta = draw(st.dictionaries(NAMES, st.from_regex(r"[!-~]{0,8}", fullmatch=True), max_size=4))
    shapes = st.lists(st.integers(0, 3), max_size=3).map(tuple)
    named = draw(st.dictionaries(NAMES, shapes, min_size=1, max_size=4))
    tensors = {name: draw(arrays(np.float64, shape, elements=FINITE)) for name, shape in named.items()}
    return nn.checkpoint_to_text(tensors, meta)


@st.composite
def embedding_texts(draw):
    dim = draw(st.integers(1, 6))
    vector = arrays(np.float64, dim, elements=st.floats(-1e3, 1e3)).filter(
        lambda v: np.linalg.norm(v) > 1e-3)
    table = draw(st.dictionaries(NAMES, vector, max_size=4))
    return embeddings_to_text(EmbeddingProvider(dim, "file", table={
        cat: v / np.linalg.norm(v) for cat, v in table.items()}))


def _checkpoint_to_text(loaded):
    return nn.checkpoint_to_text(*loaded)


def _scene_valid(scene):
    return scene.width >= 1 and scene.depth >= 1 and np.isfinite(
        [(o.x, o.z) for o in scene.objects]).all()


def _graph_valid(graph):
    return np.isfinite(graph.nodes).all() and np.isfinite(graph.edges).all()


def _checkpoint_valid(loaded):
    return all(np.isfinite(a).all() for a in loaded[0].values())


def _embeddings_valid(provider):
    return provider.dim >= 1 and all(np.isfinite(provider.object_embedding(c)).all()
                                     for c in provider.known_categories())


FORMATS = {  # name: (valid texts, parser, writer of what it returns, validity of what it returns)
    "scene-v1": (SCENE_TEXTS, scene_from_text, scene_to_text, _scene_valid),
    "kg-v1": (graph_texts(), graph_from_text, graph_to_text, _graph_valid),
    "ckpt-v1": (checkpoint_texts(), nn.checkpoint_from_text, _checkpoint_to_text, _checkpoint_valid),
    "embeddings-v1": (embedding_texts(), embeddings_from_text, embeddings_to_text, _embeddings_valid),
}

# tokens that probe signs, zero sizes, special floats, overflow, words that
# name a format keyword and bare separators
TOKENS = ("-1", "0", "1", "-2", "nan", "inf", "-inf", "1e999", "99999999999999999999",
          "x", "scalar", "array", "=", "D=0", "D=-1", "M=-1", "\n")


def _tokens(text):
    """Words and line breaks, in order."""
    return re.findall(r"\S+|\n", text)


def _text(tokens):
    return re.sub(r" ?\n ?", "\n", " ".join(tokens))


@st.composite
def mutated(draw, texts):
    """A valid text with 1-3 of its words or line breaks replaced, deleted
    or preceded by an inserted token: as often one of TOKENS as a word of
    the text. Positions are drawn uniformly, so the header is not favoured."""
    text = draw(texts)
    rnd = draw(st.randoms(use_true_random=True))
    tokens = _tokens(text)
    words = tuple(tokens)
    for _ in range(rnd.randint(1, 3)):
        op = rnd.choice(("replace", "delete", "insert"))
        if op == "insert":
            tokens.insert(rnd.randint(0, len(tokens)), rnd.choice(rnd.choice((TOKENS, words))))
        elif tokens:
            at = rnd.randrange(len(tokens))
            if op == "replace":
                tokens[at] = rnd.choice(rnd.choice((TOKENS, words)))
            else:
                del tokens[at]
    return _text(tokens)


@pytest.mark.parametrize("fmt", FORMATS)
@given(data=st.data())
def test_valid_text_round_trips_byte_identically(fmt, data):
    texts, parse, write, _ = FORMATS[fmt]
    text = data.draw(texts)
    assert write(parse(text)) == text


def _loads_valid_or_raises(fmt, text):
    _, parse, write, valid = FORMATS[fmt]
    try:
        loaded = parse(text)
    except ZonegraphError:
        return
    # what loads is valid: finite, positive sizes, and it writes out and
    # reads back to the same text
    assert valid(loaded), text
    again = write(loaded)
    assert write(parse(again)) == again, text


@pytest.mark.parametrize("fmt", FORMATS)
@given(data=st.data())
def test_mutated_text_loads_or_raises_categorised_error(fmt, data):
    _loads_valid_or_raises(fmt, data.draw(mutated(FORMATS[fmt][0])))


@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=6)
@given(data=st.data())
def test_every_single_token_edit_loads_or_raises_categorised_error(fmt, data):
    tokens = _tokens(data.draw(FORMATS[fmt][0]))
    edits = [tokens[:at] + tokens[at + 1:] for at in range(len(tokens))]
    for token in TOKENS:
        edits += [tokens[:at] + [token] + tokens[at + 1:] for at in range(len(tokens))]
        edits += [tokens[:at] + [token] + tokens[at:] for at in range(len(tokens) + 1)]
    for edit in edits:
        _loads_valid_or_raises(fmt, _text(edit))


# ---------------------------------------------------------------------------
# Inputs that ended in a raw exception before the shared codec

LOADERS = {"ckpt": nn.load_checkpoint, "kg": load_graph, "scene": load_scene,
           "embeddings": load_embeddings}


@pytest.mark.parametrize("kind", LOADERS)
def test_regression_non_utf8_file_is_format_error(tmp_path, kind):
    path = tmp_path / f"binary.{kind}"
    path.write_bytes(bytes(range(256)))
    with pytest.raises(FormatError, match="not UTF-8"):
        LOADERS[kind](path)


def test_regression_negative_checkpoint_shape_is_format_error():
    with pytest.raises(FormatError, match="bad shape"):
        nn.checkpoint_from_text("ckpt-v1 D=1\narray x -1 -2\n1.0 2.0\n")


def test_regression_oversized_empty_checkpoint_shape_is_format_error():
    with pytest.raises(FormatError, match="bad shape"):
        nn.checkpoint_from_text("ckpt-v1 D=1\narray x 0 99999999999999999999\n\n")


def test_regression_non_finite_checkpoint_value_rejected_by_parser():
    with pytest.raises(FormatError, match="line 3: non-finite value"):
        nn.checkpoint_from_text("ckpt-v1 D=1\narray x 2\n1.0 nan\n")


def test_regression_checkpoint_magic_is_exact():
    with pytest.raises(FormatError, match="the file is not ckpt-v1"):
        nn.checkpoint_from_text("ckpt-v1x D=1\narray x scalar\n1.0\n")


def _scene_lines():
    return scene_to_text(generate_scene("kitchen", (6, 6), 2)).splitlines()


def test_regression_negative_scene_size_is_format_error():
    lines = _scene_lines()
    lines[3], lines[5] = "size -2 -3", "reachable 111111"
    with pytest.raises(FormatError, match="line 4: size must be >= 1"):
        scene_from_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("coordinate", ["nan", "inf", "-inf", "1e999"])
def test_regression_non_finite_scene_coordinate_is_format_error(coordinate):
    lines = _scene_lines()
    parts = lines[7].split()
    parts[1] = coordinate
    lines[7] = " ".join(parts)
    with pytest.raises(FormatError, match="line 8: non-finite value"):
        scene_from_text("\n".join(lines) + "\n")


def _edit_object(lines, line, column, token):
    parts = lines[line - 1].split()
    parts[column] = token
    lines[line - 1] = " ".join(parts)


@pytest.mark.parametrize("edit, message", [
    (lambda ls: _edit_object(ls, 10, 2, "x"), "line 10: unparsable float"),
    (lambda ls: (_edit_object(ls, 9, 1, "nan"), _edit_object(ls, 10, 2, "x")),
     "line 9: non-finite value"),
    (lambda ls: (_edit_object(ls, 9, 3, "top"), _edit_object(ls, 10, 1, "x")),
     "line 9: bad height band 'top'"),
    (lambda ls: (_edit_object(ls, 9, 3, "top"), _edit_object(ls, 9, 1, "x")),
     "line 9: unparsable float"),
    (lambda ls: (_edit_object(ls, 9, 1, "inf"), ls.__setitem__(9, "Sink 2.5 0.5")),
     "line 9: non-finite value"),
    (lambda ls: (_edit_object(ls, 10, 1, "inf"), ls.__setitem__(8, "Sink 2.5 0.5")),
     "line 9: expected 'category x z band'"),
    (lambda ls: (_edit_object(ls, 20, 2, "nan"), ls.__setitem__(6, "objects 15")),
     "line 20: non-finite value"),
    (lambda ls: (_edit_object(ls, 19, 2, "-1e999"), ls.__setitem__(6, "objects 15")),
     "line 19: non-finite value"),
    (lambda ls: ls.__setitem__(6, "objects 15"), "line 22: unexpected end of scene file"),
], ids=["one-bad", "non-finite-before-unparsable", "band-before-coordinate",
        "coordinate-before-band", "coordinate-before-short-record",
        "short-record-before-coordinate", "coordinate-before-end", "overflow-before-end", "end"])
def test_scene_coordinate_error_names_the_first_bad_record(edit, message):
    # records are checked in file order; within one record, the field count,
    # then the coordinates, then the band
    lines = _scene_lines()
    edit(lines)
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        scene_from_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("dim", [0, -1])
def test_regression_embedding_dimension_below_one_is_format_error(dim):
    with pytest.raises(FormatError, match="D must be >= 1"):
        embeddings_from_text(f"embeddings-v1 D={dim}\n")

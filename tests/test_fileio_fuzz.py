"""Mutated BSF/SGF texts: the chunked readers must agree with the
line-by-line oracles bit for bit, or raise the same error."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from jacobiset import MeshError, ParseError, load_bsf, load_sgf, save_bsf, save_sgf
from jacobiset import fileio
from jacobiset.fileio import GridField

from conftest import bits, load_bsf_oracle, load_sgf_oracle, wave_field

TOKENS = [
    "1_0", "nan", "-inf", "1e999", "0.5", "-0.0", "3", "+2", "1.", ".5e-3", "x", "0b1",
    "0x1.8p+1", "-0x0p+0", "0X1P-3", "0x1p99999", "-0x1p99999",
    "99999999999999999999", "-9223372036854775809", "9223372036854775807",
]


def _base_texts():
    rng = np.random.default_rng(5)
    field = wave_field(rng, 4, 3)
    grid = GridField(3, 3, 1.0, 0.5, rng.normal(size=9), rng.normal(size=9))
    with tempfile.TemporaryDirectory() as tmp:
        save_bsf(field, Path(tmp) / "a.bsf")
        save_sgf(grid, Path(tmp) / "a.sgf")
        return (Path(tmp) / "a.bsf").read_text(), (Path(tmp) / "a.sgf").read_text()


BSF_TEXT, SGF_TEXT = _base_texts()

token = st.one_of(
    st.sampled_from(TOKENS), st.floats().map(float.hex), st.integers(-3, 12).map(str)
)
mutation = st.tuples(
    st.sampled_from(["drop", "extra", "shift", "replace", "replace", "replace", "truncate"]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    token,
)


def mutate(text: str, mutations) -> str:
    lines = text.split("\n")
    for kind, where, pos, tok in mutations:
        if kind == "truncate":
            joined = "\n".join(lines)
            lines = joined[: pos % (len(joined) + 1)].split("\n")
            continue
        i = where % len(lines)
        toks = lines[i].split()
        if kind == "shift" and toks and i + 1 < len(lines):
            # Move a token to the next line: the token total stays the same.
            lines[i + 1] = f"{toks.pop(pos % len(toks))} {lines[i + 1]}"
        elif kind == "drop" and toks:
            del toks[pos % len(toks)]
        elif kind == "extra":
            toks.insert(pos % (len(toks) + 1), tok)
        elif kind == "replace" and toks:
            toks[pos % len(toks)] = tok
        lines[i] = " ".join(toks)
    return "\n".join(lines)


def outcome(load, path):
    """The loaded arrays as bit patterns, or the error as (type, message)."""
    try:
        result = load(path)
    except (ParseError, MeshError, OverflowError) as exc:
        return type(exc), str(exc)
    if isinstance(result, GridField):
        return (result.width, result.height, result.dx, result.dy,
                bits(result.f).tolist(), bits(result.g).tolist())
    return (bits(result.positions).tolist(), bits(result.values).tolist(),
            result.triangles.tolist())


@settings(max_examples=300, deadline=None)
@given(
    sgf=st.booleans(),
    mutations=st.lists(mutation, min_size=1, max_size=3),
    chunk=st.sampled_from([2, 3, fileio.CHUNK_LINES]),
)
def test_mutated_text_matches_line_oracle(sgf, mutations, chunk):
    text = mutate(SGF_TEXT if sgf else BSF_TEXT, mutations)
    load, oracle = (load_sgf, load_sgf_oracle) if sgf else (load_bsf, load_bsf_oracle)
    saved = fileio.CHUNK_LINES
    fileio.CHUNK_LINES = chunk
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / ("m.sgf" if sgf else "m.bsf")
            path.write_text(text, encoding="utf-8")
            got, want = outcome(load, path), outcome(oracle, path)
    finally:
        fileio.CHUNK_LINES = saved
    if want[0] is OverflowError:
        # The line-by-line parser crashed on an index beyond int64 or a
        # hex float beyond the double range; the reader names the line.
        assert got[0] is ParseError and "out of range" in got[1]
    else:
        assert got == want

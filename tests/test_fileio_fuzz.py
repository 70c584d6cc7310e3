"""Mutated BSF/SGF texts: the readers, on numpy's text reader or on their
line-by-line fallback, must agree with the line-by-line oracles bit for
bit, or raise the same error. The tokens and separators probe where
numpy's reader and Python's ``float``/``int`` and ``str.split`` could
disagree."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from jacobiset import MeshError, ParseError, load_bsf, load_sgf, save_bsf, save_sgf
from jacobiset.fileio import GridField

from conftest import _parse_float, _parse_int, bits, load_bsf_oracle, load_sgf_oracle, wave_field

TOKENS = [
    "1_0", "nan", "-inf", "1e999", "0.5", "-0.0", "3", "+2", "1.", ".5e-3", "x", "0b1",
    "0x1.8p+1", "-0x0p+0", "0X1P-3", "0x1p99999", "-0x1p99999",
    "99999999999999999999", "-9223372036854775809", "9223372036854775807",
    "#", '"1"', "1,2", "\u0661", "\uff11", "infinity", "-nan", "5.0", "1\x00", "\ufeff1",
]
# Whitespace that str.split splits on, other than a space.
SEPARATORS = ["\xa0", "\u2003", "\x0b"]
BLANK_LINES = ["", " ", "\t", "\xa0 "]


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
    st.sampled_from(
        ["drop", "extra", "shift", "replace", "replace", "replace", "truncate", "sep", "blank"]
    ),
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
        if kind == "blank":
            lines.insert(i, BLANK_LINES[pos % len(BLANK_LINES)])
            continue
        toks = lines[i].split()
        sep = " "
        if kind == "shift" and toks and i + 1 < len(lines):
            # Move a token to the next line: the token total stays the same.
            lines[i + 1] = f"{toks.pop(pos % len(toks))} {lines[i + 1]}"
        elif kind == "drop" and toks:
            del toks[pos % len(toks)]
        elif kind == "extra":
            toks.insert(pos % (len(toks) + 1), tok)
        elif kind == "replace" and toks:
            toks[pos % len(toks)] = tok
        elif kind == "sep":
            sep = SEPARATORS[pos % len(SEPARATORS)]
        lines[i] = sep.join(toks)
    return "\n".join(lines)


def outcome(load, path):
    """The loaded arrays as bit patterns, or the error as (type, message)."""
    try:
        result = load(path)
    except (ParseError, MeshError, OverflowError) as exc:
        return type(exc), str(exc)
    if isinstance(result, GridField):
        return (result.width, result.height, bits(np.array([result.dx, result.dy])).tolist(),
                bits(result.f).tolist(), bits(result.g).tolist())
    return (bits(result.positions).tolist(), bits(result.values).tolist(),
            result.triangles.tolist())


def _bad_spacing(text: str) -> bool:
    """Whether the SGF header passes the line oracle's checks before the
    spacing, and its ``dx`` or ``dy`` is not finite or is zero."""
    lines = text.split("\n")
    toks = lines[1].split() if len(lines) > 1 else []
    if lines[0].strip() != "sgf 1" or len(toks) != 5 or toks[0] != "grid":
        return False
    try:
        w, h = (_parse_int(t, "", 2) for t in toks[1:3])
        spacing = np.array([_parse_float(t, "", 2) for t in toks[3:]])
    except (ParseError, OverflowError):
        return False
    return w >= 2 and h >= 2 and not (np.isfinite(spacing).all() and spacing.all())


def check_against_oracle(text: str, sgf: bool) -> None:
    load, oracle = (load_sgf, load_sgf_oracle) if sgf else (load_bsf, load_bsf_oracle)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / ("m.sgf" if sgf else "m.bsf")
        path.write_text(text, encoding="utf-8")
        got = outcome(load, path)
        want = outcome(oracle, path)
    if want[0] is OverflowError:
        # The line-by-line parser crashed on an index beyond int64 or a
        # hex float beyond the double range; the reader names the line.
        assert got[0] is ParseError and "out of range" in got[1]
    else:
        assert got == want


@pytest.mark.parametrize("tok", TOKENS)
def test_each_token_matches_line_oracle(tok):
    # A BSF vertex and triangle line, and the first and last SGF sample.
    for sgf, line in ((False, 4), (False, 17), (True, 3), (True, 11)):
        lines = (SGF_TEXT if sgf else BSF_TEXT).split("\n")
        toks = lines[line - 1].split()
        toks[1] = tok
        lines[line - 1] = " ".join(toks)
        check_against_oracle("\n".join(lines), sgf)


@pytest.mark.parametrize("sep", SEPARATORS)
def test_whitespace_separators_match_line_oracle(sep):
    for sgf, text in ((False, BSF_TEXT), (True, SGF_TEXT)):
        lines = text.split("\n")
        lines[2:] = [sep.join(line.split()) for line in lines[2:]]
        check_against_oracle("\n".join(lines), sgf)


@pytest.mark.parametrize("tok", ["nan", "-inf", "1e999", "-0.0", "0", "0x0p+0"])
@pytest.mark.parametrize("axis", [3, 4])
def test_bad_header_spacing_matches_reader(tok, axis):
    lines = SGF_TEXT.split("\n")
    toks = lines[1].split()
    toks[axis] = tok
    lines[1] = " ".join(toks)
    text = "\n".join(lines)
    assert _bad_spacing(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.sgf"
        path.write_text(text, encoding="utf-8")
        assert outcome(load_sgf, path) == (
            ParseError, f"{path}:2: grid spacing must be finite and nonzero"
        )
    check_against_oracle(text, sgf=True)


@settings(max_examples=300, deadline=None)
@given(sgf=st.booleans(), mutations=st.lists(mutation, min_size=1, max_size=3))
def test_mutated_text_matches_line_oracle(sgf, mutations):
    check_against_oracle(mutate(SGF_TEXT if sgf else BSF_TEXT, mutations), sgf)

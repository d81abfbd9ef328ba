"""The QCQP text loader: bitwise round trips, a plain reference parse, and malformed files.

The loader converts a matrix entry once when its text is that of its
mirror.  These tests hold it to what converting every token gives: over
specs written by ``save_qcqp``, over files whose mirrored entries differ in
value or only in spelling and spacing, and over malformed files, whose
message and line number must not change.  The property tests run under
conftest.py's ``repeatable`` hypothesis profile, so every run draws the
same cases.
"""

import dataclasses
import os
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pplad import Ball, Box, NonnegativeOrthant, QcqpSpec, WholeSpace
from pplad.problems import QcqpParseError, _parse_qcqp, load_qcqp_spec, save_qcqp

FIELDS = ("Q", "q", "Qj", "qj", "bj")

# signed zeros, subnormals, integers and magnitudes near 1e300; all below
# 8.9e307, so that M + M' stays finite when specs() symmetrizes the
# non-symmetric matrices it draws
numbers = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
    st.integers(-10**6, 10**6).map(float),
    st.floats(1e299, 1e301),
    st.floats(-1e301, -1e299),
    st.floats(-1e300, 1e300),
)


def arrays(draw, shape):
    size = int(np.prod(shape))
    return np.array(draw(st.lists(numbers, min_size=size, max_size=size)),
                    dtype=float).reshape(shape)


@st.composite
def specs(draw):
    """A spec with n <= 5, m <= 3 and any of the four projection kinds."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    kind = draw(st.sampled_from([WholeSpace, NonnegativeOrthant, Box, Ball]))
    if kind is Box:
        a, b = arrays(draw, (n,)), arrays(draw, (n,))
        projection = Box(lo=np.minimum(a, b), hi=np.maximum(a, b))
    elif kind is Ball:
        projection = Ball(center=arrays(draw, (n,)), radius=draw(st.floats(5e-324, 1e300)))
    else:
        projection = kind()
    return QcqpSpec(Q=arrays(draw, (n, n)), q=arrays(draw, (n,)), Qj=arrays(draw, (m, n, n)),
                    qj=arrays(draw, (m, n)), bj=arrays(draw, (m,)), projection=projection)


def assert_bitwise(actual: dict, expected: dict):
    for name, value in expected.items():
        a, e = np.asarray(actual[name]), np.asarray(value)
        assert a.shape == e.shape and a.tobytes() == e.tobytes(), name  # tells -0.0 from 0.0


@given(spec=specs())
def test_save_then_load_is_bitwise(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.qcqp"
        save_qcqp(spec, str(path))
        loaded = load_qcqp_spec(str(path))
    assert_bitwise({f: getattr(loaded, f) for f in FIELDS}, {f: getattr(spec, f) for f in FIELDS})
    assert type(loaded.projection) is type(spec.projection)
    assert_bitwise(vars(loaded.projection),
                   {f.name: getattr(spec.projection, f.name)
                    for f in dataclasses.fields(spec.projection)})


def test_symmetric_data_at_the_float_range_round_trips_bitwise(tmp_path):
    # a symmetric matrix is stored as given, so M + M' never forms and cannot overflow
    big = 1.7976931348623157e308
    M = np.array([[big, 5e-324, -0.0], [5e-324, -big, -5e-324], [-0.0, -5e-324, 0.0]])
    fields = dict(Q=M, q=np.zeros(3), Qj=np.stack([M, -M]), qj=np.zeros((2, 3)),
                  bj=np.zeros(2))
    spec = QcqpSpec(**fields, projection=WholeSpace())
    assert_bitwise({f: getattr(spec, f) for f in FIELDS}, fields)
    path = tmp_path / "extremes.qcqp"
    save_qcqp(spec, str(path))
    assert_bitwise({f: getattr(load_qcqp_spec(str(path)), f) for f in FIELDS}, fields)


def spellings(value: float) -> list[str]:
    """Texts that all read as ``value``: shortest, %.17g ("1" for 1.0), 26 digits, "0.50"."""
    text = repr(value)
    return [text, "%.17g" % value, "%.25e" % value, text.upper(),
            text if "e" in text else text + "0"]


@st.composite
def matrix_texts(draw, n):
    """The lines of an n x n matrix, its mirrored pairs drawn alike or not.

    A mirrored pair gets the same value or two, and the same text or another
    spelling of it.  One matrix in two is written plainly (shortest text,
    single spaces), so that whole rows match their mirrors; the rest get a
    spelling per entry, spaces or tabs between entries, and some lines
    leading blanks or a trailing comment.
    """
    values = arrays(draw, (n, n))
    same = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
    values = np.where(np.tril(same, -1), values.T, values)
    if draw(st.booleans()):
        return [" ".join(map(repr, row)) for row in values.tolist()]
    lines = []
    for row in values.tolist():
        texts = [spellings(v)[draw(st.integers(0, 4))] for v in row]
        seps = [draw(st.sampled_from([" ", " ", "  ", "\t", " \t "])) for _ in row[1:]]
        line = texts[0] + "".join(s + t for s, t in zip(seps, texts[1:]))
        lines.append(draw(st.sampled_from(["", "  "])) + line
                     + draw(st.sampled_from(["", "", "  # a comment", "\t#"])))
    return lines


def plain_parse(path) -> dict:
    """The arrays of a QCQP file with projection 'whole', every token through float()."""
    with open(path, encoding="utf-8") as fh:
        lines = iter([t for raw in fh if (t := raw.split("#", 1)[0].strip())])
    n, m = (int(t) for t in next(lines).split()[1:])

    def section(tag, rows):
        assert next(lines) == tag
        return np.array([[float(t) for t in next(lines).split()] for _ in range(rows)])

    Q, q = section("Q", n), section("q", 1)[0]
    Qj, qj, bj = np.empty((m, n, n)), np.empty((m, n)), np.empty(m)
    for j in range(m):
        Qj[j], qj[j], bj[j] = section(f"Q{j + 1}", n), section(f"q{j + 1}", 1)[0], \
            section(f"b{j + 1}", 1)[0, 0]
    assert next(lines) == "projection whole"
    return dict(Q=Q, q=q, Qj=Qj, qj=qj, bj=bj)


@given(data=st.data(), n=st.integers(1, 6), m=st.integers(0, 3))
def test_matrices_read_as_a_plain_parse_reads_them(data, n, m):
    def vector(size):
        return " ".join(map(repr, arrays(data.draw, (size,)).tolist()))

    lines = [f"dim {n} {m}", "Q", *data.draw(matrix_texts(n)), "q", vector(n)]
    for j in range(1, m + 1):
        lines += [f"Q{j}", *data.draw(matrix_texts(n)), f"q{j}", vector(n), f"b{j}", vector(1)]
    lines.append("projection whole")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mirrors.qcqp"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with open(path, encoding="utf-8") as fh:
            parsed = _parse_qcqp(fh)  # before symmetrizing, which could hide a swapped pair
        assert_bitwise(parsed, plain_parse(path))


VALID = """\
dim 3 1
Q
1 2 3
2 4 5
3 5 6
q
0 0 0
Q1
1 0 0
0 1 0
0 0 1
q1
0 0 1
b1
-1
projection box
-1 -1 -1
1 1 1
"""


def malformed(lines=(), cut_after=None):
    """VALID with the given lines (numbered from 1) replaced, or cut after line ``cut_after``."""
    text = VALID.splitlines()
    for k, value in dict(lines).items():
        text[k - 1] = value
    return "\n".join(text[:cut_after]) + "\n"


MALFORMED = {
    "first-row-short": (malformed({3: "1 2"}), "row of Q: expected 3 numbers, got 2", 3),
    "first-row-long": (malformed({3: "1 2 3 4"}), "row of Q: expected 3 numbers, got 4", 3),
    "middle-row-short-left": (malformed({4: "4 5"}), "row of Q: expected 3 numbers, got 2", 4),
    "middle-row-long-left": (malformed({4: "9 2 4 5"}), "row of Q: expected 3 numbers, got 4", 4),
    "middle-row-short-tab": (malformed({4: "2\t4"}), "row of Q: expected 3 numbers, got 2", 4),
    "middle-row-commented-out": (malformed({4: "2 4 # 5"}),
                                 "row of Q: expected 3 numbers, got 2", 4),
    "last-row-diagonal-only": (malformed({5: "6"}), "row of Q: expected 3 numbers, got 1", 5),
    "last-row-short": (malformed({5: "5 6"}), "row of Q: expected 3 numbers, got 2", 5),
    "last-row-long": (malformed({5: "3 5 6 7"}), "row of Q: expected 3 numbers, got 4", 5),
    "second-matrix-row-short": (malformed({10: "1 0"}), "row of Q1: expected 3 numbers, got 2",
                                10),
    "short-row-with-bad-token": (malformed({4: "2 x"}), "row of Q: expected 3 numbers, got 2", 4),
    "bad-token-left-equal-mirror": (malformed({3: "1 x 3", 4: "x 4 5"}),
                                    "row of Q: non-numeric token in '1 x 3'", 3),
    "bad-token-left-other-mirror": (malformed({4: "zz 4 5"}),
                                    "row of Q: non-numeric token in 'zz 4 5'", 4),
    "bad-token-right": (malformed({4: "2 4 five"}), "row of Q: non-numeric token in '2 4 five'",
                        4),
    "bad-token-diagonal": (malformed({11: "0 0 one"}),
                           "row of Q1: non-numeric token in '0 0 one'", 11),
    "vector-row-short": (malformed({7: "0 0"}), "row of q: expected 3 numbers, got 2", 7),
    "offset-row-long": (malformed({15: "-1 2"}), "row of b1: expected 1 numbers, got 2", 15),
    "projection-row-short": (malformed({17: "-1 -1"}), "box lo: expected 3 numbers, got 2", 17),
    "box-lo-above-hi": (malformed({17: "2 -1 -1"}), "projection box: box requires lo <= hi, "
                        "and no NaN, in every coordinate", 16),
    "box-empty": (malformed({17: "inf -1 -1", 18: "inf 1 1"}), "projection box: box is empty: "
                  "lo = +inf or hi = -inf in a coordinate", 16),
    "ball-negative-radius": (malformed({16: "projection ball", 17: "0 0 0", 18: "-1"}),
                             "projection ball: ball radius must be > 0, got -1.0", 16),
    "cut-inside-a-matrix": (malformed(cut_after=9),
                            "unexpected end of file, expected row of Q1", 9),
    "dim-line-of-the-wrong-form": (malformed({1: "dim 3"}), "expected 'dim n m', got 'dim 3'", 1),
    "dimensions-not-integers": (malformed({1: "dim 3 1.0"}),
                                "non-integer dimensions in 'dim 3 1.0'", 1),
    "n-below-one": (malformed({1: "dim 0 1"}), "invalid dimensions n=0, m=1", 1),
    "m-negative": (malformed({1: "dim 3 -1"}), "invalid dimensions n=3, m=-1", 1),
    # refused before any array is allocated for them
    "dimensions-the-file-cannot-fill": (malformed({1: "dim 3 1000000000000"}),
                                        "dimensions n=3, m=1000000000000 need more numbers "
                                        "than the file has", 1),
    "wrong-section-tag": (malformed({2: "R"}), "expected section 'Q', got 'R'", 2),
    "unknown-projection-kind": (malformed({16: "projection simplex"}),
                                "unknown projection kind 'simplex'", 16),
    "projection-line-missing": (VALID.replace("projection box\n", ""),
                                "expected 'projection <kind>', got '-1 -1 -1'", 16),
    "content-after-the-last-section": (VALID + "Q2\n", "trailing content 'Q2'", 19),
}


@pytest.mark.parametrize("text,message,line", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_file_names_its_fault_and_line(tmp_path, text, message, line):
    path = tmp_path / "bad.qcqp"
    path.write_text(text)
    with pytest.raises(QcqpParseError) as info:
        load_qcqp_spec(str(path))
    assert (str(info.value), info.value.line) == (f"{message} (line {line})", line)


def test_save_rejects_a_projection_of_no_known_kind(tmp_path):
    spec = QcqpSpec(Q=np.eye(2), q=np.zeros(2), Qj=(), qj=(), bj=(), projection=lambda v: v)
    path = tmp_path / "unwritten.qcqp"
    with pytest.raises(TypeError, match="unknown projection kind: function"):
        save_qcqp(spec, str(path))
    assert not path.exists()


def load_through_a_fifo(tmp_path, text):
    """load_qcqp_spec of a FIFO that one writer thread fills with ``text``."""
    fifo = tmp_path / "problem.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,))
    writer.start()
    try:
        return load_qcqp_spec(str(fifo))
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


def test_a_file_read_through_a_fifo_loads_as_by_path(tmp_path):
    # a FIFO's size is 0, so the short-file guard must not refuse it
    path = Path(__file__).resolve().parents[1] / "demos" / "output" / "builtin_qcqp.txt"
    by_path, piped = load_qcqp_spec(str(path)), load_through_a_fifo(tmp_path, path.read_text())
    assert_bitwise({f: getattr(piped, f) for f in FIELDS}, {f: getattr(by_path, f) for f in FIELDS})
    assert type(piped.projection) is type(by_path.projection)


@pytest.mark.parametrize("n", [10**10, 2**29], ids=["past-numpy-limit", "past-address-space"])
def test_piped_dimensions_that_cannot_be_allocated_name_the_dim_line(tmp_path, n):
    # numpy refuses the first with ValueError; 2 EiB fails in malloc with MemoryError
    with pytest.raises(QcqpParseError) as info:
        load_through_a_fifo(tmp_path, f"# huge\ndim {n} 0\n")
    assert str(info.value) == f"dimensions n={n}, m=0 cannot be allocated (line 2)"

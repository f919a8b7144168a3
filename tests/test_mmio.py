import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dmresponse.linalg import symmetric_matrix
from dmresponse.mmio import MatrixMarketError, read_matrix_market, write_matrix_market
from dmresponse.models import chain_hamiltonian
from dmresponse.sparse import SparseMatrix, sparsify, threshold

from conftest import random_symmetric


def test_array_identity(tmp_path):
    p = tmp_path / "ident.mtx"
    p.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n0\n0\n1\n")
    m = read_matrix_market(p)
    np.testing.assert_allclose(m, np.eye(2), atol=0)


def test_coordinate_mirror_rule(tmp_path):
    p = tmp_path / "pair.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 0.5\n")
    m = read_matrix_market(p)
    assert isinstance(m, SparseMatrix)
    np.testing.assert_allclose(m.to_dense(), [[0.0, 0.5], [0.5, 0.0]], atol=0)


def test_dense_round_trip_bit_identical(tmp_path, rng):
    x = random_symmetric(rng, 30)
    p = tmp_path / "x.mtx"
    write_matrix_market(p, x)
    back = read_matrix_market(p)
    assert np.array_equal(back, x)


def test_sparse_round_trip_bit_identical(tmp_path):
    sm = sparsify(chain_hamiltonian(50, 1.0), 1e-8)
    p = tmp_path / "chain.mtx"
    write_matrix_market(p, sm)
    back = read_matrix_market(p)
    assert isinstance(back, SparseMatrix)
    assert np.array_equal(back.to_dense(), sm.to_dense())


def test_comments_and_blank_lines_skipped(tmp_path):
    p = tmp_path / "c.mtx"
    p.write_text(
        "%%MatrixMarket matrix array real general\n% a comment\n\n2 2\n1\n0\n0\n2\n"
    )
    m = read_matrix_market(p)
    np.testing.assert_allclose(m, np.diag([1.0, 2.0]), atol=0)


@pytest.mark.parametrize(
    "content, line_no",
    [
        ("%%WrongBanner matrix array real general\n1 1\n1\n", 1),
        ("%%MatrixMarket matrix array complex general\n1 1\n1\n", 1),
        ("%%MatrixMarket matrix array real general\n2 3\n1\n2\n3\n4\n5\n6\n", 2),
        ("%%MatrixMarket matrix array real general\n2 2\n1\n0\n0\n", 2),
        ("%%MatrixMarket matrix array real general\n2 2\n1\nbogus\n0\n1\n", 4),
        ("%%MatrixMarket matrix array real general\n2 2\n1\nnan\n0\n1\n", 4),
        ("%%MatrixMarket matrix array real general\n2 2\n1\ninf\n-inf\n1\n", 4),
        ("%%MatrixMarket matrix array real general\n2 2\n% c\n1\n0\n0\n1e400\n", 7),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 0.5\n", 3),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n3 1 0.5\n", 3),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n2 1 0.5\n1 1 1\n2 1 0.7\n", 5),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1\n2 1 nan\n", 4),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1 inf\n", 3),
        ("%%MatrixMarket matrix array real general\n% c\n-2 -2\n1\n0\n0\n1\n", 3),
        ("%%MatrixMarket matrix coordinate real symmetric\n-2 -2 0\n", 2),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 -1\n", 2),
        ("%%MatrixMarket matrix coordinate real symmetric\n3 3 1\n99999999999999999999 1 1\n", 3),
        ("%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 1\n1 1\n", 4),
        ("%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 1.0 2.0\n1 1 1\n", 3),
        # 1e-12 off symmetric is an error at the size line, not noise to average
        ("%%MatrixMarket matrix array real general\n% c\n2 2\n1\n0.5\n0.500000000001\n1\n", 3),
        ("%%MatrixMarket matrix array real\n1 1\n1\n", 1),
        ("%%MatrixMarket vector array real general\n1 1\n1\n", 1),
        ("%%MatrixMarket matrix array real symmetric\n1 1\n1\n", 1),
        ("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1\n", 1),
        ("%%MatrixMarket matrix array real general\n1 1 1\n1\n", 2),
        ("%%MatrixMarket matrix coordinate real symmetric\n% c\n1 1\n", 3),
        ("%%MatrixMarket matrix array real general\n2 two\n1\n0\n0\n1\n", 2),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1\n2 1 half\n", 4),
        ("", 1),
        ("%%MatrixMarket matrix array real general\n% c\n\n", 3),
    ],
)
def test_malformed_files_report_line(tmp_path, content, line_no):
    p = tmp_path / "bad.mtx"
    p.write_text(content)
    with pytest.raises(MatrixMarketError) as exc:
        read_matrix_market(p)
    assert f":{line_no}:" in str(exc.value)


def test_asymmetric_array_rejected(tmp_path):
    p = tmp_path / "asym.mtx"
    p.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n0.5\n0\n1\n")
    with pytest.raises(MatrixMarketError, match="not exactly symmetric"):
        read_matrix_market(p)


def test_subnormal_array_round_trip_bit_identical(tmp_path):
    x = np.array([[-0.0, 5e-324], [5e-324, 0.1]])
    p = tmp_path / "x.mtx"
    write_matrix_market(p, x)
    assert read_matrix_market(p).tobytes() == x.tobytes()


def test_duplicate_coordinate_entry_rejected(tmp_path):
    p = tmp_path / "dup.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n3 1 0.5\n2 2 1\n3 1 0.5\n")
    with pytest.raises(MatrixMarketError, match=r":5: duplicate entry \(3, 1\)"):
        read_matrix_market(p)


def test_coordinate_matches_dense_array(tmp_path, rng):
    # explicit zeros are not stored; values are bit-identical to the file
    x = random_symmetric(rng, 12)
    x[np.abs(x) < 0.5] = 0.0
    lines = [f"{i + 1} {j + 1} {x[i, j]:.17g}" for j in range(12) for i in range(j, 12)]
    p = tmp_path / "x.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        f"12 12 {len(lines)}\n" + "\n".join(lines) + "\n"
    )
    m = read_matrix_market(p)
    assert np.array_equal(m.to_dense(), x)
    assert m.nnz == np.count_nonzero(x)
    assert m.tau == 0.0


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_non_ascii_byte_reports_line(tmp_path, newline):
    lines = ["%%MatrixMarket matrix array real general", "2 2", "1", "0", "0", "caf\xe9", "1"]
    p = tmp_path / "latin1.mtx"
    p.write_bytes(newline.join(lines).encode("latin-1"))
    with pytest.raises(MatrixMarketError, match=r":6: non-ASCII byte 0xe9"):
        read_matrix_market(p)


def reference_read(path):
    """Per-line reference reader: the file's lines in order, one float() or
    int() per field. Returns ("dense" | "sparse", dense array) or
    ("error", line number)."""
    with open(path, encoding="ascii") as fh:
        lines = fh.readlines()
    kind = lines[0].split()[2]
    body = [(no, ln.strip()) for no, ln in enumerate(lines[1:], start=2)]
    body = [(no, s) for no, s in body if s and not s.startswith("%")]
    if not body:
        return "error", len(lines)
    (size_no, size_line), entries = body[0], body[1:]
    try:
        sizes = [int(f) for f in size_line.split()]
    except ValueError:
        return "error", size_no
    if len(sizes) != {"array": 2, "coordinate": 3}[kind] or sizes[0] != sizes[1] or min(sizes) < 0:
        return "error", size_no
    n = sizes[0]
    if len(entries) != (n * n if kind == "array" else sizes[2]):
        return "error", size_no
    if kind == "array":
        vals = []
        for no, s in entries:
            try:
                vals.append(float(s))
            except ValueError:
                return "error", no
        for (no, _), v in zip(entries, vals):
            if not math.isfinite(v):
                return "error", no
        try:
            return "dense", symmetric_matrix(np.reshape(vals, (n, n), order="F"))
        except ValueError:
            return "error", size_no
    dense = np.zeros((n, n))
    keys = []
    for no, s in entries:
        fields = s.split()
        if len(fields) != 3:
            return "error", no
        try:
            i, j, v = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError:
            return "error", no
        if not math.isfinite(v) or not 1 <= j <= i <= n:
            return "error", no
        dense[i - 1, j - 1] = dense[j - 1, i - 1] = v
        keys.append((i, j))
    seen = set()
    for (no, _), key in zip(entries, keys):
        if key in seen:
            return "error", no
        seen.add(key)
    return "sparse", dense


FLOAT_TOKENS = ["1_0", "-0", "+.5", "1e400", "5e-324", "nan", "-inf", "0x10", "1.0 2.0", "1__0", "abc", "", "1\x00", "\x1c1"]
INT_TOKENS = ["1", "2", "3", "+2", "0", "-1", "5", "1_0", "0x1", "1.0", "99999999999999999999"]


@st.composite
def value_tokens(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(FLOAT_TOKENS))
    v = draw(st.floats(allow_nan=False, allow_infinity=False))
    return draw(st.sampled_from(["{:.17g}", "{!r}", "{:.3e}", " {} "])).format(v)


@st.composite
def matrix_market_files(draw):
    """Text of an array or coordinate file: mostly well formed, with junk
    tokens, comment, blank and whitespace-only lines mixed in."""
    n = draw(st.integers(0, 4))
    if draw(st.booleans()):
        banner, size = "%%MatrixMarket matrix array real general", f"{n} {n}"
        pair = {(i, j): draw(value_tokens()) for j in range(n) for i in range(j, n)}
        body = [pair[max(i, j), min(i, j)] for j in range(n) for i in range(n)]
    else:
        banner = "%%MatrixMarket matrix coordinate real symmetric"
        cells = [(i, j) for i in range(1, n + 1) for j in range(1, i + 1)]
        unique = draw(st.integers(0, 3)) > 0  # else duplicate entries are likely
        picked = draw(st.lists(st.sampled_from(cells), max_size=6, unique=unique)) if cells else []
        body = []
        for i, j in picked:
            i_tok, j_tok = str(i), str(j)
            if draw(st.integers(0, 7)) == 0:
                i_tok, j_tok = draw(st.sampled_from(INT_TOKENS)), draw(st.sampled_from(INT_TOKENS))
            body.append(draw(st.sampled_from(["{} {} {}", "  {}\t{}  {} ", "{} {}  {}"])).format(i_tok, j_tok, draw(value_tokens())))
        if draw(st.integers(0, 9)) == 0:
            body.append(draw(st.sampled_from(["1 1", "1 1 1 1", "2 1 1.0 2.0"])))
        size = f"{n} {n} {len(body) + draw(st.sampled_from([0, 0, 0, 0, 0, 1, -1]))}"
    lines = [size] + body
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["% comment", "", "   ", "\t", " %x 1"])))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join([banner] + lines)
    return text + newline if draw(st.booleans()) else text


@given(matrix_market_files())
@settings(max_examples=300, deadline=None)
def test_reader_matches_per_line_reference(text):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.mtx"
        path.write_bytes(text.encode("ascii"))
        kind, ref = reference_read(path)
        try:
            got = read_matrix_market(path)
        except MatrixMarketError as exc:
            assert (kind, ref) == ("error", exc.line_no)
            return
    assert kind != "error", f"accepted a file the reference rejects at line {ref}"
    if kind == "dense":
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert got.tobytes() == ref.tobytes()
    else:
        # sparse storage keeps no zeros, so -0.0 entries read back as +0.0
        assert isinstance(got, SparseMatrix)
        assert got.to_dense().tobytes() == (ref + 0.0).tobytes()
        assert got.nnz == np.count_nonzero(ref)


WRITER_VALUES = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1, -1.0 / 3.0, 12345.0]


def test_writer_round_trips_edge_values(tmp_path, rng):
    # signed zero, subnormal, smallest normal, near-overflow and inexact
    # decimals come back bit for bit from both formats
    x = rng.standard_normal((7, 7)) * 10.0 ** rng.integers(-300, 300, size=(7, 7))
    x.flat[: len(WRITER_VALUES)] = WRITER_VALUES
    p = tmp_path / "x.mtx"
    write_matrix_market(p, x)
    lines = p.read_text(encoding="ascii").splitlines()
    assert lines[0] == "%%MatrixMarket matrix array real general"
    size, *body = [s for s in lines[1:] if s.strip() and not s.startswith("%")]
    assert size.split() == ["7", "7"]
    values = np.array([float(v) for v in body])
    assert values.tobytes() == x.flatten(order="F").tobytes()

    sym = x + x.T
    lower = np.tril_indices(7, -1)
    sym[lower[0][: len(WRITER_VALUES)], lower[1][: len(WRITER_VALUES)]] = WRITER_VALUES
    sym = np.tril(sym) + np.tril(sym, -1).T
    sym[0, 0] = 5e-324
    sm = threshold(sp.csr_matrix(sym), 0.0)
    write_matrix_market(p, sm)
    back = read_matrix_market(p)
    assert isinstance(back, SparseMatrix)
    for part in ("indptr", "indices", "data"):
        assert getattr(back.csr, part).tobytes() == getattr(sm.csr, part).tobytes(), part


def test_writer_rejects_a_non_square_array(tmp_path):
    p = tmp_path / "x.mtx"
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        write_matrix_market(p, np.zeros((2, 3)))
    assert not p.exists()


@pytest.mark.parametrize("sparse", [False, True])
def test_writer_lands_at_the_given_path(tmp_path, sparse):
    # a name without ".mtx" is written as given, not with the suffix added
    m = chain_hamiltonian(9, 1.0)
    if sparse:
        m = sparsify(m, 0.0)
    p = tmp_path / "h0"
    write_matrix_market(p, m)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["h0"]
    back = read_matrix_market(p)
    if sparse:
        back, m = back.to_dense(), m.to_dense()
    assert back.tobytes() == m.tobytes()

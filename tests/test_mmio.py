import numpy as np
import pytest

from dmresponse.mmio import MatrixMarketError, read_matrix_market, write_matrix_market
from dmresponse.models import chain_hamiltonian
from dmresponse.sparse import SparseMatrix, sparsify

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
    with pytest.raises(MatrixMarketError, match="not symmetric"):
        read_matrix_market(p)


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

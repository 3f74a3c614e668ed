import numpy as np
import pytest

from exitflow import gibbs_policy, make_action_space
from exitflow.csvio import (format_value, read_matrix_csv, write_csv,
                            write_matrix_csv)


def test_format_full_precision():
    assert format_value(1.0 / 3.0) == "0.33333333333333331"
    assert float(format_value(0.1 + 0.2)) == 0.1 + 0.2
    assert format_value(7) == "7"
    assert format_value("tag") == "tag"


def test_write_csv_deterministic_bytes(tmp_path):
    rows = [(0.1, 1), (2.0 / 3.0, 2)]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_csv(str(a), ["x", "k"], rows)
    write_csv(str(b), ["x", "k"], rows)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == "x,k"


def test_feature_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    z = rng.standard_normal((6, 4))
    path = str(tmp_path / "z.csv")
    write_matrix_csv(path, z, row_labels=np.linspace(0, 1, 6),
                     col_labels=[-1.0, -0.5, 0.5, 1.0])
    back = read_matrix_csv(path)
    assert np.array_equal(back, z)


def test_policy_matrix_serialization(tmp_path):
    acts = make_action_space(values=[-1.0, 0.0, 1.0])
    pol = gibbs_policy(np.random.default_rng(1).standard_normal((4, 3)), acts)
    path = str(tmp_path / "policy.csv")
    write_matrix_csv(path, pol.weights, col_labels=acts.actions)
    back = read_matrix_csv(path)
    assert np.array_equal(back, pol.weights)



@pytest.mark.parametrize("row_labels", [None, [-0.0, 5e-324, 0.1, 1e308]])
def test_matrix_rows_match_the_per_cell_rule(tmp_path, row_labels):
    # each matrix row is one "%.17g" join; its bytes are those of
    # write_csv, which formats every cell through format_value
    z = np.array([[-0.0, 5e-324, 1e308, np.inf],
                  [-np.inf, 1.0 / 3.0, -2.5e-310, 7.0],
                  [0.1 + 0.2, -1e-300, 123456789.0, 0.0],
                  [1e16, 2.0 ** 53, -1.7976931348623157e308, 1e-5]])
    cols = [-1.0, -0.5, 0.5, 1.0]
    fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
    write_matrix_csv(str(fast), z, row_labels=row_labels, col_labels=cols)
    labels = np.arange(4) if row_labels is None else row_labels
    write_csv(str(ref), ["x"] + [format_value(c) for c in cols],
              [[lab, *row] for lab, row in zip(labels, z)])
    assert fast.read_bytes() == ref.read_bytes()

import numpy as np

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


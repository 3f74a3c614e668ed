"""CSV emission with reproducible bytes.

Floats are rendered with 17 significant digits so round-trips are exact
and reruns with the same seed produce identical files; writes go through
a temp file and an atomic rename so concurrent runs never interleave.
"""

import csv
import os
import tempfile

import numpy as np


def format_value(v):
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def write_csv(path, header, rows):
    """Write rows atomically; every cell goes through format_value."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([format_value(v) for v in row])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def write_matrix_csv(path, matrix, row_labels=None, col_labels=None):
    """Feature/policy matrices: one row per grid node, action columns."""
    matrix = np.asarray(matrix)
    if col_labels is None:
        col_labels = [f"a{k}" for k in range(matrix.shape[1])]
    header = ["x"] + [format_value(c) for c in col_labels]
    if row_labels is None:
        row_labels = np.arange(matrix.shape[0])
    rows = ([lab] + list(row) for lab, row in zip(row_labels, matrix))
    return write_csv(path, header, rows)


def read_matrix_csv(path):
    """Inverse of write_matrix_csv; drops the label column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)  # the header; an empty file gives no rows
        data = [[float(v) for v in row[1:]] for row in reader]
    return np.asarray(data, dtype=np.float64)


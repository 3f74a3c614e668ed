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


def _write_atomic(path, write):
    """Call ``write`` on a fresh temporary file beside ``path``, then rename
    it to ``path``; on any failure remove it and leave ``path`` as it was."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def write_csv(path, header, rows):
    """Write rows atomically; every cell goes through format_value."""
    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format_value(v) for v in row] for row in rows)
    return _write_atomic(path, write)


def write_matrix_csv(path, matrix, row_labels=None, col_labels=None):
    """Feature/policy matrices: one row per grid node, action columns.

    Labels and entries are numbers, formatted as float64 with one "%.17g"
    join per row: the text format_value gives a float, and an integer
    label up to 2**53 (the default row numbers) keeps its integer text.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if col_labels is None:
        col_labels = [f"a{k}" for k in range(matrix.shape[1])]
    header = ["x"] + [format_value(c) for c in col_labels]
    if row_labels is None:
        row_labels = np.arange(matrix.shape[0])
    labels = np.asarray(row_labels, dtype=np.float64).tolist()
    line = ",".join(["%.17g"] * (matrix.shape[1] + 1)) + "\n"

    def write(fh):
        csv.writer(fh, lineterminator="\n").writerow(header)
        for lab, row in zip(labels, matrix):
            fh.write(line % (lab, *row.tolist()))
    return _write_atomic(path, write)


def read_matrix_csv(path):
    """Inverse of write_matrix_csv; drops the label column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)  # the header; an empty file gives no rows
        data = [[float(v) for v in row[1:]] for row in reader]
    return np.asarray(data, dtype=np.float64)


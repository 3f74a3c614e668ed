"""CSV emission with reproducible bytes.

``write_csv`` is the one writer: it takes one 1-D column per header field
and renders a float column with "%.17g", so round-trips are exact and
reruns with the same seed produce identical files, and any other column
(integers, Python ints beyond int64, booleans) with "%d".  Writes go
through a temp file and an atomic rename so concurrent runs never
interleave.
"""

import csv
import os
import tempfile

import numpy as np


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


def write_csv(path, header, columns):
    """Write the header, then row i of the columns, atomically; return path.

    One line format is built per file.  A header whose length differs from
    the number of columns, a column that is not 1-D, or columns of
    different lengths raise ValueError before anything is written.
    """
    columns = [np.asarray(c) for c in columns]
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header fields but "
                         f"{len(columns)} columns")
    if any(c.ndim != 1 for c in columns):
        raise ValueError("every column must be 1-D")
    if len({c.size for c in columns}) > 1:
        raise ValueError(f"columns of lengths {[c.size for c in columns]}")
    line = ",".join("%.17g" if c.dtype.kind == "f" else "%d"
                    for c in columns) + "\n"
    cells = [c.tolist() for c in columns]

    def write(fh):
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in zip(*cells))
    return _write_atomic(path, write)


def read_matrix_csv(path):
    """Inverse of write_csv for a label column followed by the columns of
    a matrix, such as flow_z_final.csv; drops the label column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)  # the header; an empty file gives no rows
        data = [[float(v) for v in row[1:]] for row in reader]
    return np.asarray(data, dtype=np.float64)

"""File formats: CSV matrices (one sample per line, 17 significant digits)
and JSON metadata/metrics records."""

import itertools
import json

import numpy as np

from .numerics import as_matrix


def save_matrix(path, M, header=None):
    """Write a p x n matrix as n lines of p comma-separated values.

    Optional header entries become '#'-prefixed 'key: value' lines; the format
    round-trips doubles losslessly (17 significant digits).
    """
    M = as_matrix(M)
    line = ",".join(["%.17g"] * M.shape[0]) + "\n"
    with open(path, "w") as fh:
        if header:
            for key, value in header.items():
                fh.write(f"# {key}: {value}\n")
        for col in M.T:
            fh.write(line % tuple(col))


def load_matrix(path):
    """Read a matrix written by save_matrix, returning the p x n array.

    Blank lines and lines starting with '#' are skipped; rows of unequal
    length raise ValueError.
    """
    with open(path) as fh:
        rows = (ln for ln in map(str.strip, fh) if ln and not ln.startswith("#"))
        first = next(rows, None)
        if first is None:
            raise ValueError(f"{path} contains no data rows")
        return np.loadtxt(itertools.chain([first], rows), delimiter=",", ndmin=2).T


def save_json(path, record):
    """Write record as indented JSON with sorted keys, in one write (json.dump
    writes each token separately)."""
    text = json.dumps(record, indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)

"""Design matrices, categorical expansion and CSV ingestion.

A table is a plain dict of named columns: float arrays for numeric
columns and string arrays for categorical ones.  ``build_design``
assembles the n-by-k matrix in the order (intercept, nuisance, tested),
expanding categorical columns to treatment-coded dummies with the first
level (in order of appearance) as the reference.  Requested names may be
raw column names or individual dummy names such as ``"woolB"``.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DesignError, finite_array, integer, real_array

__all__ = ["DesignMatrix", "build_design", "read_csv"]


@dataclass(frozen=True)
class DesignMatrix:
    """Assembled design with the tested/nuisance split and null value.

    ``offset`` is the base (user) offset; the hypothesized tested effect
    ``X_tested @ null_value`` is added on top of it when fitting under
    the null (see ``fitting_offset``).
    """

    X: np.ndarray
    columns: tuple
    tested: tuple
    null_value: np.ndarray
    offset: np.ndarray = field(default=None)

    def __post_init__(self):
        X = np.ascontiguousarray(finite_array("design matrix", self.X, ndim=2))
        object.__setattr__(self, "X", X)
        tested = tuple(integer("tested index", j) for j in self.tested)
        if not tested:
            raise DesignError("at least one tested column is required")
        if len(set(tested)) != len(tested) or not all(
            0 <= j < X.shape[1] for j in tested
        ):
            raise DesignError("tested indices must be distinct columns of X")
        object.__setattr__(self, "tested", tested)
        nv = np.atleast_1d(finite_array("null_value", self.null_value))
        if nv.shape != (len(tested),):
            raise DesignError(f"null_value has shape {nv.shape}, expected ({len(tested)},)")
        object.__setattr__(self, "null_value", nv)
        off = self.offset
        off = np.zeros(X.shape[0]) if off is None else finite_array("offset", off)
        if off.shape != (X.shape[0],):
            raise DesignError("offset must be an n-vector")
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "columns", tuple(self.columns))

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def k(self):
        return self.X.shape[1]

    @property
    def d(self):
        return len(self.tested)

    @property
    def nuisance(self):
        return tuple(j for j in range(self.k) if j not in set(self.tested))

    @property
    def X_tested(self):
        return self.X[:, list(self.tested)]

    @property
    def X_nuisance(self):
        return self.X[:, list(self.nuisance)]

    @property
    def fitting_offset(self):
        """Offset absorbing the hypothesized tested effect, for null fits."""
        return self.offset + self.X_tested @ self.null_value


def _expand(table):
    """Map each usable name to (column vector, label).

    Numeric columns map to themselves; a categorical column maps to the
    list of its dummy labels, and each dummy label maps to its indicator
    vector (reference level excluded).
    """
    single = {}
    groups = {}
    for name, col in table.items():
        label = f"column {name!r}"
        try:
            values = np.asarray(col)
        except ValueError:  # ragged nesting
            raise DesignError(f"{label} must be a rectangular array") from None
        if values.ndim != 1:
            raise DesignError(f"{label} must be 1-dimensional, got shape {values.shape}")
        if values.dtype.kind in "USOb":  # categorical
            values = np.asarray([str(v) for v in values])
            levels = list(dict.fromkeys(values))  # in order of first appearance
            labels = []
            for lev in levels[1:]:
                label = f"{name}{lev}"
                single[label] = (values == lev).astype(float)
                labels.append(label)
            groups[name] = labels
        else:
            single[name] = real_array(label, values)
            groups[name] = [name]
    return single, groups


def _resolve(names, single, groups):
    labels = []
    for name in names:
        if name in groups:
            labels.extend(groups[name])
        elif name in single:
            labels.append(name)
        else:
            raise DesignError(f"unknown column {name!r}")
    return labels


def build_design(table, tested, nuisance=(), intercept=True, null_value=None,
                 offset=None):
    """Assemble a DesignMatrix from named columns.

    Parameters
    ----------
    table : dict
        Named columns; numeric arrays or categorical (string) arrays.
    tested, nuisance : sequence of str
        Raw column names (categoricals expand to all their dummies) or
        individual dummy names like ``"tensionM"``.
    intercept : bool
        Prepend a constant column to the nuisance block.
    null_value : array_like, optional
        Hypothesized value of the tested coefficients (default zeros).
    offset : array_like, optional
        Base offset (default zeros).

    Columns are ordered (intercept, nuisance, tested); the tested block
    is last and its indices are recorded in ``DesignMatrix.tested``.
    """
    if isinstance(tested, str):
        tested = [tested]
    if isinstance(nuisance, str):
        nuisance = [nuisance]
    single, groups = _expand(table)
    tested_labels = _resolve(tested, single, groups)
    nuis_labels = _resolve(nuisance, single, groups)
    overlap = set(tested_labels) & set(nuis_labels)
    if overlap:
        raise DesignError(f"columns {sorted(overlap)} are both tested and nuisance")
    if not tested_labels:
        raise DesignError("at least one tested column is required")

    lengths = {single[c].shape[0] for c in tested_labels + nuis_labels}
    if len(lengths) != 1:
        raise DesignError("columns have inconsistent lengths")
    n = lengths.pop()
    if n == 0:
        raise DesignError("columns have no rows")

    cols, names = [], []
    if intercept:
        cols.append(np.ones(n))
        names.append("(intercept)")
    for c in nuis_labels:
        cols.append(single[c])
        names.append(c)
    for c in tested_labels:
        col = single[c]
        if np.all(col == col[0]):
            raise DesignError(f"tested column {c!r} is constant")
        cols.append(col)
        names.append(c)
    X = np.column_stack(cols)
    k = X.shape[1]
    d = len(tested_labels)

    design = DesignMatrix(
        X=X,
        columns=tuple(names),
        tested=tuple(range(k - d, k)),
        null_value=np.zeros(d) if null_value is None else null_value,
        offset=offset,
    )
    Z = design.X_nuisance
    if Z.shape[1] and np.linalg.matrix_rank(Z) < Z.shape[1]:
        raise DesignError("nuisance block (including intercept) is rank deficient")
    return design


def read_csv(path):
    """Read a headered CSV into a table dict.

    UTF-8, comma separated, '.' decimal.  A column parses as numeric when
    every entry parses as a float; otherwise it is kept as a categorical
    string column.  An empty cell is an error, so a missing number never
    turns its column categorical.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, r) for r in reader]
    except (OSError, UnicodeDecodeError) as exc:
        raise DesignError(f"{path}: cannot read: {exc}") from None
    if not rows:
        raise DesignError(f"{path}: empty file")
    header = [h.strip() for h in rows[0][1]]
    body = [(line, r) for line, r in rows[1:] if r]
    if any(len(r) != len(header) for _, r in body):
        raise DesignError(f"{path}: ragged rows")
    for line, r in body:
        for name, cell in zip(header, r):
            if not cell.strip():
                raise DesignError(f"{path}: empty cell in column {name!r} on line {line}")
    table = {}
    for j, name in enumerate(header):
        raw = [r[j].strip() for _, r in body]
        try:
            table[name] = np.asarray([float(v) for v in raw])
        except ValueError:
            table[name] = np.asarray(raw)
    return table

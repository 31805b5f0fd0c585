"""File formats shared by bundles, predictions, and reports.

Matrices travel as MatrixMarket coordinate files (sparse-friendly,
language-neutral) or dense TSV for tiny fixtures; row/column identities as
one-id-per-line text files; structured outputs as canonical JSON (sorted
keys, compact separators) so identical values serialize to identical bytes.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np
from scipy import io as spio
from scipy import sparse

from .errors import LoadError, ValidationError
from .metrics import ExpressionMatrix, Matrix
from .protocol import cannot, json_line, parse_json, read_text, replacing


def write_json(path: str, doc: Any) -> None:
    """Write ``doc`` as its :func:`json_line` through :func:`replacing`."""
    with replacing(path) as fh:
        fh.write(json_line(doc))


def read_json(path: str) -> Any:
    return parse_json(read_text(path), path)


def read_id_list(path: str) -> List[str]:
    ids = [line for line in read_text(path).split("\n") if line]
    if not ids:
        raise LoadError(f"{path} lists no identifiers")
    return ids


def read_matrix(path: str) -> Matrix:
    """float64 values of a .mtx (MatrixMarket) or .tsv file: CSR for a
    coordinate .mtx, a dense array for an array .mtx or a .tsv. A file that
    cannot be opened is ``cannot read <path>``, one that does not parse
    ``cannot parse matrix <path>``."""
    try:
        open(path, "rb").close()  # each parser words a missing file its own way
        if path.endswith(".mtx"):
            mat = spio.mmread(path)
            if sparse.issparse(mat):
                return _canonical_csr(mat)
            return np.asarray(mat, dtype=np.float64)
        return np.loadtxt(path, dtype=np.float64, ndmin=2)
    except OSError as exc:
        raise cannot("read", path, exc) from exc
    except Exception as exc:
        raise LoadError(f"cannot parse matrix {path}: {exc}") from exc


def _canonical_csr(coo) -> sparse.csr_array:
    """float64 canonical CSR of ``mmread``'s COO, built without copying it
    when the rows come in order, as ``mmwrite`` writes a CSR: the CSR takes
    the COO's column and value arrays, and ``sum_duplicates`` sorts and sums
    each row as ``tocsr`` does. Other files, such as a symmetric one (whose
    mirrored entries come last), go through ``tocsr``."""
    row, col = coo.row, coo.col
    if np.any(row[1:] < row[:-1]):
        return sparse.csr_array(coo, dtype=np.float64)
    # indptr in col's dtype: a wider one makes scipy copy col to match it.
    # searchsorted likewise casts row to its keys' dtype.
    index = col.dtype if coo.nnz <= np.iinfo(col.dtype).max else np.int64
    indptr = np.searchsorted(row, np.arange(coo.shape[0] + 1, dtype=row.dtype))
    csr = sparse.csr_array((coo.data, col, indptr.astype(index)), shape=coo.shape)
    csr.sum_duplicates()
    return csr.astype(np.float64, copy=False)


def find_matrix_file(directory: str, stem: str) -> str:
    for ext in (".mtx", ".tsv"):
        candidate = os.path.join(directory, stem + ext)
        if os.path.exists(candidate):
            return candidate
    raise LoadError(f"no {stem}.mtx or {stem}.tsv under {directory}")


def read_table(path: str) -> Tuple[List[str], List[Dict[str, str]]]:
    """Header-row TSV into (column names, list of row dicts)."""
    lines = [line for line in read_text(path).split("\n") if line]
    if not lines:
        raise LoadError(f"table {path} is empty")
    header = lines[0].split("\t")
    repeated = [name for name, count in Counter(header).items() if count > 1]
    if repeated:
        raise LoadError(f"{path}:1: repeated column name {', '.join(map(repr, repeated))}")
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) != len(header):
            raise LoadError(f"{path}:{n}: expected {len(header)} columns, got {len(cells)}")
        rows.append(dict(zip(header, cells)))
    return header, rows


PREDICTIONS_STEM = "predictions"
PREDICTIONS_ROWS = "predictions_rows.tsv"
PREDICTIONS_COLS = "predictions_cols.tsv"


def read_predictions(path: str) -> ExpressionMatrix:
    """Load a prediction artifact: matrix plus row/column order files.

    ``path`` may be the directory holding ``predictions.mtx`` (or ``.tsv``)
    or the matrix file itself; the id files must sit beside the matrix.
    """
    if os.path.isdir(path):
        directory = path
        matrix_path = find_matrix_file(directory, PREDICTIONS_STEM)
    else:
        directory = os.path.dirname(path) or "."
        matrix_path = path
    values = read_matrix(matrix_path)
    row_ids = read_id_list(os.path.join(directory, PREDICTIONS_ROWS))
    col_ids = read_id_list(os.path.join(directory, PREDICTIONS_COLS))
    if len(row_ids) != values.shape[0]:
        raise ValidationError(
            f"prediction rows file lists {len(row_ids)} ids for {values.shape[0]} rows"
        )
    if len(col_ids) != values.shape[1]:
        raise ValidationError(
            f"prediction columns file lists {len(col_ids)} ids for {values.shape[1]} columns"
        )
    return ExpressionMatrix(values, row_ids=tuple(row_ids), column_ids=tuple(col_ids))


def _positions(ids: Sequence[str], source: str) -> Dict[str, int]:
    """Each id's index; a repeated id is a ValidationError naming it."""
    pos: Dict[str, int] = {}
    for i, x in enumerate(ids):
        if pos.setdefault(x, i) != i:
            raise ValidationError(f"{source} repeats id {x!r}")
    return pos


def align_predictions(pred: ExpressionMatrix, truth: ExpressionMatrix) -> ExpressionMatrix:
    """Reorder a prediction matrix onto the truth's row/column order.

    This consumes ``pred``: a CSR whose columns are a permutation of the
    truth's is reordered in place, so pass a matrix nothing else uses, such
    as a fresh :func:`read_predictions`. Rows out of order, or columns the
    truth lacks, are gathered into a new matrix instead.
    """
    if not truth.row_ids or not truth.column_ids:
        raise ValidationError("truth matrix needs row and column ids for alignment")
    row_pos = _positions(pred.row_ids, PREDICTIONS_ROWS)
    col_pos = _positions(pred.column_ids, PREDICTIONS_COLS)
    missing_rows = [r for r in truth.row_ids if r not in row_pos]
    if missing_rows:
        raise ValidationError(f"predictions missing rows: {missing_rows[:5]}")
    missing_cols = [c for c in truth.column_ids if c not in col_pos]
    if missing_cols:
        raise ValidationError(f"predictions missing columns: {missing_cols[:5]}")
    ridx = [row_pos[r] for r in truth.row_ids]
    cidx = [col_pos[c] for c in truth.column_ids]
    values = pred.values
    if not sparse.issparse(values):
        values = values[np.ix_(ridx, cidx)]
    else:  # a CSR gather copies every stored entry: skip an axis in order
        if ridx != list(range(values.shape[0])):
            values = values[ridx]
        if len(cidx) < values.shape[1]:  # drop the columns the truth lacks
            values = values[:, cidx]
            values.sort_indices()  # fresh, distinct columns: now canonical
        elif cidx != list(range(values.shape[1])):  # a permutation: relabel
            new_index = np.empty(len(cidx), dtype=values.indices.dtype)
            new_index[cidx] = np.arange(len(cidx))
            values.indices = new_index[values.indices]
            values.has_sorted_indices = False
            values.sort_indices()
    return ExpressionMatrix(values, row_ids=truth.row_ids, column_ids=truth.column_ids)

"""Numeric kernels for the evaluation suite.

Expression-space accuracy (MSE, PCC, R2, and their DE-gene-restricted
variants), latent-space probes (kNN label accuracy, structural
integrity), and classification scalars (ROC-AUC, PR-AUC, DEG recall,
masked RMSE).

Conventions
-----------
- Matrices are rows = cells/samples, columns = genes/features.
- PCC and R2 center by the mean row vector (per-column means), so a
  predictor that just repeats the column means scores R2 = 0.
- A metric whose value does not exist for the given inputs is reported as
  ``None`` (an explicit "undefined" marker), never silently as 0.
- Every function is a pure, deterministic transformation of its inputs;
  reductions run in index-ascending order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from .errors import ValidationError

DEFAULT_DE_K = 20
DEFAULT_DE_PSEUDO = 1e-6

# Roughly the most matrix entries a kernel densifies at once. At least
# 128: numpy's pairwise summation splits only longer runs.
_LEAF = 1 << 16

# The ids metric_report writes, and so the only ones a threshold may name.
METRIC_IDS = ("mse", "pcc", "r2", "mse_de", "pcc_de", "r2_de")


Matrix = Union[np.ndarray, sparse.csr_array]


def _as_matrix(values) -> Matrix:
    """A float64 array, or canonical CSR (sorted indices, no duplicates) for
    a ``scipy.sparse`` input; a non-canonical input is copied, not changed."""
    if not sparse.issparse(values):
        return np.asarray(values, dtype=np.float64)
    values = sparse.csr_array(values, dtype=np.float64)
    if not values.has_canonical_format:
        values = values.copy()
        values.sum_duplicates()
    return values


def _dense(values: Matrix) -> np.ndarray:
    return values.toarray() if sparse.issparse(values) else values


@dataclass
class ExpressionMatrix:
    """n x d expression values with row and column identifiers: a float64
    array, or canonical CSR for sparse input that no metric densifies whole."""

    values: Matrix
    row_ids: Tuple[str, ...] = ()
    column_ids: Tuple[str, ...] = ()

    def __post_init__(self):
        self.values = _as_matrix(self.values)
        if self.values.ndim != 2:
            raise ValidationError("expression matrix must be 2-dimensional")
        self.row_ids = tuple(self.row_ids)
        self.column_ids = tuple(self.column_ids)
        if self.row_ids and len(self.row_ids) != self.values.shape[0]:
            raise ValidationError("row_ids length does not match matrix rows")
        if self.column_ids and len(self.column_ids) != self.values.shape[1]:
            raise ValidationError("column_ids length does not match matrix columns")
        stored = self.values.data if sparse.issparse(self.values) else self.values
        if not np.all(np.isfinite(stored)):
            raise ValidationError("expression matrix entries must be finite")

    @property
    def shape(self) -> Tuple[int, int]:
        return self.values.shape


@dataclass
class EmbeddingSet:
    """n x h latent vectors with one perturbation label per row."""

    vectors: np.ndarray
    labels: Tuple[str, ...]

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ValidationError("embedding set must be 2-dimensional")
        if not np.all(np.isfinite(self.vectors)):
            raise ValidationError("embedding entries must be finite")
        self.labels = tuple(str(x) for x in self.labels)
        if len(self.labels) != self.vectors.shape[0]:
            raise ValidationError("labels length does not match embedding rows")
        if any(not x for x in self.labels):
            raise ValidationError("labels must be non-empty strings")


class MetricReport:
    """Closed-registry map of metric id to value (or None = undefined)."""

    def __init__(self, values: Optional[Dict[str, Optional[float]]] = None):
        self._values: Dict[str, Optional[float]] = {}
        for key, val in (values or {}).items():
            self.set(key, val)

    def set(self, metric_id: str, value: Optional[float]) -> None:
        if metric_id not in METRIC_IDS:
            raise ValidationError(f"unknown metric id: {metric_id!r}")
        if value is not None:
            value = float(value)
            if not math.isfinite(value):
                raise ValidationError(f"metric {metric_id} must be finite or None")
        self._values[metric_id] = value

    def get(self, metric_id: str) -> Optional[float]:
        return self._values[metric_id]

    def __contains__(self, metric_id: str) -> bool:
        return metric_id in self._values

    def to_json(self) -> Dict[str, Optional[float]]:
        return {k: self._values[k] for k in METRIC_IDS if k in self._values}


MatrixLike = Union[ExpressionMatrix, Matrix, Sequence[Sequence[float]]]


def _values_of(m: MatrixLike) -> Matrix:
    if isinstance(m, ExpressionMatrix):
        return m.values
    arr = _as_matrix(m)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValidationError("matrix input must be 2-dimensional")
    return arr


def _check_pair(truth: MatrixLike, pred: MatrixLike) -> Tuple[Matrix, Matrix]:
    y = _values_of(truth)
    yhat = _values_of(pred)
    if y.shape != yhat.shape:
        raise ValidationError(f"shape mismatch: {y.shape} vs {yhat.shape}")
    if (
        isinstance(truth, ExpressionMatrix)
        and isinstance(pred, ExpressionMatrix)
        and truth.column_ids
        and pred.column_ids
        and truth.column_ids != pred.column_ids
    ):
        raise ValidationError("column ids differ between compared matrices")
    return y, yhat


# ----------------------------------------------------------------------
# Expression-space accuracy
# ----------------------------------------------------------------------

def pointwise_metrics(
    truth: MatrixLike, pred: MatrixLike
) -> Tuple[float, Optional[float], Optional[float]]:
    """(MSE, PCC, R2) over all entries.

    PCC correlates the two matrices after removing each one's mean row;
    R2 is 1 - SSE/SST with SST measured about the truth's mean row.
    Zero variance makes pcc (and, for truth, r2) undefined: a row-constant
    matrix, whose rows all equal its first, has none, though its rounded
    column means can leave a few ulps of it.
    """
    y, yhat = _check_pair(truth, pred)
    n, d = y.shape
    if n * d == 0:
        raise ValidationError("cannot score an empty matrix")
    ym = np.broadcast_to(_column_means(y), y.shape)
    pm = np.broadcast_to(_column_means(yhat), y.shape)
    # Each sum equals ``np.sum`` of its plain whole-array product, which
    # reduces in the product's memory order: Fortran when every operand is
    # Fortran-ordered, C otherwise (CSR counts as C). A Fortran walk runs
    # over the transposes, whose C order is the original's Fortran order.
    fy, fp = _fortran(y), _fortran(yhat)
    pair = (y.T, ym.T, yhat.T, pm.T) if fy and fp else (y, ym, yhat, pm)
    sums = _walk(pair)
    if fy != fp:  # the Fortran-ordered operand's own sum walks in its order
        i, a, am = (1, y, ym) if fy else (2, yhat, pm)
        sums[i] = _walk((a.T, am.T) * 2)[i]
    sse, sst, spp, cross = (float(v) for v in sums)
    mse = sse / (n * d)
    if sst == 0.0 or _row_constant(y):
        return mse, None, None
    denom = math.sqrt(sst * spp)
    if denom == 0.0 or math.isinf(denom):  # the product under- or overflowed
        denom = math.sqrt(sst) * math.sqrt(spp)
    pcc = cross / denom if spp > 0.0 and not _row_constant(yhat) else None
    return mse, pcc, 1.0 - sse / sst


def _row_constant(values: Matrix) -> bool:
    """Whether every row of ``values`` equals its first, exactly. An array
    compares its column minima and maxima; a CSR, with any stored zeros
    dropped, compares its rows' entry counts first, which settles real data
    at once."""
    if not sparse.issparse(values):
        return bool((values.min(axis=0) == values.max(axis=0)).all())
    if not values.data.all():
        values = values.copy()
        values.eliminate_zeros()
    counts = np.diff(values.indptr)
    if (counts != counts[0]).any():
        return False
    n, k = values.shape[0], counts[0]
    return all((a.reshape(n, k) == a[:k]).all() for a in (values.indices, values.data))


def _fortran(a: Matrix) -> bool:
    """Whether numpy lays out an elementwise result of ``a`` column-major.
    The probe array is never written, so it costs no memory."""
    return isinstance(a, np.ndarray) and not np.empty_like(a).flags.c_contiguous


def _column_means(values: Matrix) -> np.ndarray:
    """Per-column means. A CSR column sum adds each column's stored entries
    in row order, as numpy sums a column of a C-ordered matrix; ``csr.mean``
    differs. A lone column is contiguous and numpy sums it pairwise, so a
    one-column CSR is densified (n values) and summed as numpy does."""
    if sparse.issparse(values) and values.shape[1] > 1:
        return values.sum(axis=0) / values.shape[0]
    return _dense(values).mean(axis=0)


def _pairwise_sum(leaf_sums, size: int, lo: int = 0) -> np.ndarray:
    """``leaf_sums`` over flat entries ``[lo, lo + size)``, split as numpy's
    pairwise summation splits a contiguous array: each leaf is a subtree of
    numpy's recursion, so each total equals ``np.sum`` of the whole array."""
    if size <= _LEAF:
        return leaf_sums(lo, lo + size)
    half = size // 2
    half -= half % 8
    return _pairwise_sum(leaf_sums, half, lo) + _pairwise_sum(leaf_sums, size - half, lo + half)


def _walk(operands: tuple) -> np.ndarray:
    """The four ``_leaf_sums`` totals over all of ``operands``, in three
    scratch blocks of the most rows one leaf covers, allocated once."""
    n, d = operands[0].shape
    buffers = np.empty((3, min(n, -(-_LEAF // d) + 1), d))
    return _pairwise_sum(functools.partial(_leaf_sums, operands, buffers), n * d)


def _leaf_sums(operands: tuple, buffers: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Sums of (a - b)**2, ac * ac, bc * bc and ac * bc over the C-order flat
    entries ``[lo, hi)``, with ``operands = (a, am, b, bm)`` and ac = a - am,
    bc = b - bm. The rows those entries cover are worked in ``buffers``: each
    value, and each contiguous run summed, is the one whole-array temporaries
    would hold, so every sum is bit-equal to theirs."""
    a, am, b, bm = operands
    d = a.shape[1]
    first, last = lo // d, -(-hi // d)
    span = slice(lo - first * d, hi - first * d)
    ac, bc, diff = buffers[:, :last - first]
    a_rows, b_rows = _rows(a, first, ac), _rows(b, first, bc)
    np.subtract(a_rows, b_rows, out=diff)
    np.subtract(a_rows, am[first:last], out=ac)
    np.subtract(b_rows, bm[first:last], out=bc)
    ac, bc, diff = (x.ravel()[span] for x in (ac, bc, diff))
    sse = np.multiply(diff, diff, out=diff).sum()
    cross = np.multiply(ac, bc, out=diff).sum()
    return np.array([sse, np.multiply(ac, ac, out=ac).sum(), np.multiply(bc, bc, out=bc).sum(), cross])


def _rows(m: Matrix, first: int, out: np.ndarray) -> np.ndarray:
    """As many rows of ``m`` from ``first`` on as ``out`` holds: a view of an
    array, or a canonical CSR's stored entries scattered into ``out`` over
    zeros."""
    last = first + len(out)
    if not sparse.issparse(m):
        return m[first:last]
    ptr = m.indptr[first:last + 1]
    starts = np.repeat(np.arange(0, out.size, m.shape[1]), np.diff(ptr))
    out.fill(0.0)
    out.ravel()[starts + m.indices[ptr[0]:ptr[-1]]] = m.data[ptr[0]:ptr[-1]]
    return out


def log_fold_change(
    pert_mean: np.ndarray, ctrl_mean: np.ndarray, pseudo: float = DEFAULT_DE_PSEUDO
) -> np.ndarray:
    """Per-gene log2((pert + pseudo) / (ctrl + pseudo)) of mean profiles."""
    p = np.asarray(pert_mean, dtype=np.float64)
    c = np.asarray(ctrl_mean, dtype=np.float64)
    if p.shape != c.shape:
        raise ValidationError("mean profiles must have equal shape")
    if pseudo < 0:
        raise ValidationError("pseudocount must be non-negative")
    num = p + pseudo
    den = c + pseudo
    if np.any(num <= 0) or np.any(den <= 0):
        raise ValidationError("log fold change requires positive shifted means")
    return np.log2(num / den)


def _masked_column_means(values: Matrix, mask: np.ndarray) -> np.ndarray:
    """Column means over the rows ``mask`` marks, bit-equal to
    ``_column_means(values[mask])``. A CSR's rows are not copied: ``w @ csr``
    with 0/1 weights adds each column's entries in row order, as the CSR
    column sum does, and the unmarked rows add exact zeros. A one-column
    CSR, whose mean is taken pairwise, copies its marked rows."""
    if not sparse.issparse(values) or values.shape[1] == 1:
        return _column_means(values[mask])
    return (mask.astype(np.float64) @ values) / np.count_nonzero(mask)


def select_de_genes(
    pert: MatrixLike,
    ctrl: Optional[MatrixLike] = None,
    k: int = DEFAULT_DE_K,
    pseudo: float = DEFAULT_DE_PSEUDO,
    *,
    control: Optional[np.ndarray] = None,
) -> List[int]:
    """Top-k genes by |log fold change| of mean expression, ties by index.

    The groups are the rows of ``pert`` and of ``ctrl``; or, given
    ``control``, a boolean mask over the rows of ``pert``, the unmarked and
    the marked rows of ``pert``, whose means copy no rows of a CSR.
    """
    p = _values_of(pert)
    if control is None:
        c = _values_of(ctrl)
        if p.shape[1] != c.shape[1]:
            raise ValidationError("perturbed and control matrices must share columns")
        if (
            isinstance(pert, ExpressionMatrix)
            and isinstance(ctrl, ExpressionMatrix)
            and pert.column_ids
            and ctrl.column_ids
            and pert.column_ids != ctrl.column_ids
        ):
            raise ValidationError("column ids differ between perturbed and control")
        means = _column_means(p), _column_means(c)
    else:
        control = np.asarray(control, dtype=bool)
        if control.shape != (p.shape[0],) or control.all() or not control.any():
            raise ValidationError("control mask must mark some but not all rows")
        means = _masked_column_means(p, ~control), _masked_column_means(p, control)
    d = p.shape[1]
    if not (0 < k <= d):
        raise ValidationError(f"k must be in [1, {d}], got {k}")
    lfc = log_fold_change(*means, pseudo)
    magnitude = np.abs(lfc)
    # Sort by descending |LFC|; numpy's stable sort keeps ascending index
    # order inside tied blocks.
    order = np.argsort(-magnitude, kind="stable")
    return [int(g) for g in order[:k]]


def restrict(m: MatrixLike, genes: Sequence[int]) -> ExpressionMatrix:
    """Column slice in the order listed, carrying ids along when present."""
    genes = list(genes)
    if not genes:
        raise ValidationError("gene selection must be non-empty")
    values = _values_of(m)
    d = values.shape[1]
    for g in genes:
        if not (0 <= int(g) < d):
            raise ValidationError(f"gene index {g} out of range [0, {d})")
    idx = [int(g) for g in genes]
    col_ids: Tuple[str, ...] = ()
    row_ids: Tuple[str, ...] = ()
    if isinstance(m, ExpressionMatrix):
        row_ids = m.row_ids
        if m.column_ids:
            col_ids = tuple(m.column_ids[g] for g in idx)
    # Fortran order, as numpy's dense column gather gives: sums follow layout.
    block = values[:, idx]
    if sparse.issparse(block):
        block = block.toarray(order="F")
    return ExpressionMatrix(block, row_ids=row_ids, column_ids=col_ids)


def metric_report(
    truth: MatrixLike, pred: MatrixLike, de_genes: Optional[Sequence[int]] = None
) -> MetricReport:
    """Pointwise metrics plus their DE-restricted variants in one report."""
    report = MetricReport()
    mse, pcc, r2 = pointwise_metrics(truth, pred)
    report.set("mse", mse)
    report.set("pcc", pcc)
    report.set("r2", r2)
    if de_genes is not None:
        mse_de, pcc_de, r2_de = pointwise_metrics(
            restrict(truth, de_genes), restrict(pred, de_genes)
        )
        report.set("mse_de", mse_de)
        report.set("pcc_de", pcc_de)
        report.set("r2_de", r2_de)
    return report


# ----------------------------------------------------------------------
# Latent-space probes
# ----------------------------------------------------------------------

def knn_accuracy(
    query: EmbeddingSet, reference: EmbeddingSet, k: Optional[int] = None
) -> Tuple[float, float]:
    """Top-1/Top-5 label accuracy by k-nearest-neighbor vote.

    k defaults to floor(sqrt(n_reference)), floored at 1. Neighbors are
    nearest by Euclidean distance (ties by reference index); the vote is
    won by the most frequent neighbor label, ties by smaller summed
    distance then lexicographic label order. Top-5 asks whether the true
    label is among the 5 highest-ranked neighbor labels.
    """
    if reference.vectors.shape[0] == 0:
        raise ValidationError("reference set must be non-empty")
    if query.vectors.shape[1] != reference.vectors.shape[1]:
        raise ValidationError("query/reference dimension mismatch")
    n_r = reference.vectors.shape[0]
    if k is None:
        k = max(1, int(math.isqrt(n_r)))
    if not (1 <= k <= n_r):
        raise ValidationError(f"k must be in [1, {n_r}]")

    dist = _distances(query.vectors, reference.vectors)

    hits1 = 0
    hits5 = 0
    for i in range(query.vectors.shape[0]):
        order = np.lexsort((np.arange(n_r), dist[i]))[:k]
        tally: Dict[str, Tuple[int, float]] = {}
        for j in order:
            lab = reference.labels[j]
            cnt, total = tally.get(lab, (0, 0.0))
            tally[lab] = (cnt + 1, total + float(dist[i][j]))
        ranked = sorted(
            tally.items(), key=lambda kv: (-kv[1][0], kv[1][1], kv[0])
        )
        if ranked[0][0] == query.labels[i]:
            hits1 += 1
        if query.labels[i] in [lab for lab, _ in ranked[:5]]:
            hits5 += 1
    n_q = query.vectors.shape[0]
    return hits1 / n_q, hits5 / n_q


def _distances(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """n_q x n_r Euclidean distances, a block of query rows at a time. Each
    pair sums its own h squared differences, so every value equals the one
    the whole n_q x n_r x h difference tensor gives."""
    dist = np.empty((q.shape[0], r.shape[0]))
    step = max(1, _LEAF // max(1, r.size))
    for start in range(0, q.shape[0], step):
        diff = q[start:start + step, None, :] - r[None, :, :]
        dist[start:start + step] = np.sqrt(np.sum(diff * diff, axis=2))
    return dist


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a vector; each block of ties gets its mean rank.

    Equals ``scipy.stats.rankdata(x, method="average")``: any NaN makes
    every rank NaN.
    """
    ranks = np.empty(x.size, dtype=np.float64)
    if np.isnan(x).any():
        ranks.fill(np.nan)
        return ranks
    order = np.argsort(x, kind="mergesort")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    counts = np.diff(np.r_[starts, x.size])
    ranks[order] = np.repeat(starts + (counts + 1) / 2.0, counts)
    return ranks


def structural_integrity(
    pred: MatrixLike,
    act: MatrixLike,
    batch_ids: Sequence[str],
    control_mask: Sequence[bool],
) -> Optional[float]:
    """SI = 1 - D/D_max over batch-wise control-centered activity.

    Within each batch, both matrices are centered by their own control
    mean row; D averages per-batch normalized Frobenius gaps between the
    centered matrices, and D_max is twice the same functional applied to
    the actual activity alone. Returns None when D_max is zero.
    """
    p, a = (_dense(v) for v in _check_pair(pred, act))
    batch_ids = [str(x) for x in batch_ids]
    control_mask = np.asarray(list(control_mask), dtype=bool)
    if len(batch_ids) != a.shape[0] or control_mask.shape[0] != a.shape[0]:
        raise ValidationError("batch ids and control mask must match row count")

    batches = sorted(set(batch_ids))
    ids = np.asarray(batch_ids)
    d_sum = 0.0
    dmax_sum = 0.0
    for b in batches:
        rows = np.nonzero(ids == b)[0]
        ctrl = rows[control_mask[rows]]
        if ctrl.size == 0:
            raise ValidationError(f"batch {b!r} has no control rows")
        a_tilde = a[rows] - a[ctrl].mean(axis=0, keepdims=True)
        p_tilde = p[rows] - p[ctrl].mean(axis=0, keepdims=True)
        n_b = rows.size
        d_sum += np.linalg.norm(p_tilde - a_tilde) / n_b
        dmax_sum += np.linalg.norm(a_tilde) / n_b
    n_batches = len(batches)
    d = d_sum / n_batches
    d_max = 2.0 * dmax_sum / n_batches
    if d_max == 0.0:
        return None
    return 1.0 - d / d_max


# ----------------------------------------------------------------------
# Classification scalars
# ----------------------------------------------------------------------

def _check_binary(labels: Sequence[int], scores: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    y = np.asarray(list(labels))
    s = np.asarray(list(scores), dtype=np.float64)
    if y.shape != s.shape or y.ndim != 1:
        raise ValidationError("labels and scores must be equal-length vectors")
    if y.size == 0:
        raise ValidationError("labels must be non-empty")
    if not np.all(np.isin(y, (0, 1))):
        raise ValidationError("labels must be binary 0/1")
    if not np.all(np.isfinite(s)):
        raise ValidationError("scores must be finite")
    return y.astype(int), s


def roc_auc(labels: Sequence[int], scores: Sequence[float]) -> Optional[float]:
    """Exact pairwise AUC: (concordant + 0.5 * tied) / (pos * neg)."""
    y, s = _check_binary(labels, scores)
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        return None
    # Rank-sum form of the pairwise count; average ranks handle ties exactly.
    ranks = _average_ranks(s)
    pos_rank_sum = float(ranks[y == 1].sum())
    u = pos_rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def pr_auc(labels: Sequence[int], scores: Sequence[float]) -> Optional[float]:
    """Area under the precision-recall step curve, descending thresholds.

    Tied scores are consumed as one block; the area accumulates
    (recall_i - recall_{i-1}) * precision_i in exact rational arithmetic.
    """
    y, s = _check_binary(labels, scores)
    n_pos = int(y.sum())
    if n_pos == 0:
        return None
    order = np.lexsort((np.arange(y.size), -s))
    area = Fraction(0)
    tp = 0
    fp = 0
    prev_recall = Fraction(0)
    i = 0
    n = y.size
    while i < n:
        j = i
        while j < n and s[order[j]] == s[order[i]]:
            j += 1
        for idx in order[i:j]:
            if y[idx] == 1:
                tp += 1
            else:
                fp += 1
        recall = Fraction(tp, n_pos)
        precision = Fraction(tp, tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
        i = j
    return float(area)


def deg_recall(true_de: Iterable[int], predicted_de: Iterable[int]) -> float:
    """|true ∩ predicted| / |true|."""
    true_set = set(int(g) for g in true_de)
    pred_set = set(int(g) for g in predicted_de)
    if not true_set:
        raise ValidationError("true DE set must be non-empty")
    return len(true_set & pred_set) / len(true_set)


def rmse(truth: Sequence[float], pred: Sequence[float]) -> Optional[float]:
    """Root mean squared error with NaN predictions masked out."""
    y = np.asarray(list(truth), dtype=np.float64)
    p = np.asarray(list(pred), dtype=np.float64)
    if y.shape != p.shape or y.ndim != 1:
        raise ValidationError("rmse inputs must be equal-length vectors")
    if np.any(np.isnan(y)):
        raise ValidationError("truth values must not be missing")
    keep = ~np.isnan(p)
    if not np.any(keep):
        return None
    diff = y[keep] - p[keep]
    return float(np.sqrt(np.mean(diff * diff)))

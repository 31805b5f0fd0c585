"""Metric kernels against independent brute-force oracles and worked cases."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.stats import rankdata

from forge import metrics
from forge.errors import ValidationError
from forge.metrics import (
    METRIC_IDS,
    _average_ranks,
    _column_means,
    _masked_column_means,
    _distances,
    EmbeddingSet,
    ExpressionMatrix,
    MetricReport,
    deg_recall,
    knn_accuracy,
    log_fold_change,
    metric_report,
    pointwise_metrics,
    pr_auc,
    restrict,
    rmse,
    roc_auc,
    select_de_genes,
    structural_integrity,
)

# ---------------------------------------------------------------------------
# brute-force oracles (loops and library routines, no shared code paths)


def oracle_pointwise(y, yhat):
    n, d = y.shape
    mse = sum(
        (y[i][j] - yhat[i][j]) ** 2 for i in range(n) for j in range(d)
    ) / (n * d)
    col_my = [sum(y[i][j] for i in range(n)) / n for j in range(d)]
    col_mp = [sum(yhat[i][j] for i in range(n)) / n for j in range(d)]
    yc = np.array([[y[i][j] - col_my[j] for j in range(d)] for i in range(n)])
    pc = np.array([[yhat[i][j] - col_mp[j] for j in range(d)] for i in range(n)])
    sst = float(np.sum(yc * yc))
    spp = float(np.sum(pc * pc))
    if sst == 0.0:
        return mse, None, None
    pcc = None
    if spp > 0.0:
        pcc = float(np.corrcoef(yc.ravel(), pc.ravel())[0, 1])
    sse = sum((y[i][j] - yhat[i][j]) ** 2 for i in range(n) for j in range(d))
    return mse, pcc, 1.0 - sse / sst


def oracle_roc_auc(labels, scores):
    pos = [s for y, s in zip(labels, scores) if y == 1]
    neg = [s for y, s in zip(labels, scores) if y == 0]
    if not pos or not neg:
        return None
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def oracle_pr_auc(labels, scores):
    n_pos = sum(labels)
    if n_pos == 0:
        return None
    area = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for y, s in zip(labels, scores) if s >= t and y == 1)
        fp = sum(1 for y, s in zip(labels, scores) if s >= t and y == 0)
        recall = tp / n_pos
        area += (recall - prev_recall) * (tp / (tp + fp))
        prev_recall = recall
    return area


def oracle_rmse(truth, pred):
    pairs = [(t, p) for t, p in zip(truth, pred) if not math.isnan(p)]
    if not pairs:
        return None
    return math.sqrt(sum((t - p) ** 2 for t, p in pairs) / len(pairs))


def oracle_select_de(pert, ctrl, k, pseudo=1e-6):
    n_p, d = pert.shape
    n_c = ctrl.shape[0]
    mags = []
    for j in range(d):
        pm = sum(pert[i][j] for i in range(n_p)) / n_p
        cm = sum(ctrl[i][j] for i in range(n_c)) / n_c
        mags.append(abs(math.log2((pm + pseudo) / (cm + pseudo))))
    return sorted(range(d), key=lambda g: (-mags[g], g))[:k]


def oracle_knn(query, q_labels, ref, r_labels, k):
    n_q, n_r = query.shape[0], ref.shape[0]
    hits1 = hits5 = 0
    for i in range(n_q):
        dists = [float(np.sqrt(np.sum((query[i] - ref[j]) ** 2))) for j in range(n_r)]
        order = sorted(range(n_r), key=lambda j: (dists[j], j))[:k]
        tally = {}
        for j in order:
            cnt, tot = tally.get(r_labels[j], (0, 0.0))
            tally[r_labels[j]] = (cnt + 1, tot + dists[j])
        ranked = sorted(tally.items(), key=lambda kv: (-kv[1][0], kv[1][1], kv[0]))
        if ranked[0][0] == q_labels[i]:
            hits1 += 1
        if q_labels[i] in [lab for lab, _ in ranked[:5]]:
            hits5 += 1
    return hits1 / n_q, hits5 / n_q


def oracle_structural_integrity(pred, act, batch_ids, control_mask):
    batches = sorted(set(batch_ids))
    d_sum = 0.0
    dmax_sum = 0.0
    for b in batches:
        rows = [i for i, lab in enumerate(batch_ids) if lab == b]
        ctrl = [i for i in rows if control_mask[i]]
        a_mean = np.mean([act[i] for i in ctrl], axis=0)
        p_mean = np.mean([pred[i] for i in ctrl], axis=0)
        a_tilde = np.array([act[i] - a_mean for i in rows])
        p_tilde = np.array([pred[i] - p_mean for i in rows])
        d_sum += math.sqrt(float(np.sum((p_tilde - a_tilde) ** 2))) / len(rows)
        dmax_sum += math.sqrt(float(np.sum(a_tilde**2))) / len(rows)
    d = d_sum / len(batches)
    d_max = 2.0 * dmax_sum / len(batches)
    if d_max == 0.0:
        return None
    return 1.0 - d / d_max


# ---------------------------------------------------------------------------
# oracle equivalence on random instances


def test_pointwise_metrics_match_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n, d = int(rng.integers(2, 31)), int(rng.integers(2, 21))
        y = rng.normal(size=(n, d))
        yhat = rng.normal(size=(n, d))
        got = pointwise_metrics(y, yhat)
        want = oracle_pointwise(y, yhat)
        assert got[0] == pytest.approx(want[0], abs=1e-9)
        assert got[1] == pytest.approx(want[1], abs=1e-9)
        assert got[2] == pytest.approx(want[2], abs=1e-9)


def plain_pointwise(y, yhat):
    """pointwise_metrics as whole-array expressions, one temporary each.

    pointwise_metrics reuses three buffers instead; it must give these exact
    floats, which a tolerance-based oracle cannot tell from a reordered sum.
    """
    diff = y - yhat
    mse = float(np.mean(diff * diff))
    yc = y - y.mean(axis=0, keepdims=True)
    pc = yhat - yhat.mean(axis=0, keepdims=True)
    sst = float(np.sum(yc * yc))
    spp = float(np.sum(pc * pc))
    if sst == 0.0:
        return mse, None, None
    pcc = None
    if spp > 0.0:
        pcc = float(np.sum(yc * pc) / math.sqrt(sst * spp))
    sse = float(np.sum(diff * diff))
    return mse, pcc, 1.0 - sse / sst


def _laid_out(values, layout, index_dtype=np.int32):
    if layout == "csr":
        csr = sparse.csr_array(values)
        csr.indices, csr.indptr = csr.indices.astype(index_dtype), csr.indptr.astype(index_dtype)
        return csr
    if layout == "C":
        return np.ascontiguousarray(values)
    if layout == "F":
        return np.asfortranarray(values)
    # a strided view of a Fortran-ordered parent
    parent = np.zeros((2 * values.shape[0], 2 * values.shape[1]), order="F")
    view = parent[::2, ::2]
    view[...] = values
    return view


def _as_plain(values):
    """What plain_pointwise sees of an input: CSR acts as its C-order array."""
    return values.toarray() if sparse.issparse(values) else values


@pytest.mark.parametrize(
    "layout_y, layout_p",
    [("C", "C"), ("F", "F"), ("C", "F"), ("F", "C"), ("view", "C"), ("C", "view"),
     ("csr", "csr"), ("csr", "C"), ("csr", "F")],
)
def test_pointwise_metrics_bit_exact(layout_y, layout_p, monkeypatch):
    # Leaves of at most 1000 entries: each sum walks many leaves, in C or
    # Fortran order, and leaf edges fall inside rows and columns.
    monkeypatch.setattr(metrics, "_LEAF", 1000)
    rng = np.random.default_rng(23)
    n, d = 150, 90  # many pairwise-summation blocks, in C or Fortran order
    for _ in range(12):  # a reordered sum rounds differently on about half
        y = rng.gamma(2.0, 1.5, size=(n, d)) * (rng.random((n, d)) < 0.4)
        yhat = y + rng.normal(scale=0.7, size=(n, d)) * (rng.random((n, d)) < 0.5)
        truth, pred = _laid_out(y, layout_y), _laid_out(yhat, layout_p)
        got = pointwise_metrics(truth, pred)
        assert got[1] is not None and got[2] is not None
        assert got == plain_pointwise(_as_plain(truth), _as_plain(pred))
    for truth, pred in [
        (np.full((n, d), 3.25), yhat),  # constant truth: sst == 0
        (y, np.full((n, d), 1.5)),  # constant predictions: spp == 0
    ]:
        truth, pred = _laid_out(truth, layout_y), _laid_out(pred, layout_p)
        assert pointwise_metrics(truth, pred) == plain_pointwise(_as_plain(truth), _as_plain(pred))
    for y, yhat in _leaf_edge_cases(rng):
        for index_dtype in (np.int32, np.int64):
            truth = _laid_out(y, layout_y, index_dtype)
            pred = _laid_out(yhat, layout_p, index_dtype)
            if "csr" in (layout_y, layout_p):
                csr = truth if layout_y == "csr" else pred
                assert metrics._values_of(csr).indices.dtype == index_dtype
            assert pointwise_metrics(truth, pred) == plain_pointwise(_as_plain(truth), _as_plain(pred))


def _leaves(size):
    """The flat [lo, hi) ranges of pointwise_metrics' walk, in order."""
    leaves = []

    def leaf(lo, hi):
        leaves.append((lo, hi))
        return np.zeros(4)

    metrics._pairwise_sum(leaf, size)
    return leaves


def _leaf_edge_cases(rng):
    """(y, yhat) pairs whose leaf edges fall where a leaf kernel can slip,
    for leaves of at most 1000 entries."""
    def draw(n, d):
        y = rng.gamma(2.0, 1.5, size=(n, d)) * (rng.random((n, d)) < 0.4)
        return y, y + rng.normal(scale=0.7, size=(n, d)) * (rng.random((n, d)) < 0.5)

    n, d = 150, 90  # empty rows where leaves start and where they end
    y, yhat = draw(n, d)
    for lo, hi in _leaves(n * d):
        y[lo // d] = 0.0
        yhat[(hi - 1) // d] = 0.0
    yield y, yhat
    n, d = 4, 2600  # leaves that start and end inside one row
    assert any(lo // d == (hi - 1) // d and lo % d and hi % d for lo, hi in _leaves(n * d))
    yield draw(n, d)
    yield draw(1, 3000)  # one row: sst == spp == 0
    yield draw(3000, 1)  # one column


def test_pointwise_metrics_scores_csr_in_bounded_memory(monkeypatch):
    # Each leaf scatters a CSR's rows into buffers the walk allocates once:
    # no scipy row slice, and a peak that does not grow with the rows.
    def no_slices(self, key):
        raise AssertionError("pointwise_metrics sliced a CSR operand")

    rng = np.random.default_rng(37)
    d = 300
    leaf_buffer = (-(-metrics._LEAF // d) + 1) * d * 8
    for n in (2_000, 8_000):
        y = rng.gamma(2.0, 1.5, size=(n, d)) * (rng.random((n, d)) < 0.1)
        yhat = y + rng.normal(scale=0.7, size=(n, d)) * (rng.random((n, d)) < 0.1)
        truth, pred = ExpressionMatrix(sparse.csr_array(y)), ExpressionMatrix(sparse.csr_array(yhat))
        with monkeypatch.context() as patch:
            patch.setattr(sparse.csr_array, "__getitem__", no_slices)
            tracemalloc.start()
            try:
                got = pointwise_metrics(truth, pred)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert got == plain_pointwise(y, yhat)
        assert peak < 4 * leaf_buffer, (n, peak)


@pytest.mark.parametrize("layout_y, layout_p", [("csr", "csr"), ("F", "F"), ("csr", "F")])
def test_pointwise_metrics_bit_exact_past_one_leaf(layout_y, layout_p):
    # Odd sides: half the entries is not a multiple of 8, so a split that
    # did not round as numpy's does would show at the top of the walk.
    n, d = 1101, 1003
    assert n * d > 2**20 > metrics._LEAF
    rng = np.random.default_rng(29)
    for _ in range(4):  # one draw can round alike under a reordered sum
        y = rng.gamma(2.0, 1.5, size=(n, d)) * (rng.random((n, d)) < 0.1)
        yhat = y + rng.normal(scale=0.7, size=y.shape)
        truth, pred = _laid_out(y, layout_y), _laid_out(yhat, layout_p)
        assert pointwise_metrics(truth, pred) == plain_pointwise(_as_plain(truth), _as_plain(pred))


def test_csr_column_means_equal_dense_means():
    rng = np.random.default_rng(31)
    for n, d in [(1, 5), (7, 1), (3000, 1), (150, 90), (2000, 300)]:
        dense = rng.gamma(2.0, 1.5, size=(n, d)) * (rng.random((n, d)) < 0.3)
        csr = sparse.csr_array(dense)
        assert np.array_equal(_column_means(csr), dense.mean(axis=0))
        rows = np.flatnonzero(rng.random(n) < 0.6) if n > 1 else np.array([0])
        assert np.array_equal(_column_means(csr[rows]), dense[rows].mean(axis=0))
        mask = np.zeros(n, dtype=bool)
        mask[rows] = True
        for values in (csr, dense):
            assert np.array_equal(_masked_column_means(values, mask), dense[rows].mean(axis=0))


def test_auc_match_oracle_exactly():
    rng = np.random.default_rng(12)
    for _ in range(60):
        n = int(rng.integers(2, 31))
        labels = [int(v) for v in rng.integers(0, 2, size=n)]
        if rng.random() < 0.5:
            scores = [float(v) / 4.0 for v in rng.integers(0, 5, size=n)]  # ties
        else:
            scores = [float(v) for v in rng.normal(size=n)]
        want_roc = oracle_roc_auc(labels, scores)
        got_roc = roc_auc(labels, scores)
        if want_roc is None:
            assert got_roc is None
        else:
            assert got_roc == want_roc
        want_pr = oracle_pr_auc(labels, scores)
        got_pr = pr_auc(labels, scores)
        if want_pr is None:
            assert got_pr is None
        else:
            assert got_pr == pytest.approx(want_pr, abs=1e-12)


def test_rmse_matches_oracle():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(1, 31))
        truth = [float(v) for v in rng.normal(size=n)]
        pred = [
            float("nan") if rng.random() < 0.2 else float(v)
            for v in rng.normal(size=n)
        ]
        want = oracle_rmse(truth, pred)
        got = rmse(truth, pred)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-9)


def test_select_de_genes_matches_oracle():
    rng = np.random.default_rng(14)
    for _ in range(40):
        n, d = int(rng.integers(2, 16)), int(rng.integers(2, 21))
        pert = rng.uniform(0.1, 5.0, size=(n, d))
        ctrl = rng.uniform(0.1, 5.0, size=(n, d))
        k = int(rng.integers(1, d + 1))
        want = oracle_select_de(pert, ctrl, k)
        assert select_de_genes(pert, ctrl, k=k) == want
        # One matrix with the control rows marked, in shuffled order.
        order = rng.permutation(2 * n)
        stacked = np.vstack([pert, ctrl])[order]
        control = order >= n
        assert select_de_genes(stacked, k=k, control=control) == want
        assert select_de_genes(sparse.csr_array(stacked), k=k, control=control) == want


def test_knn_accuracy_matches_oracle():
    rng = np.random.default_rng(15)
    for _ in range(40):
        h = int(rng.integers(2, 9))
        n_r = int(rng.integers(2, 21))
        n_q = int(rng.integers(1, 11))
        ref = rng.normal(size=(n_r, h))
        query = rng.normal(size=(n_q, h))
        labs = [f"p{int(v)}" for v in rng.integers(0, 4, size=n_r)]
        q_labs = [f"p{int(v)}" for v in rng.integers(0, 4, size=n_q)]
        k = int(rng.integers(1, n_r + 1))
        got = knn_accuracy(
            EmbeddingSet(query, tuple(q_labs)), EmbeddingSet(ref, tuple(labs)), k=k
        )
        assert got == oracle_knn(query, q_labs, ref, labs, k)


def _whole_tensor_distances(query, ref):
    diff = query[:, None, :] - ref[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def test_distances_equal_the_whole_tensor(monkeypatch):
    rng = np.random.default_rng(37)
    # 150 > 128 terms per pair, so a reordered sum would round differently;
    # the query rows go in several blocks, the last one partial.
    query, ref = rng.normal(size=(50, 150)), rng.normal(size=(30, 150))
    assert 1 < metrics._LEAF // ref.size < 50
    assert np.array_equal(_distances(query, ref), _whole_tensor_distances(query, ref))
    # Blocks of 4 query rows (1000 // (30 * 8)) on an integer grid: many ties.
    monkeypatch.setattr(metrics, "_LEAF", 1000)
    query = rng.integers(0, 3, size=(50, 8)).astype(float)
    ref = rng.integers(0, 3, size=(30, 8)).astype(float)
    whole = _whole_tensor_distances(query, ref)
    assert np.array_equal(_distances(query, ref), whole)
    assert len(set(whole.ravel().tolist())) < whole.size // 10
    labs = [f"p{int(v)}" for v in rng.integers(0, 4, size=30)]
    q_labs = [f"p{int(v)}" for v in rng.integers(0, 4, size=50)]
    got = knn_accuracy(EmbeddingSet(query, tuple(q_labs)), EmbeddingSet(ref, tuple(labs)), k=5)
    assert got == oracle_knn(query, q_labs, ref, labs, 5)


def test_structural_integrity_matches_oracle():
    rng = np.random.default_rng(16)
    for _ in range(40):
        n, d = int(rng.integers(4, 21)), int(rng.integers(2, 11))
        act = rng.normal(size=(n, d))
        pred = rng.normal(size=(n, d))
        n_batches = int(rng.integers(1, 4))
        batch_ids = [f"b{int(v)}" for v in rng.integers(0, n_batches, size=n)]
        control_mask = [bool(v) for v in rng.integers(0, 2, size=n)]
        # every batch needs at least one control row
        for b in set(batch_ids):
            rows = [i for i, lab in enumerate(batch_ids) if lab == b]
            if not any(control_mask[i] for i in rows):
                control_mask[rows[0]] = True
        got = structural_integrity(pred, act, batch_ids, control_mask)
        want = oracle_structural_integrity(pred, act, batch_ids, control_mask)
        assert got == pytest.approx(want, abs=1e-9)
        as_csr = ExpressionMatrix(sparse.csr_array(pred)), sparse.csr_array(act)
        assert structural_integrity(*as_csr, batch_ids, control_mask) == got


# ---------------------------------------------------------------------------
# worked examples and edge handling


def test_pointwise_perfect_and_mean_predictors():
    truth = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert pointwise_metrics(truth, truth) == (0.0, pytest.approx(1.0), pytest.approx(1.0))
    # repeating the column means scores R2 = 0 and has undefined PCC
    means = np.tile(truth.mean(axis=0), (2, 1))
    mse, pcc, r2 = pointwise_metrics(truth, means)
    assert mse == pytest.approx(1.0)  # ((1-2)^2+(2-3)^2+(3-2)^2+(4-3)^2)/4
    assert pcc is None
    assert r2 == pytest.approx(0.0)


def test_pointwise_constant_truth_is_undefined():
    truth = np.full((3, 2), 5.0)
    mse, pcc, r2 = pointwise_metrics(truth, np.ones((3, 2)))
    assert mse == pytest.approx(16.0)
    assert pcc is None and r2 is None


@pytest.mark.parametrize("layout", ["C", "csr"])
def test_pointwise_row_constant_is_undefined(layout):
    # A tiled row has no variance, but the rounded column means of 1,000
    # equal values leave centered values of a few ulps: the whole-array
    # formula gives pcc near 1e-16 and, for a tiled truth, r2 near -1e27.
    rng = np.random.default_rng(0)
    y, tiled = rng.random((1000, 5)), np.tile(rng.random(5), (1000, 1))
    noisy = plain_pointwise(y, tiled)
    assert noisy[1] is not None and plain_pointwise(tiled, y)[1] is not None
    truth, pred = _laid_out(y, layout), _laid_out(tiled, layout)
    assert pointwise_metrics(truth, pred) == (noisy[0], None, noisy[2])
    assert pointwise_metrics(pred, truth) == (noisy[0], None, None)


@pytest.mark.parametrize("scale", [1e-100, 1e150])
def test_pointwise_pcc_survives_a_product_out_of_range(scale):
    # sst * spp underflows to 0.0 at 1e-100 and overflows at 1e150, though
    # each sum alone is a normal float; pcc does not depend on the scale.
    rng = np.random.default_rng(0)
    y, p = rng.random((10, 3)), rng.random((10, 3))
    _, pcc, _ = pointwise_metrics(y * scale, p * scale)
    assert pcc == pytest.approx(pointwise_metrics(y, p)[1], rel=1e-12)


def test_pointwise_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        pointwise_metrics(np.ones((2, 2)), np.ones((2, 3)))
    with pytest.raises(ValidationError):
        pointwise_metrics(np.ones((0, 2)), np.ones((0, 2)))
    a = ExpressionMatrix(np.ones((1, 2)), column_ids=("g1", "g2"))
    b = ExpressionMatrix(np.ones((1, 2)), column_ids=("g2", "g1"))
    with pytest.raises(ValidationError):
        pointwise_metrics(a, b)


def test_log_fold_change_and_de_selection():
    lfc = log_fold_change(np.array([4.0, 1.0]), np.array([1.0, 1.0]), pseudo=0.0)
    assert lfc == pytest.approx([2.0, 0.0])
    with pytest.raises(ValidationError):
        log_fold_change(np.array([0.0]), np.array([1.0]), pseudo=0.0)
    with pytest.raises(ValidationError):
        log_fold_change(np.array([1.0]), np.array([1.0, 2.0]))

    pert = np.array([[8.0, 2.0, 1.0]])
    ctrl = np.array([[1.0, 2.0, 4.0]])
    # |LFC| = (3, 0, 2) -> ranked genes 0, 2, 1
    assert select_de_genes(pert, ctrl, k=3, pseudo=0.0) == [0, 2, 1]
    assert select_de_genes(pert, ctrl, k=1, pseudo=0.0) == [0]
    # ties break toward the lower gene index
    tied = select_de_genes(np.array([[2.0, 2.0]]), np.array([[1.0, 1.0]]), k=2)
    assert tied == [0, 1]
    with pytest.raises(ValidationError):
        select_de_genes(pert, ctrl, k=0)
    with pytest.raises(ValidationError):
        select_de_genes(pert, ctrl, k=4)
    both = np.vstack([pert, ctrl])
    for control in ([True, True], [False, False], [True]):
        with pytest.raises(ValidationError, match="control mask"):
            select_de_genes(both, k=1, control=control)


def test_restrict_carries_identifiers():
    m = ExpressionMatrix(
        np.array([[1.0, 2.0, 3.0]]), row_ids=("c1",), column_ids=("g1", "g2", "g3")
    )
    sliced = restrict(m, [2, 0])
    assert sliced.values.tolist() == [[3.0, 1.0]]
    assert sliced.column_ids == ("g3", "g1")
    assert sliced.row_ids == ("c1",)
    # A CSR matrix restricts to the dense Fortran-ordered block numpy's
    # column gather gives, so the metrics sum it in the same order.
    two_rows = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    from_csr = restrict(sparse.csr_array(two_rows), [2, 0]).values
    assert not from_csr.flags.c_contiguous and from_csr.flags.f_contiguous
    assert from_csr.tolist() == two_rows[:, [2, 0]].tolist()
    with pytest.raises(ValidationError):
        restrict(m, [])
    with pytest.raises(ValidationError):
        restrict(m, [3])


def test_metric_report_registry():
    report = metric_report(
        np.array([[1.0, 2.0], [3.0, 4.0]]),
        np.array([[1.0, 2.0], [3.0, 4.0]]),
        de_genes=[1],
    )
    doc = report.to_json()
    assert list(doc) == ["mse", "pcc", "r2", "mse_de", "pcc_de", "r2_de"]
    assert doc["mse"] == 0.0 and doc["mse_de"] == 0.0
    assert report.get("pcc") == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        MetricReport({"bogus": 1.0})
    with pytest.raises(ValidationError):
        MetricReport({"mse": float("nan")})
    empty = MetricReport()
    assert "mse" not in empty
    assert set(METRIC_IDS) >= set(doc)


def test_roc_auc_examples():
    assert roc_auc([1, 0], [0.9, 0.1]) == 1.0
    assert roc_auc([1, 0], [0.1, 0.9]) == 0.0
    assert roc_auc([1, 0], [0.5, 0.5]) == 0.5
    assert roc_auc([1, 1], [0.2, 0.3]) is None
    assert roc_auc([0, 0], [0.2, 0.3]) is None
    with pytest.raises(ValidationError):
        roc_auc([1, 2], [0.1, 0.2])
    with pytest.raises(ValidationError):
        roc_auc([], [])


def test_pr_auc_examples():
    assert pr_auc([1, 0], [0.9, 0.1]) == 1.0
    # one uniform block: precision equals prevalence at full recall
    assert pr_auc([1, 0, 0, 0], [0.5, 0.5, 0.5, 0.5]) == pytest.approx(0.25)
    assert pr_auc([0, 0], [0.5, 0.1]) is None
    # worst ordering: the positive arrives last
    assert pr_auc([1, 0], [0.1, 0.9]) == pytest.approx(0.5)


def test_deg_recall_examples():
    assert deg_recall([1, 2, 3], [3, 2, 9]) == pytest.approx(2 / 3)
    assert deg_recall([1], []) == 0.0
    with pytest.raises(ValidationError):
        deg_recall([], [1])


def test_rmse_examples():
    assert rmse([1.0, 2.0, 3.0], [1.0, float("nan"), 5.0]) == pytest.approx(math.sqrt(2.0))
    assert rmse([1.0], [float("nan")]) is None
    with pytest.raises(ValidationError):
        rmse([float("nan")], [1.0])
    with pytest.raises(ValidationError):
        rmse([1.0, 2.0], [1.0])


def test_knn_tie_breaks_are_lexicographic():
    query = EmbeddingSet(np.array([[0.0, 0.0]]), ("x",))
    reference = EmbeddingSet(
        np.array([[1.0, 0.0], [0.0, 1.0]]), ("y", "x")
    )
    # counts tie 1-1 and distances tie 1.0-1.0; label "x" sorts first
    top1, top5 = knn_accuracy(query, reference, k=2)
    assert (top1, top5) == (1.0, 1.0)
    with pytest.raises(ValidationError):
        knn_accuracy(query, reference, k=3)
    with pytest.raises(ValidationError):
        knn_accuracy(query, EmbeddingSet(np.zeros((1, 3)), ("x",)), k=1)


def test_knn_self_reference_is_perfect():
    rng = np.random.default_rng(21)
    vectors = rng.normal(size=(9, 3))
    emb = EmbeddingSet(vectors, tuple(f"p{i % 3}" for i in range(9)))
    assert knn_accuracy(emb, emb, k=1) == (1.0, 1.0)


def _rank_inputs():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 10, 100, 1_000, 10_000, 100_000):
        yield pytest.param(rng.normal(size=n), id=f"distinct-{n}")
        ties = rng.integers(0, max(2, n // 4), size=n).astype(np.float64)
        yield pytest.param(ties, id=f"ties-{n}")
        yield pytest.param(np.full(n, 2.5), id=f"equal-{n}")
        inf = rng.normal(size=n)
        inf[rng.integers(0, n, size=max(1, n // 5))] = np.inf
        inf[rng.integers(0, n, size=max(1, n // 5))] = -np.inf
        yield pytest.param(inf, id=f"inf-{n}")
        nan = rng.normal(size=n)
        nan[n // 2] = np.nan
        yield pytest.param(nan, id=f"nan-{n}")
    yield pytest.param(np.array([0.0, -0.0, 1.0, -0.0, -1.0]), id="signed-zero")
    yield pytest.param(np.array([], dtype=np.float64), id="empty")


@pytest.mark.parametrize("x", _rank_inputs())
def test_average_ranks_match_scipy(x):
    got = _average_ranks(x)
    want = rankdata(x, method="average")
    assert got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    if np.isnan(x).any():
        assert np.isnan(got).all()


def test_structural_integrity_worked_example():
    act = np.array([[0.0, 0.0], [2.0, 2.0]])
    pred = np.zeros((2, 2))
    si = structural_integrity(pred, act, ["b1", "b1"], [True, False])
    assert si == pytest.approx(0.5)
    # a perfect prediction scores 1
    assert structural_integrity(act, act, ["b1", "b1"], [True, False]) == pytest.approx(1.0)
    # constant activity has no structure to preserve
    flat = np.ones((2, 2))
    assert structural_integrity(pred, flat, ["b1", "b1"], [True, False]) is None
    with pytest.raises(ValidationError):
        structural_integrity(pred, act, ["b1", "b2"], [True, False])


def test_embedding_set_validation():
    with pytest.raises(ValidationError):
        EmbeddingSet(np.ones((2, 2)), ("a",))
    with pytest.raises(ValidationError):
        EmbeddingSet(np.ones((2, 2)), ("a", ""))
    with pytest.raises(ValidationError):
        EmbeddingSet(np.array([[np.inf, 0.0]]), ("a",))


def test_expression_matrix_validation():
    with pytest.raises(ValidationError):
        ExpressionMatrix(np.ones(3))
    with pytest.raises(ValidationError):
        ExpressionMatrix(np.ones((2, 2)), row_ids=("a",))
    with pytest.raises(ValidationError):
        ExpressionMatrix(np.array([[np.nan, 1.0]]))


# ---------------------------------------------------------------------------
# hypothesis invariants


@st.composite
def _binary_instances(draw):
    n = draw(st.integers(2, 20))
    labels = draw(
        st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(
            lambda ls: 0 < sum(ls) < len(ls)
        )
    )
    scores = draw(
        st.lists(
            st.floats(-5, 5, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    return labels, scores


@settings(max_examples=100, deadline=None)
@given(_binary_instances())
def test_roc_auc_label_flip_symmetry(instance):
    labels, scores = instance
    flipped = [1 - y for y in labels]
    assert roc_auc(flipped, scores) == pytest.approx(1.0 - roc_auc(labels, scores))


@settings(max_examples=100, deadline=None)
@given(_binary_instances())
def test_auc_bounds_and_monotone_invariance(instance):
    labels, scores = instance
    auc = roc_auc(labels, scores)
    assert 0.0 <= auc <= 1.0
    # scaling by a power of two is exact in floats, so ties are preserved
    rescaled = [4.0 * s for s in scores]
    assert roc_auc(labels, rescaled) == pytest.approx(auc)
    area = pr_auc(labels, scores)
    assert 0.0 < area <= 1.0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(-100, 100, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=24,
    )
)
def test_rmse_of_identical_vectors_is_zero(values):
    assert rmse(values, list(values)) == pytest.approx(0.0)

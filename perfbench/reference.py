"""Independent references for the output checks.

Plain numpy written for the benchmark; nothing here calls ``forge``, so a
defect in ``forge.metrics`` cannot hide in its own reference.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

DE_K = 20
DE_PSEUDO = 1e-6


# ----------------------------------------------------------------------
# metrics.json of the pipeline workloads
# ----------------------------------------------------------------------


def _pointwise(y_cols, p_cols):
    """(mse, pcc, r2) from column blocks of truth and aligned predictions."""
    sse = sst = spp = syp = 0.0
    count = 0
    for y, p in zip(y_cols, p_cols):
        yc = y - y.mean(axis=0)
        pc = p - p.mean(axis=0)
        sse += float(((y - p) ** 2).sum())
        sst += float((yc ** 2).sum())
        spp += float((pc ** 2).sum())
        syp += float((yc * pc).sum())
        count += y.size
    if sst == 0.0:
        return sse / count, None, None
    pcc = syp / math.sqrt(sst * spp) if spp > 0.0 else None
    return sse / count, pcc, 1.0 - sse / sst


def expression_metrics(truth: np.ndarray, control: np.ndarray, block: int = 200) -> Dict[str, float]:
    """metrics.json values for predictions equal to ``truth[:, ::-1]``.

    The scripted model copies the matrix and reverses the column ids, so
    after alignment the prediction of gene ``g`` is truth column ``d-1-g``.
    DE genes are the top ``DE_K`` by |log2 fold change| of pooled
    perturbed rows against control rows, ties by index.
    """
    d = truth.shape[1]
    starts = range(0, d, block)

    def cols(idx):
        return (truth[:, idx[s:s + block]] for s in range(0, len(idx), block))

    everything = np.arange(d)
    mse, pcc, r2 = _pointwise(cols(everything), cols(everything[::-1]))
    out = {"mse": mse, "pcc": pcc, "r2": r2}
    perturbed = ~control
    if control.any() and perturbed.any():
        pm = np.concatenate([truth[perturbed, s:s + block].mean(axis=0) for s in starts])
        cm = np.concatenate([truth[control, s:s + block].mean(axis=0) for s in starts])
        magnitude = np.abs(np.log2((pm + DE_PSEUDO) / (cm + DE_PSEUDO)))
        de = np.lexsort((np.arange(d), -magnitude))[: min(DE_K, d)]
        mse_de, pcc_de, r2_de = _pointwise(cols(de), cols(d - 1 - de))
        out.update({"mse_de": mse_de, "pcc_de": pcc_de, "r2_de": r2_de})
    return out

"""Output checks computed apart from the program under test.

Nothing here imports ``repro``: every property is recomputed from raw numpy
arrays with the paper's definitions, so a fault in the library cannot hide
itself by also corrupting its own verifier.

Release checks (one fitted table against its release):

* every equivalence class — rows sharing one released quasi-identifier
  tuple — holds at least k records;
* every class's ordered-distance EMD to the whole table is at most t
  (Li et al.'s definition, in closed form below);
* released quasi-identifiers equal each class's mean of the original values;
* the confidential column is unchanged, row for row;
* SSE/SST agrees whether computed row by row or from the class structure.

Serving checks (request rows against their response rows):

* each returned quasi-identifier tuple is one of the released class tuples,
  and it is a nearest one in the fitted table's standardized geometry,
  by brute force over all tuples;
* the confidential column passes through unchanged;
* rows that are identical in the request stream get identical answers.
"""

from __future__ import annotations

import numpy as np

#: Absolute slack on "EMD <= t": the closed form below and the library sum
#: the same terms in different orders, which can differ in the last bits.
EMD_SLACK = 1e-9
#: Relative slack on "released value == class mean" (different summation order).
MEAN_RTOL = 1e-9
#: Relative slack on "assigned tuple is a nearest one": the server encodes
#: with its own arithmetic, so exact ties may differ by an ulp here.
NEAREST_RTOL = 1e-9


class CheckFailed(AssertionError):
    """An output check found a result that breaks the method's properties."""


# -- ordered-distance EMD ---------------------------------------------------------


def _abs_sums(lo: np.ndarray, hi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum(|x - i| for i in range(lo, hi + 1))`` per entry (0 when hi < lo)."""
    k = np.clip(np.floor(x), lo - 1, hi)
    below = (k - lo + 1) * x - (lo + k) * (k - lo + 1) / 2.0
    above = (hi + k + 1) * (hi - k) / 2.0 - (hi - k) * x
    return below + above


def class_emds(confidential: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Ordered-distance EMD of every class to the whole table (tie-free values).

    With m distinct values in rank order, the EMD of a class distribution P
    to the table distribution Q is ``sum_i |F_P(i) - F_Q(i)| / (m - 1)``
    over the cumulative distributions.  For a tie-free column m = n and
    ``F_Q(i) = i / n``; between consecutive member ranks ``F_P`` is a
    constant ``a / c``, so each stretch of the sum is an arithmetic series
    summed in closed form — O(n log n) for all classes at once.
    """
    values = np.asarray(confidential, dtype=np.float64)
    labels = np.asarray(labels)
    n = values.size
    if np.unique(values).size != n:
        raise ValueError("class_emds needs a tie-free confidential column")
    if n < 2:
        return np.zeros(int(labels.max()) + 1 if n else 0)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(values, kind="stable")] = np.arange(1, n + 1)
    n_classes = int(labels.max()) + 1
    sizes = np.bincount(labels, minlength=n_classes)

    order = np.lexsort((rank, labels))
    lab = labels[order]
    r = rank[order].astype(np.float64)
    first = np.ones(n, dtype=bool)
    first[1:] = lab[1:] != lab[:-1]
    starts = np.flatnonzero(first)
    a = np.arange(n) - np.repeat(starts, sizes[lab[starts]]) + 1  # 1..c in class
    c = sizes[lab].astype(np.float64)
    last = np.ones(n, dtype=bool)
    last[:-1] = lab[1:] != lab[:-1]
    nxt = np.empty(n)
    nxt[:-1] = r[1:] - 1
    nxt[last] = n
    # Stretch a >= 1: ranks [r_a, r_{a+1} - 1] where F_P = a / c.
    totals = np.bincount(lab, weights=_abs_sums(r, nxt, a * n / c), minlength=n_classes)
    # Stretch a = 0: ranks [1, r_1 - 1] where F_P = 0.
    head = r[starts] - 1
    totals[lab[starts]] += head * (head + 1) / 2.0
    return totals / (n * (n - 1.0))


def dense_emd(confidential: np.ndarray, members: np.ndarray) -> float:
    """The same definition evaluated term by term (reference for tests)."""
    values = np.asarray(confidential, dtype=np.float64)
    bins = np.unique(values)
    q = np.searchsorted(bins, values)
    p_hist = np.bincount(q[members], minlength=bins.size) / len(members)
    q_hist = np.bincount(q, minlength=bins.size) / values.size
    cumulative = np.cumsum(p_hist - q_hist)
    return float(np.abs(cumulative).sum() / (bins.size - 1))


# -- release checks ---------------------------------------------------------------


def release_classes(released_qi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equivalence classes of a release: ``(class tuples, row -> class label)``."""
    tuples, labels = np.unique(released_qi, axis=0, return_inverse=True)
    return tuples, labels.reshape(-1)


def sse_ratio(original_qi: np.ndarray, released_qi: np.ndarray) -> float:
    """SSE/SST of released against original quasi-identifiers.

    Columns are standardized by the original table's standard deviation so
    every attribute weighs the same — the paper's utility measure.
    """
    scale = original_qi.std(axis=0)
    scale[scale == 0.0] = 1.0
    sse = (((original_qi - released_qi) / scale) ** 2).sum()
    sst = (((original_qi - original_qi.mean(axis=0)) / scale) ** 2).sum()
    return float(sse / sst)


def check_release(
    original_qi: np.ndarray,
    original_conf: np.ndarray,
    released_qi: np.ndarray,
    released_conf: np.ndarray,
    *,
    k: int,
    t: float,
) -> float:
    """Raise :class:`CheckFailed` unless the release keeps its promises.

    Returns the release's SSE/SST.
    """
    if released_qi.shape != original_qi.shape:
        raise CheckFailed(
            f"release has shape {released_qi.shape}, table {original_qi.shape}"
        )
    if not np.array_equal(released_conf, original_conf):
        changed = int(np.count_nonzero(released_conf != original_conf))
        raise CheckFailed(f"confidential column changed in {changed} rows")
    tuples, labels = release_classes(released_qi)
    sizes = np.bincount(labels)
    if sizes.min() < k:
        raise CheckFailed(
            f"{int(np.count_nonzero(sizes < k))} classes hold fewer than k={k} "
            f"records (smallest {int(sizes.min())})"
        )
    means = np.stack(
        [np.bincount(labels, weights=col) / sizes for col in original_qi.T], axis=1
    )
    if not np.allclose(tuples, means, rtol=MEAN_RTOL, atol=0.0):
        bad = int(np.count_nonzero(~np.isclose(tuples, means, rtol=MEAN_RTOL, atol=0.0).all(axis=1)))
        raise CheckFailed(f"{bad} classes are not released at their mean")
    emds = class_emds(original_conf, labels)
    if emds.max() > t + EMD_SLACK:
        raise CheckFailed(
            f"{int(np.count_nonzero(emds > t + EMD_SLACK))} classes exceed t={t} "
            f"(largest EMD {emds.max():.6f})"
        )
    ratio = sse_ratio(original_qi, released_qi)
    scale = original_qi.std(axis=0)
    scale[scale == 0.0] = 1.0
    z = original_qi / scale
    class_sums = np.stack([np.bincount(labels, weights=col) for col in z.T], axis=1)
    within = (z**2).sum() - ((class_sums**2).sum(axis=1) / sizes).sum()
    total = ((z - z.mean(axis=0)) ** 2).sum()
    if not np.isclose(ratio, within / total, rtol=1e-6, atol=0.0):
        raise CheckFailed(
            f"SSE/SST row by row {ratio!r} disagrees with the class "
            f"decomposition {within / total!r}"
        )
    return ratio


# -- serving checks ---------------------------------------------------------------


class ServedRowChecker:
    """Checks served rows against a release's class tuples by brute force."""

    def __init__(self, fitted_qi: np.ndarray, released_qi: np.ndarray) -> None:
        self.mean = fitted_qi.mean(axis=0)
        self.scale = fitted_qi.std(axis=0)
        self.scale[self.scale == 0.0] = 1.0
        self.tuples = np.unique(released_qi, axis=0)
        self._encoded = (self.tuples - self.mean) / self.scale
        self._index = {row.tobytes(): i for i, row in enumerate(self.tuples)}

    def bad_rows(
        self,
        request_qi: np.ndarray,
        returned_qi: np.ndarray,
        request_conf: np.ndarray,
        returned_conf: np.ndarray,
    ) -> np.ndarray:
        """Indices of rows whose answer breaks a serving property."""
        bad = np.zeros(len(request_qi), dtype=bool)
        bad |= returned_conf != request_conf
        ids = np.array(
            [self._index.get(row.tobytes(), -1) for row in returned_qi], dtype=np.int64
        )
        bad |= ids < 0
        query = (request_qi - self.mean) / self.scale
        for start in range(0, len(query), 256):
            block = query[start : start + 256]
            d2 = ((block[:, None, :] - self._encoded[None, :, :]) ** 2).sum(axis=2)
            best = d2.min(axis=1)
            got = d2[np.arange(len(block)), np.maximum(ids[start : start + 256], 0)]
            bad[start : start + 256] |= got > best * (1.0 + NEAREST_RTOL) + 1e-300
        return np.flatnonzero(bad)


def inconsistent_duplicates(keys: np.ndarray, returned_qi: np.ndarray) -> int:
    """Rows whose answer differs from the first answer to the same request row."""
    first: dict[int, bytes] = {}
    bad = 0
    for key, row in zip(keys.tolist(), returned_qi):
        answer = row.tobytes()
        if first.setdefault(key, answer) != answer:
            bad += 1
    return bad

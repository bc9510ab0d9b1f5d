"""The benchmark's output checks accept good outputs and reject broken ones.

    python3 -m pytest perfbench -q

Needs only numpy: the checks never import the program under test.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402

# The salary example of Li et al. (ICDE 2007), worked through again in the
# t-closeness tutorial of Dosselmann et al. (arXiv:1911.11212): nine salaries
# 3k..11k; EMD({3k,4k,5k}, all) = 0.375 and EMD({6k,8k,11k}, all) = 0.167.
SALARIES = np.arange(3.0, 12.0) * 1000.0


def test_emd_matches_worked_examples():
    labels = np.array([0, 0, 0, 1, 2, 1, 2, 2, 1])
    emds = checks.class_emds(SALARIES, labels)
    assert emds[0] == pytest.approx(0.375, abs=1e-12)
    assert emds[1] == pytest.approx(1.5 / 9.0, abs=1e-12)
    assert checks.dense_emd(SALARIES, np.array([0, 1, 2])) == pytest.approx(0.375)
    assert checks.dense_emd(SALARIES, np.array([3, 5, 8])) == pytest.approx(1.5 / 9.0)


def test_closed_form_emd_equals_term_by_term_sum():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(2, 80))
        values = rng.permutation(n) * 2.5 - 3.0
        labels = np.unique(rng.integers(0, int(rng.integers(1, 9)), n), return_inverse=True)[1]
        dense = [checks.dense_emd(values, np.flatnonzero(labels == g)) for g in range(labels.max() + 1)]
        np.testing.assert_allclose(checks.class_emds(values, labels), dense, rtol=0, atol=1e-12)


def test_closed_form_emd_refuses_ties():
    with pytest.raises(ValueError):
        checks.class_emds(np.array([1.0, 1.0, 2.0]), np.array([0, 0, 0]))


# -- releases ------------------------------------------------------------------------

N, K = 100, 5


def spread_classes() -> np.ndarray:
    """Twenty classes of five ranks each, every class spread over the range."""
    return np.arange(N) % 20


def make_release(labels: np.ndarray, seed: int = 0):
    rng = np.random.default_rng(seed)
    qi = np.round(30_000.0 * np.exp(0.6 * rng.standard_normal((N, 4))), 2)
    conf = np.arange(N, dtype=np.float64)
    means = np.stack([np.bincount(labels, weights=c) / np.bincount(labels) for c in qi.T], axis=1)
    return qi, conf, means[labels], conf.copy()


T_SPREAD = float(checks.class_emds(np.arange(N, dtype=np.float64), spread_classes()).max())


def test_accepts_a_correct_release():
    qi, conf, released, released_conf = make_release(spread_classes())
    ratio = checks.check_release(qi, conf, released, released_conf, k=K, t=T_SPREAD)
    assert 0.0 < ratio < 1.0
    assert ratio == pytest.approx(checks.sse_ratio(qi, released))


def test_rejects_a_class_of_k_minus_one_records():
    labels = spread_classes()
    labels[np.flatnonzero(labels == 3)[0]] = 4  # class 3 keeps four records
    qi, conf, released, released_conf = make_release(labels)
    with pytest.raises(CheckFailed, match="fewer than k"):
        checks.check_release(qi, conf, released, released_conf, k=K, t=1.0)


def test_rejects_a_class_whose_emd_exceeds_t():
    labels = spread_classes()
    # Swap records so class 0 holds the five smallest confidential values.
    for low, member in zip((1, 2, 3, 4), (20, 40, 60, 80)):
        labels[low], labels[member] = labels[member], labels[low]
    assert sorted(np.flatnonzero(labels == 0)) == [0, 1, 2, 3, 4]
    assert np.bincount(labels).min() == K
    qi, conf, released, released_conf = make_release(labels)
    with pytest.raises(CheckFailed, match="exceed t"):
        checks.check_release(qi, conf, released, released_conf, k=K, t=T_SPREAD)


def test_rejects_values_that_are_not_class_means():
    qi, conf, released, released_conf = make_release(spread_classes())
    members = np.flatnonzero(spread_classes() == 2)
    released[members, 1] += 0.5
    with pytest.raises(CheckFailed, match="mean"):
        checks.check_release(qi, conf, released, released_conf, k=K, t=T_SPREAD)


def test_rejects_a_changed_confidential_column():
    qi, conf, released, released_conf = make_release(spread_classes())
    released_conf[[4, 9]] = released_conf[[9, 4]]
    with pytest.raises(CheckFailed, match="confidential"):
        checks.check_release(qi, conf, released, released_conf, k=K, t=T_SPREAD)


# -- served rows ---------------------------------------------------------------------


def served_fixture():
    qi, conf, released, _ = make_release(spread_classes())
    checker = checks.ServedRowChecker(qi, released)
    rng = np.random.default_rng(3)
    request = np.round(30_000.0 * np.exp(0.6 * rng.standard_normal((50, 4))), 2)
    encoded = (checker.tuples - checker.mean) / checker.scale
    query = (request - checker.mean) / checker.scale
    d2 = ((query[:, None, :] - encoded[None, :, :]) ** 2).sum(axis=2)
    return checker, request, d2, rng.random(50)


def test_accepts_nearest_answers():
    checker, request, d2, conf = served_fixture()
    answers = checker.tuples[d2.argmin(axis=1)]
    assert len(checker.bad_rows(request, answers, conf, conf.copy())) == 0


def test_rejects_a_row_assigned_to_a_farther_representative():
    checker, request, d2, conf = served_fixture()
    chosen = d2.argmin(axis=1)
    chosen[7] = d2[7].argmax()
    answers = checker.tuples[chosen]
    assert checker.bad_rows(request, answers, conf, conf.copy()).tolist() == [7]


def test_rejects_an_answer_that_is_no_released_tuple():
    checker, request, d2, conf = served_fixture()
    answers = checker.tuples[d2.argmin(axis=1)].copy()
    answers[11, 0] += 0.01
    assert checker.bad_rows(request, answers, conf, conf.copy()).tolist() == [11]


def test_rejects_a_changed_confidential_value_in_a_response():
    checker, request, d2, conf = served_fixture()
    answers = checker.tuples[d2.argmin(axis=1)]
    returned = conf.copy()
    returned[5] += 1.0
    assert checker.bad_rows(request, answers, conf, returned).tolist() == [5]


def test_counts_repeated_rows_with_different_answers():
    keys = np.array([4, 9, 4, 4, 9])
    answers = np.array([[1.0], [2.0], [1.0], [3.0], [2.0]])
    assert checks.inconsistent_duplicates(keys, answers) == 1
    assert checks.inconsistent_duplicates(keys, np.array([[1.0], [2.0], [1.0], [1.0], [2.0]])) == 0

"""``dp_partition`` against an integer program solved by HiGHS, at 13-16
qubits: too wide for the brute-force oracle, and wide enough for the DP's
pruned search and its fallback, the scan over admissible peels, to run."""

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array

from qcpart import dp_partition, qc_to_bigraph, weight_matrix
from qcpart import dpcore
from conftest import build_random_circuit


def milp_cost(w: np.ndarray, k: int, cap: int) -> int:
    """Minimum cut weight of a split into k non-empty parts of at most cap
    qubits. x[q, p] = 1 puts qubit q in part p; z[e] >= x[i, p] - x[j, p]
    over every part p forces z[e] = 1 on each cut pair e = (i, j). Qubit q
    may only join parts 0..q, so parts are ordered by their lowest qubit."""
    n = w.shape[0]
    i, j = np.nonzero(np.triu(w))
    nx = n * k
    rows, cols, vals, lo, hi = [], [], [], [], []

    def row(columns, coefs, low, high):
        rows.extend([len(lo)] * len(columns))
        cols.extend(columns)
        vals.extend(coefs)
        lo.append(low)
        hi.append(high)

    for q in range(n):
        row([q * k + p for p in range(k)], [1] * k, 1, 1)
    for p in range(k):
        row([q * k + p for q in range(n)], [1] * n, 1, cap)
    for e, (a, b) in enumerate(zip(i.tolist(), j.tolist())):
        for p in range(k):
            row([a * k + p, b * k + p, nx + e], [1, -1, -1], -np.inf, 0)
    size = nx + i.size
    upper = np.ones(size)
    upper[:nx].reshape(n, k)[np.triu_indices(n, 1, k)] = 0
    matrix = coo_array((vals, (rows, cols)), shape=(len(lo), size))
    res = milp(np.concatenate([np.zeros(nx), w[i, j]]),
               constraints=LinearConstraint(matrix, lo, hi),
               integrality=np.concatenate([np.ones(nx), np.zeros(i.size)]),
               bounds=Bounds(0, upper))
    assert res.status == 0, res.message
    return round(res.fun)


# (seed, qubits, gates, K, max_part_size, the schedule the solve runs: the
# search, or the bounded schedule, the scan over the admissible peels, when
# the search gives up). Sparse circuits keep the integer program small
# enough to solve quickly
CASES = [
    (1, 13, 26, 3, None, "search"),
    (12, 14, 28, 3, None, "search"),
    (2, 14, 42, 3, 5, "bounded"),
    (3, 15, 30, 3, 8, "bounded"),
    (5, 16, 32, 4, None, "search"),
    (5, 16, 32, 4, 6, "bounded"),
]


@pytest.mark.parametrize("seed, n, gates, k, cap, schedule", CASES)
def test_dp_matches_milp(monkeypatch, seed, n, gates, k, cap, schedule):
    # every case runs twice: by its plan, and with the search out of budget,
    # by the bounded schedule
    w = weight_matrix(qc_to_bigraph(build_random_circuit(np.random.default_rng(seed), n, gates)))
    win = dpcore._internal_weights(w.m)
    assert dpcore.plan(win, k, cap or n, False)[0] == ("search" if schedule == "search" else "scan")
    cost = milp_cost(w.m, k, cap or n)
    assert dp_partition(w, k, max_part_size=cap).cost == cost
    monkeypatch.setattr(dpcore, "_search", lambda *args: None)
    schedule, peels = dpcore.plan(win, k, cap or n, False)
    assert schedule == "scan" and peels is not None
    assert dp_partition(w, k, max_part_size=cap).cost == cost

"""The vectorized DP engine against the scalar reference loop."""

import numpy as np
import pytest

from qcpart import SizeCapError, WeightMatrix, dp_partition, dp_table, qc_to_bigraph, weight_matrix
from qcpart import dpcore
from qcpart.partitioner import DpTable
from conftest import build_random_circuit
from dp_reference import reference_solve


def test_engine_matches_scalar_reference():
    # n = 12 and 13 exceed dpcore.LOW_BITS + 1, so the high-bit block loop runs;
    # few gates leave many zero weights, so many splits tie on cost
    rng = np.random.default_rng(404)
    for n in range(2, 14):
        for _ in range(3 if n <= 11 else 1):
            w = weight_matrix(qc_to_bigraph(
                build_random_circuit(rng, n, int(rng.integers(0, 3 * n + 1))))).m
            kmax = int(rng.integers(2, min(n, 5) + 1))
            for cap in (n, int(rng.integers(-(-n // kmax), n))):
                for full in (False, True):
                    ref_cost, ref_choice = reference_solve(w, kmax, cap, full_table=full)
                    table = DpTable(n, kmax, cap, *dpcore.solve(w, kmax, cap, full_table=full),
                                    full)
                    for k in range(2, kmax + 1):
                        for mask in range(1, 1 << n):
                            cost, choice = table.cost_at(mask, k), table.choice_at(mask, k)
                            assert cost == ref_cost[k].get(mask), (n, kmax, cap, full, k, mask)
                            assert choice == ref_choice[k].get(mask), (n, kmax, cap, full, k, mask)
                            # plain ints: the CLI's --table JSON serializes them
                            assert cost is None or type(cost) is int
                            assert choice is None or type(choice) is int


def test_packed_key_range_guard():
    over = WeightMatrix(np.array([[0, 1 << 60], [1 << 60, 0]]))
    with pytest.raises(SizeCapError, match="key range"):
        dp_partition(over, 2)
    with pytest.raises(SizeCapError, match="key range"):
        dp_table(over, 2)
    assert dp_partition(over, 1).cost == 0  # one part: nothing is solved
    # weights just below the guard's limit at this width still give exact costs
    big = WeightMatrix(np.array([[0, 1 << 56, 0], [1 << 56, 0, 3], [0, 3, 0]]))
    assert dp_partition(big, 2).cost == 3
    assert dp_partition(big, 3).cost == (1 << 56) + 3
    assert dp_table(big, 3).cost_at(0b011, 2) == 1 << 56

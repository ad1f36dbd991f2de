"""Metamorphic properties of ``dp_partition`` at 12-14 qubits, where
``dpcore.plan`` takes the pruned search: each relates the optima of two
problems that differ in a known way, so no oracle is needed."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from qcpart import WeightMatrix, dp_partition, dpcore, qc_to_bigraph, weight_matrix
from conftest import build_random_circuit


@st.composite
def problems(draw) -> tuple[np.ndarray, int]:
    """A random circuit's weights on 12-14 qubits, with 2-10 gates per
    qubit, and K = 3 or 4."""
    n = draw(st.integers(12, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _random_weights(rng, n, draw(st.integers(2 * n, 10 * n))), draw(st.integers(3, 4))


def _random_weights(rng: np.random.Generator, n: int, gates: int) -> np.ndarray:
    return weight_matrix(qc_to_bigraph(build_random_circuit(rng, n, gates))).m


def _cost(w: np.ndarray, k: int, cap: int | None = None) -> int:
    result = dp_partition(WeightMatrix(w), k, max_part_size=cap)
    assert max(result.assignment.sizes()) <= (cap or w.shape[0])
    return result.cost


def _searched(w: np.ndarray, k: int, cap: int | None = None) -> bool:
    win = dpcore._internal_weights(w)
    return dpcore.plan(win, k, cap or w.shape[0], False)[0] == "search"


def _binding_cap(w: np.ndarray, k: int) -> int:
    """n - K: one qubit below the largest part an uncapped split can have."""
    return w.shape[0] - k


@settings(max_examples=25, deadline=None)
@given(problems(), st.integers(0, 2**32 - 1), st.booleans())
def test_relabeling_qubits_keeps_the_cost(problem, seed, capped):
    w, k = problem
    cap = _binding_cap(w, k) if capped else None
    assume(_searched(w, k, cap))
    perm = np.random.default_rng(seed).permutation(w.shape[0])
    assert _cost(w[perm][:, perm], k, cap) == _cost(w, k, cap)


@settings(max_examples=25, deadline=None)
@given(problems(), st.integers(2, 5), st.booleans())
def test_scaling_the_weights_scales_the_cost(problem, c, capped):
    w, k = problem
    cap = _binding_cap(w, k) if capped else None
    assume(_searched(w, k, cap))
    assert _cost(c * w, k, cap) == c * _cost(w, k, cap)


@settings(max_examples=25, deadline=None)
@given(problems(), st.integers(0, 2))
def test_a_cap_never_lowers_the_cost(problem, slack):
    w, k = problem
    cap = _binding_cap(w, k) - slack
    assume(_searched(w, k, cap))
    assert _cost(w, k, cap) >= _cost(w, k)


@settings(max_examples=25, deadline=None)
@given(problems(), st.data())
def test_an_isolated_qubit_in_one_more_part_keeps_the_cost(problem, data):
    w, k = problem
    n = w.shape[0]
    at = data.draw(st.integers(0, n))
    keep = np.insert(np.arange(n), at, n)  # the new qubit n sits at index ``at``
    wide = np.zeros((n + 1, n + 1), dtype=w.dtype)
    wide[:n, :n] = w
    wide = wide[keep][:, keep]
    assume(_searched(wide, k + 1))
    assert _cost(wide, k + 1) == _cost(w, k)


@settings(max_examples=25, deadline=None)
@given(st.integers(12, 14), st.data())
def test_disjoint_circuits_cost_the_best_split_of_the_parts(n, data):
    # an uncapped K-split of two disjoint circuits is a K1-split of one plus
    # a K2-split of the other, K1 + K2 = K: a part that holds qubits of both
    # can be cut in two at no cost, and more parts never cost less
    n1 = data.draw(st.integers(2, n - 2))
    k = data.draw(st.integers(2, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    w1, w2 = (_random_weights(rng, m, int(rng.integers(m, 6 * m))) for m in (n1, n - n1))
    union = np.zeros((n, n), dtype=w1.dtype)
    union[:n1, :n1], union[n1:, n1:] = w1, w2
    perm = rng.permutation(n)  # interleave the two circuits' qubits
    best = min(_cost(w1, k1) + _cost(w2, k - k1)
               for k1 in range(max(1, k - (n - n1)), min(n1, k - 1) + 1))
    assert _cost(union[perm][:, perm], k) == best

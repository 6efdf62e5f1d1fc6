"""Independent oracles used only by the tests.

These deliberately re-derive results by a different route than the
package: arbitrary-precision arithmetic for the entropy formulas, a
direct matrix-vector product for the Toeplitz hash, the textbook ranking
formula as the inverse of unranking, and a candidate-by-candidate walk
as a second unranker.
"""

import math

import numpy as np
from mpmath import mp, mpf

mp.dps = 50


def mp_binary_entropy(e) -> mpf:
    e = mpf(e)
    if e == 0 or e == 1:
        return mpf(0)
    return (-e * mp.log(e) - (1 - e) * mp.log(1 - e)) / mp.log(2)


def mp_binary_entropy_derivative(e) -> mpf:
    e = mpf(e)
    return mp.log((1 - e) / e) / mp.log(2)


def mp_deviation_exponent(theta, e_bx, q_x) -> mpf:
    theta, e_bx, q_x = mpf(theta), mpf(e_bx), mpf(q_x)
    return (
        mp_binary_entropy(e_bx + theta - q_x * theta)
        - q_x * mp_binary_entropy(e_bx)
        - (1 - q_x) * mp_binary_entropy(e_bx + theta)
    )


def mp_log2_failure_bound(n, q_x, e_bx, theta) -> mpf:
    n, q_x, e_bx = mpf(n), mpf(q_x), mpf(e_bx)
    prefactor = -mpf("0.5") * mp.log(q_x * (1 - q_x) * e_bx * (1 - e_bx) * n) / mp.log(2)
    return min(mpf(0), prefactor - n * mp_deviation_exponent(theta, e_bx, q_x))


def naive_toeplitz(raw01: np.ndarray, seed01: np.ndarray, k_out: int) -> np.ndarray:
    """y[i] = XOR_j seed[i - j + n - 1] & raw[j], straight from the definition."""
    n = raw01.size
    assert seed01.size == n + k_out - 1
    out = np.zeros(k_out, dtype=np.uint8)
    for i in range(k_out):
        row = seed01[i + n - 1 :: -1][:n]  # seed[i-j+n-1] for j = 0..n-1
        out[i] = int(np.dot(row.astype(np.int64), raw01.astype(np.int64))) & 1
    return out


def rank_combination(positions, n: int) -> int:
    """Lexicographic rank of a sorted k-subset of {0..n-1} (inverse of unrank)."""
    rank = 0
    prev = -1
    k = len(positions)
    for slot, pos in enumerate(positions):
        for c in range(prev + 1, pos):
            rank += math.comb(n - 1 - c, k - slot - 1)
        prev = pos
    return rank


def walk_unrank(index: int, n: int, k: int) -> list[int]:
    """Lexicographic unranking one candidate position at a time.

    For each candidate in turn, ``b`` counts the remaining subsets that
    contain it: the candidate is chosen when the rank falls below ``b``,
    and skipped otherwise.  O(last chosen position) exact steps.
    """
    out: list[int] = []
    if k == 0:
        return out
    b = math.comb(n - 1, k - 1)  # subsets containing the current candidate
    n_rem, k_rem, c, r = n, k, 0, index
    while k_rem > 0:
        if r < b:
            out.append(c)
            if k_rem > 1:
                b = b * (k_rem - 1) // (n_rem - 1)
            k_rem -= 1
        else:
            r -= b
            b = b * (n_rem - k_rem) // (n_rem - 1)
        n_rem -= 1
        c += 1
    return out

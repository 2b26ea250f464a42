"""Correlation tables and two-party Bell functionals.

A :class:`CorrelationTable` holds the joint outcome distribution for every
pair of measurement settings. On top of it live the standard dichotomic
functionals: the CHSH combination and its maximum over settings (scanned
exactly, and in closed form for the polygon entangled states), the chained
N-setting combination, the quadratic Uffink combination, and the noise
decomposition of the polygon correlations into an extremal no-signalling
box plus a perfectly correlated local table.

Outcome sign convention: outcome 0 maps to +1 and outcome 1 to -1 in every
correlator, so for a dichotomic pair ``E = (2 e - u)_A^T M (2 f - u)_B``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bipartite import JointState
from .core import DEFAULT_TOL, Measurement, ModelSpec, _as_int, _ray_measurements
from .polygon import _vertex_count, max_entangled, polygon

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

_DISTRIBUTION_TOL = 1e-10
_NO_SIGNALLING_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """Joint probabilities ``probs[a, b, x, y]`` for settings x, y.

    The dense array is zero-padded up to the largest outcome count on each
    side; ``outcomes_a``/``outcomes_b`` record the true count per setting.
    Construction checks the shape against the outcome counts and that every
    probability is finite, then that every (x, y) slice is a probability
    distribution: padding exactly zero, no entry below ``-DEFAULT_TOL``,
    entries summing to 1 within ``_DISTRIBUTION_TOL``. Then it checks that
    the marginals obey no-signalling within ``_NO_SIGNALLING_TOL``. A bad
    table is reported at its first failing pair in row-major order,
    checking padding, then negativity, then the sum. A table in which no
    setting is padded has no padding to check.
    """

    probs: np.ndarray
    outcomes_a: tuple[int, ...]
    outcomes_b: tuple[int, ...]

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=float, order="C")
        outcomes_a = tuple(_as_int(k, "outcomes_a count") for k in self.outcomes_a)
        outcomes_b = tuple(_as_int(k, "outcomes_b count") for k in self.outcomes_b)
        object.__setattr__(self, "outcomes_a", outcomes_a)
        object.__setattr__(self, "outcomes_b", outcomes_b)
        if probs.ndim != 4:
            raise ValueError("probs must be a 4-D array indexed [a, b, x, y]")
        n_x, n_y = probs.shape[2], probs.shape[3]
        if len(outcomes_a) != n_x or len(outcomes_b) != n_y:
            raise ValueError("outcome counts must list one entry per setting")
        if n_x == 0 or n_y == 0:
            raise ValueError("need at least one setting per side")
        if min(outcomes_a) < 1 or min(outcomes_b) < 1:
            raise ValueError("every setting needs at least one outcome")
        if max(outcomes_a) > probs.shape[0] or max(outcomes_b) > probs.shape[1]:
            raise ValueError("probs array too small for the declared outcome counts")
        if not np.isfinite(probs).all():
            raise ValueError("probabilities must be finite")

        # Where the padding passes it holds only zeros, so the whole slice
        # sums to what its live entries sum to, and its minimum is below
        # -DEFAULT_TOL exactly when theirs is; a pair whose padding fails
        # reports the padding whatever its sum and minimum.
        negative = probs.min(axis=(0, 1)) < -DEFAULT_TOL
        total = probs.sum(axis=(0, 1))
        failing = negative | (np.abs(total - 1.0) > _DISTRIBUTION_TOL)
        padded = min(outcomes_a) < probs.shape[0] or min(outcomes_b) < probs.shape[1]
        if padded:
            # dead[a, b, x, y]: outcome a of setting x or b of setting y is padding
            dead = ((np.arange(probs.shape[0])[:, None] >= outcomes_a)[:, None, :, None]
                    | (np.arange(probs.shape[1])[:, None] >= outcomes_b)[None, :, None, :])
            padding = np.any((probs != 0.0) & dead, axis=(0, 1))
            failing |= padding
        if np.any(failing):
            # argmax of a bool array is its first True, in row-major order
            x, y = divmod(int(failing.argmax()), n_y)
            # quote the pair's own sum: the whole-slice total may differ in the last bit
            pair = probs[:outcomes_a[x], :outcomes_b[y], x, y]
            if padded and padding[x, y]:
                raise ValueError(f"padding beyond the declared outcomes of ({x}, {y}) "
                                 "must be exactly zero")
            if negative[x, y]:
                raise ValueError(f"negative probability {float(pair.min())!r} "
                                 f"at settings ({x}, {y})")
            raise ValueError(f"probabilities at settings ({x}, {y}) sum to {float(pair.sum())!r}")

        # No-signalling: each side's marginal must not depend on the far setting.
        marg_a = probs.sum(axis=1)  # (a, x, y)
        if np.abs(marg_a - marg_a[:, :, :1]).max() > _NO_SIGNALLING_TOL:
            raise ValueError("first party's marginals depend on the far setting")
        marg_b = probs.sum(axis=0)  # (b, x, y)
        if np.abs(marg_b - marg_b[:, :1, :]).max() > _NO_SIGNALLING_TOL:
            raise ValueError("second party's marginals depend on the far setting")

        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    @property
    def n_settings_a(self) -> int:
        return self.probs.shape[2]

    @property
    def n_settings_b(self) -> int:
        return self.probs.shape[3]


def _effect_stack(meas: Sequence[Measurement], dim: int, side: str) -> np.ndarray:
    """The settings' effects in one zero-padded (settings, outcomes, dim) array."""
    stack = np.zeros((len(meas), max(m.n_outcomes for m in meas), dim))
    for x, m in enumerate(meas):
        if m.model.dim != dim:
            raise ValueError(f"{side}-side measurement does not fit the {side} system")
        stack[x, :m.n_outcomes] = m.effects
    return stack


def correlations_from_state(state: JointState,
                            meas_a: Sequence[Measurement],
                            meas_b: Sequence[Measurement]) -> CorrelationTable:
    """Tabulate joint probabilities of the given local measurements on a state.

    One stacked product gives every block ``(effects_a[x] @ M) @ effects_b[y].T``;
    zero-padded outcomes give exact zeros.
    """
    if not meas_a or not meas_b:
        raise ValueError("need at least one measurement per side")
    stack_a = _effect_stack(meas_a, state.model_a.dim, "first")
    stack_b = _effect_stack(meas_b, state.model_b.dim, "second")
    blocks = (stack_a @ state.matrix)[:, None] @ stack_b.transpose(0, 2, 1)
    return CorrelationTable(blocks.transpose(2, 3, 0, 1),
                            tuple(m.n_outcomes for m in meas_a),
                            tuple(m.n_outcomes for m in meas_b))


def ray_settings(model: ModelSpec, k: int,
                 tol: float | None = None) -> list[Measurement]:
    """The first k dichotomic settings {e_i, u - e_i} over ray-extremal effects.

    ``k`` is an int or a numpy integer from 0 to the ray count; anything
    else raises ``ValueError``. The result, or the error, is that of
    building the settings one by one with
    :func:`~polybell.core.dichotomic_measurement` at ``tol``, but the k
    settings are checked together: their effects are one read-only
    (k, 2, dim) array, checked in blocks whose pairing with the extremal
    states holds at most 2**16 doubles, and each setting's ``effects`` is a
    read-only (2, dim) row of it.
    """
    k = _as_int(k, "ray_settings k")
    if k < 0:
        raise ValueError(f"ray_settings k = {k} is negative")
    return _ray_measurements(model, k, tol)


def correlator(table: CorrelationTable, x: int, y: int) -> float:
    """Dichotomic correlator E(x, y) with outcome 0 -> +1, outcome 1 -> -1.

    x and y are ints or numpy integers. Raises ``ValueError`` for any
    other type, ``IndexError`` when x or y is not a setting of the table,
    and ``ValueError`` when either setting is not dichotomic.
    """
    x = _as_int(x, "correlator setting x")
    y = _as_int(y, "correlator setting y")
    if not (0 <= x < len(table.outcomes_a) and 0 <= y < len(table.outcomes_b)):
        raise IndexError(f"correlator settings ({x}, {y}) out of range for a table with "
                         f"{len(table.outcomes_a)} x {len(table.outcomes_b)} settings")
    if table.outcomes_a[x] != 2 or table.outcomes_b[y] != 2:
        raise ValueError(f"correlator needs dichotomic settings, got ({x}, {y})")
    p = table.probs[:2, :2, x, y]
    return float(p[0, 0] + p[1, 1] - p[0, 1] - p[1, 0])


def chsh(table: CorrelationTable) -> float:
    """|E(0,0) + E(0,1) + E(1,0) - E(1,1)| on settings 0 and 1 of each side."""
    return abs(
        correlator(table, 0, 0) + correlator(table, 0, 1)
        + correlator(table, 1, 0) - correlator(table, 1, 1)
    )


def uffink(table: CorrelationTable) -> float:
    """Quadratic combination (E(0,0) + E(1,0))^2 + (E(0,1) - E(1,1))^2."""
    e00 = correlator(table, 0, 0)
    e01 = correlator(table, 0, 1)
    e10 = correlator(table, 1, 0)
    e11 = correlator(table, 1, 1)
    return (e00 + e10) ** 2 + (e01 - e11) ** 2


def _chained_settings(n_settings) -> int:
    """The chained setting count N as an int; ``ValueError`` unless an integer >= 2."""
    n = _as_int(n_settings, "chained settings count N")
    if n < 2:
        raise ValueError("chained combination needs at least 2 settings")
    return n


def chained(table: CorrelationTable, n_settings: int) -> float:
    """Chained combination over settings 0..N-1 on each side.

    |sum_{j<N-1} (E(j,j) + E(j,j+1)) + E(N-1,N-1) - E(N-1,0)|; local tables
    obey the bound 2N - 2, while the algebraic maximum is 2N. N is an int
    or a numpy integer of at least 2; anything else raises ``ValueError``.
    """
    n = _chained_settings(n_settings)
    if table.n_settings_a < n or table.n_settings_b < n:
        raise ValueError(f"table has fewer than {n} settings per side")
    total = 0.0
    for j in range(n - 1):
        total += correlator(table, j, j) + correlator(table, j, j + 1)
    total += correlator(table, n - 1, n - 1) - correlator(table, n - 1, 0)
    return abs(total)


def chained_local_bound(n_settings: int) -> float:
    """Largest chained value over local deterministic tables: 2N - 2.

    N is an int or a numpy integer of at least 2; anything else raises
    ``ValueError``.
    """
    return 2.0 * _chained_settings(n_settings) - 2.0


# Element budget of each block temporary in the CHSH scan: 2**14 doubles
# (128 KiB), set by timing the chsh-scan benchmark. Each block has one
# temporary. In alternating runs against 2**13 and 2**15, 2**13 made the
# slowest items 18 % slower (none of 6 runs faster), and 2**15 left them
# flat while the median item read 5 % slower.
_SCAN_BLOCK_ELEMENTS = 1 << 14


def _candidate_sums(e: np.ndarray, j0s: np.ndarray,
                    j1s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scan's A and B from correlators ``e``, one column per pair (j0s[k], j1s[k])."""
    # take keeps the columns C-ordered, so max over rows runs along them
    x, y = e.take(j0s, axis=1), e.take(j1s, axis=1)
    return x + y, x - y


def chsh_max_over_settings(state: JointState) -> tuple[float, tuple[int, int, int, int]]:
    """Exact CHSH maximum over dichotomic ray-extremal settings on a state.

    Scans every ordered choice (i0, i1, j0, j1) of ray-extremal effects for
    the two settings per side, with measurement {e_i, u - e_i}. Returns the
    maximum |S| and its argmax, ties broken by smallest (i0, i1, j0, j1) in
    lexicographic order. Outcome relabellings never beat this scan: a sign
    flip of one setting's correlator row is absorbed by repositioning the
    minus sign, which the ordered scan already covers. Raises ValueError
    when either side has no ray-extremal effect.

    Decoupling: with correlators E and a fixed pair (j0, j1), let
    ``A[i] = E[i, j0] + E[i, j1]`` and ``B[i] = E[i, j0] - E[i, j1]``, so
    ``S = A[i0] + B[i1]``, the same float expression
    ``(E[i0,j0] + E[i0,j1]) + (E[i1,j0] - E[i1,j1])`` as in a plain
    quadruple loop. ``A`` is bitwise symmetric in (j0, j1) and ``B``
    bitwise antisymmetric, since fl(x + y) = fl(y + x) and
    fl(x - y) = -fl(y - x), so the two orders of a pair give
    ``|A[i0] + B[i1]|`` and ``|A[i0] - B[i1]|``. Each is at most
    ``fl(|A[i0]| + |B[i1]|)``, and one of them equals it, because rounding
    is monotone and symmetric. So the best |S| of an unordered pair over
    (i0, i1) and both orders is ``fl(max |A| + max |B|)``, bitwise, and the
    scan never forms the n_a x n_a pairs (i0, i1).

    Tie-break: call a pair a candidate when its value reaches the maximum;
    no other pair holds a maximiser. The loop's first maximiser has the
    first i0 with ``fl(|A[i0]| + max |B|) = max`` on some candidate, then
    the first i1 with ``|A[i0] + B[i1]| = max`` on some candidate in
    either order, then the first such (j0, j1) in row-major order.

    Cost: about n_a n_b^2 / 2 additions, subtractions, absolute values and
    comparisons in pass 1, which visits each pair j0 <= j1 once, against
    n_a^2 n_b^2 for the loop; pass 2 reads n_a rows of each candidate in
    either order. Pass 1 takes rows j0 in blocks of about equal area: with
    k = ceil(n_a n_b^2 / _SCAN_BLOCK_ELEMENTS) and
    ``P = ceil(n_a n_b^2 / k)`` elements per block, a block starting at row
    lo takes as many rows as fit P over n_a (n_b - lo) elements, and at
    least one, so blocks grow as the triangle narrows; when the whole scan
    fits the budget it is one block. Its one temporary holds at most
    ``T = max(_SCAN_BLOCK_ELEMENTS, n_a n_b)`` doubles. Pass 2 takes
    ``max(1, _SCAN_BLOCK_ELEMENTS // n_a)`` candidates at a time, so each
    of its temporaries holds at most T doubles too; when every candidate
    fits one such chunk, its A and B are formed once and both searches
    read them, two of the four temporaries below.
    Memory, besides a few vectors of length n_a or n_b: the n_a x n_b
    correlators and the n_b x n_b table; in pass 1 one block of at most T
    doubles and its two maxima over i; in pass 2 the table's boolean mask,
    two int64 indices per candidate (n_b^2 of them when every pair ties)
    and at most four temporaries of at most T doubles. numpy's two
    iteration buffers of ``np.getbufsize()`` elements, together at most
    T doubles, come on top. That is fewer than ``n_a n_b + 3 n_b^2 + 5 T``
    doubles. When few pairs reach the maximum, as on the polygon states,
    pass 1 sets the peak at ``n_a n_b + n_b^2 + T`` doubles and the two
    buffers: 3 n^2 for n_a = n_b = n >= 128.
    """
    ga = 2.0 * state.model_a.ray_effects - state.model_a.unit_effect
    # one model on both sides gives both sides the same +-1 effects
    gb = (ga if state.model_b is state.model_a
          else 2.0 * state.model_b.ray_effects - state.model_b.unit_effect)
    e = ga @ state.matrix @ gb.T
    n_a, n_b = e.shape
    if not n_a or not n_b:
        raise ValueError(f"the {'first' if not n_a else 'second'} side has no "
                         "ray-extremal effect to scan")
    # pass 1 spreads the budget evenly over as many blocks as the square needs
    square = n_a * n_b * n_b
    per_block = -(-square // -(-square // _SCAN_BLOCK_ELEMENTS))

    # Pass 1, over blocks of rows j0 in [lo, hi), each against the columns
    # j1 >= lo: table[j0, j1] = fl(max |A| + max |B|), the pair's best |S|
    # in either order. Entries below the diagonal outside the blocks stay
    # 0, which reaches the maximum only when every pair is at 0.
    table = np.zeros((n_b, n_b))
    lo = 0
    while lo < n_b:
        hi = min(n_b, lo + max(1, per_block // (n_a * (n_b - lo))))
        x, y = e[:, lo:hi, None], e[:, None, lo:]
        # one temporary, in place: fresh ones per step fault in new pages
        t = x + y
        np.abs(t, out=t)
        top = t.max(axis=0)
        np.subtract(x, y, out=t)
        np.abs(t, out=t)
        np.add(top, t.max(axis=0), out=table[lo:hi, lo:])
        # free the block before the next one is made
        del t
        lo = hi
    best = float(table.max())

    # Pass 2, over the candidates in both orders, in row-major order.
    mask = table == best
    del table
    mask |= mask.T
    cand_j0, cand_j1 = mask.nonzero()
    del mask
    chunk = max(1, _SCAN_BLOCK_ELEMENTS // n_a)
    starts = range(0, len(cand_j0), chunk)
    # candidates that fit one chunk give both searches the same A and B
    sums = _candidate_sums(e, cand_j0, cand_j1) if len(starts) == 1 else None

    def first_hit(value: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> tuple[int, int]:
        """The first row, then candidate, where ``value(A, B)`` reaches best.

        No value exceeds best, so a chunk's first maximum in row-major order
        is its first hit; a later chunk wins only with an earlier row.
        """
        hit = (n_a, 0)
        for lo in starts:
            v = value(*(sums or _candidate_sums(e, cand_j0[lo:lo + chunk],
                                                cand_j1[lo:lo + chunk])))
            r, c = divmod(int(v.argmax()), v.shape[1])
            if v[r, c] == best and r < hit[0]:
                hit = (r, lo + c)
        return hit

    i0, _ = first_hit(lambda a, b: np.abs(a) + np.abs(b).max(axis=0))
    i1, k = first_hit(lambda a, b: np.abs(a[i0] + b))
    return best, (i0, i1, int(cand_j0[k]), int(cand_j1[k]))


def chsh_max_bruteforce(n: int) -> tuple[float, tuple[int, int, int, int]]:
    """CHSH maximum of the n-vertex entangled state by exhaustive scan."""
    return chsh_max_over_settings(max_entangled(n))


# -- analytic CHSH maximum ----------------------------------------------------
#
# In angle coordinates the scan above becomes: pick alpha_x from the first
# side's admissible angles and beta_y from the second side's, and evaluate
#
#   even n:  S = sec(pi/n) |sum_xy (-1)^{xy} cos(alpha_x - beta_y)|
#   odd n:   S = 2/(1+sec)^2 |(sec-1)^2 + 2 sec sum_xy (-1)^{xy} cos(alpha_x - beta_y)|
#
# with sec = sec(pi/n). Admissible angles are multiples of 2 pi / n on the
# first side; on the second side, odd multiples of pi/n for even n and
# multiples of 2 pi / n for odd n. The unconstrained optimum of the cosine
# sum is reached by two angle quadruples (one maximizing, one minimizing the
# sum); the constrained optimum is obtained by rounding each free angle to
# its admissible neighbours and taking the best combination.

_FREE_ANGLE_SETS = (
    (0.0, math.pi / 2, math.pi / 4, -math.pi / 4),
    (0.0, math.pi / 2, -3 * math.pi / 4, 3 * math.pi / 4),
)


def _chsh_at_angles(n: int, a0: float, a1: float, b0: float, b1: float) -> float:
    sigma = (
        math.cos(a0 - b0) + math.cos(a0 - b1)
        + math.cos(a1 - b0) - math.cos(a1 - b1)
    )
    sec = 1.0 / math.cos(math.pi / n)
    if n % 2 == 0:
        return abs(sec * sigma)
    return (2.0 / (1.0 + sec) ** 2) * abs((sec - 1.0) ** 2 + 2.0 * sec * sigma)


def _admissible_neighbours(target: float, step: float, offset: float) -> tuple[float, float]:
    k = math.floor((target - offset) / step)
    return (offset + k * step, offset + (k + 1) * step)


def chsh_max_analytic(n: int) -> float:
    """CHSH maximum of the n-vertex entangled state, no exhaustive scan.

    Rounds both free-optimum angle quadruples to the admissible polygon
    angles (both neighbours of each angle) and returns the best evaluation;
    agrees with :func:`chsh_max_bruteforce` to within float error.
    """
    n = _vertex_count(n)
    step = 2.0 * math.pi / n
    b_offset = math.pi / n if n % 2 == 0 else 0.0
    best = 0.0
    for a0t, a1t, b0t, b1t in _FREE_ANGLE_SETS:
        for a0 in _admissible_neighbours(a0t, step, 0.0):
            for a1 in _admissible_neighbours(a1t, step, 0.0):
                for b0 in _admissible_neighbours(b0t, step, b_offset):
                    for b1 in _admissible_neighbours(b1t, step, b_offset):
                        best = max(best, _chsh_at_angles(n, a0, a1, b0, b1))
    return best


def chsh_max_closed_form(n: int) -> float:
    """Closed-form CHSH maximum keyed on the residue class n mod 8.

    Serves as a cross-check of :func:`chsh_max_analytic`; the residue classes
    come from how the free-optimum angles round to the admissible grid. The
    brackets for classes 3 and 5 carry a "+ 2" term that a well-known printed
    version of this table drops; the forms here are re-derived from the
    rounded angles and agree with the exhaustive scan for every n.
    """
    n = _vertex_count(n)
    x = n % 8
    sec = 1.0 / math.cos(math.pi / n)
    q = math.pi / (4.0 * n)
    if x == 0:
        return 2.0 * math.sqrt(2.0)
    if x == 4:
        return 2.0 * math.sqrt(2.0) * sec
    if x == 2:
        return sec * (3.0 * math.cos((n + 2) * q) + math.sin((n + 6) * q))
    if x == 6:
        return sec * (math.cos((n + 6) * q) + 3.0 * math.sin((n + 2) * q))
    pref = 2.0 / (1.0 + sec) ** 2
    if x == 1:
        return pref * (1.0 + sec * (6.0 * math.sin((n + 1) * q)
                                    + 2.0 * math.cos((n + 3) * q) + sec - 2.0))
    if x == 7:
        return pref * (1.0 + sec * (6.0 * math.cos((n + 1) * q)
                                    + 2.0 * math.sin((n + 3) * q) + sec - 2.0))
    if x == 3:
        return pref * (sec * (6.0 * math.cos((n + 1) * q)
                              + 2.0 * math.sin((n + 3) * q) + 2.0 - sec) - 1.0)
    # x == 5
    return pref * (sec * (6.0 * math.sin((n + 1) * q)
                          + 2.0 * math.cos((n + 3) * q) + 2.0 - sec) - 1.0)


# -- distillation -------------------------------------------------------------


def _pattern_table(predicate: Callable[..., np.ndarray]) -> CorrelationTable:
    """Dichotomic 2x2-setting table, weight 1/2 where ``predicate`` holds on its indices."""
    probs = np.where(predicate(*np.indices((2, 2, 2, 2))), 0.5, 0.0)
    return CorrelationTable(probs, (2, 2), (2, 2))


@functools.cache
def _distill_components() -> tuple[CorrelationTable, CorrelationTable]:
    """P_box and P_corr of :func:`distill_with_table`, built once per process.

    Neither depends on n, and a table is immutable, so every call can share
    the same two objects.
    """
    return (_pattern_table(lambda a, b, x, y: (a ^ b) == (x & (1 - y))),
            _pattern_table(lambda a, b, x, y: a == b))


def distill_with_table(
    n: int, tol: float | None = None,
) -> tuple[float, CorrelationTable, CorrelationTable, CorrelationTable]:
    """Noise decomposition of the even-n entangled correlations on two settings.

    With settings {e_1, u-e_1} and {e_2, u-e_2} on both sides, checked
    within ``tol``, the measured table equals
    ``eps * P_box + (1 - eps) * P_corr`` with ``eps = 1 - cos(2 pi / n)``,
    where P_box is the extremal box winning ``a XOR b == x AND (NOT y)`` and
    P_corr is the perfectly correlated local table. Verifies the identity
    entrywise to 1e-10 and the single mixed correlator
    E(1, 0) == 2 cos(2 pi / n) - 1 to 1e-12 before returning
    (eps, P_box, P_corr, measured table).
    """
    if n < 4 or n % 2 != 0:
        raise ValueError("the decomposition applies to even n >= 4")
    state = max_entangled(n)
    settings = ray_settings(state.model_a, 2, tol=tol)
    table = correlations_from_state(state, settings, settings)
    eps = 1.0 - math.cos(2.0 * math.pi / n)
    p_box, p_corr = _distill_components()
    combined = eps * p_box.probs + (1.0 - eps) * p_corr.probs
    err = float(np.abs(table.probs - combined).max())
    if err > 1e-10:
        raise ArithmeticError(f"decomposition identity violated by {err!r}")
    e10 = correlator(table, 1, 0)
    expected = 2.0 * math.cos(2.0 * math.pi / n) - 1.0
    if abs(e10 - expected) > 1e-12:
        raise ArithmeticError(f"mixed correlator {e10!r} != {expected!r}")
    return eps, p_box, p_corr, table


def distill_decompose(n: int) -> tuple[float, CorrelationTable, CorrelationTable]:
    """(eps, P_box, P_corr) of :func:`distill_with_table` at the default tolerance."""
    return distill_with_table(n)[:3]

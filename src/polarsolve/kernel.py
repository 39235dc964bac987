"""Scoring and tie-breaking of moves, shared by every solver.

best_candidate picks among the two-period solvers' candidates; greedy
maximises over grid destinations, and every Bellman sweep is one
greedy_step. Both break ties by one rule, _wins_tie: at an equal score,
b beats a if it is closer to the source p; if equally close, if it is
closer to 1/2. best_candidate folds it over the candidates, so a full tie
keeps the first listed. In greedy only the nearest tied destination at or
below the source (lo) and the nearest at or above it (hi) can be closest;
the one on the mover's preferred side goes in as a, so it keeps a full
tie. Grid displacements are exact, so distinct points lo <= src <= hi tie
on both rungs only if src is 1/2 and they are 1/2 -+ d: that equidistant
pair goes to the mover's preferred side. The rule is symmetric under
p -> 1 - p with the preferred side swapped, so mirror symmetry of the
solutions is exact, not approximate.

greedy scores source i's move to j as S[i, j] = fl(b[j] - c(p_i - p_j)),
each cost computed where it is used: no n x n array is held. Per source
it finds the lowest maximiser L, the highest U and best = S[i, L]; the
source is tied when L < U, and the first step that applies settles it:
1. src ties itself: lo = hi = src. 2. L > src: lo = hi = L.
3. U < src: lo = hi = U. 4. Otherwise lo and hi are the nearest ties on
each side, found among the source's scores over [L, U].

Monotone scan. For a quadratic cost, a < i and j < j', the real scores
satisfy R[i, j'] - R[i, j] - (R[a, j'] - R[a, j]) = 2k (p_i - p_a)(p_j' - p_j)
>= 2k h^2, h the smallest grid spacing, and a float score is within
e = u (max|b| + 3k) of its real one (u = 2^-53; the cost's two roundings
err by 2uk, the subtraction by u |b - c|). Let a < i < b be sources. For
j < U(a), S[a, U(a)] >= S[a, j] gives R[i, U(a)] - R[i, j] >= 2k h^2 - 2e,
so if 2k h^2 > 4e then S[i, U(a)] > S[i, j]; likewise no j > L(b) ties
or beats L(b). So all of i's maximisers lie in [U(a), L(b)]. greedy
scores the coarse sources (every floor(sqrt(m))-th of the m asked for,
and the last) over every destination and each other source over the
range its coarse neighbours bound: about m^1.5 moves, as the ranges
telescope. It tests 2k h^2 > 4 err with err = 4e plus the smallest
normal number (for an underflow); at n = 1001 and k >= 0.5 the margin is
about 8 orders of magnitude. At k = 0 every score is b[j]: all sources
share one tie set, the maximisers of b, searched for step 4. A NaN in b
is every source's first maximum, as np.argmax takes it. A custom cost,
an inf in b or a k below the margin takes the fallback: every
destination of every source, in blocks of rows.

Gaps: best minus the runner-up, the best score at j != L; 0 exactly
where a tie was settled. solve_infinite reads exact gaps (min_margin,
exact_ties) off its last step. A coarse source's runner-up is in its row,
another's in its range unless L sits at an end of it. The best move in
[0, L - 1] also ascends with the source (Topkis, on ascending constraint
sets), so by the argument above it lies between the highest such move of
row a and the lowest of row b; the same holds for [U + 1, n - 1]. Those
ranges are scanned for the sources at an end. CertifiedSteps records
lower bounds instead (exact False): if L = U(a), every j < U(a) scores
at least 2k h (p_i - p_a) - 4e below S[i, U(a)], by the sum above with
j' = U(a), and if L = L(b), every j > L(b) at least 2k h (p_b - p_i) - 4e
below; the recorded gap is the least of those and the in-range gap, with
err for e.

CertifiedSteps skips the scoring of a source whose destination a
remembered step r proves still wins strictly at step t. The costs C are
the same at every step; only the bases b (stage + beta * u) move. With
S = fl(b - C), j* the destination source i took at r, h its recorded gap
(a full call's fl(S_r[i, j*] - runner-up), or a proved bound, at most
S_r[i, j*] - S_r[i, j] for every j != j* in exact arithmetic) and
D = fl(b_t - b_r), source i keeps j* iff h > thr, where
thr = fl(fl(max D - D[j*]) + 6.5 eps), eps = spacing(M) and
M = 2 fl(max|b_t| + max|b_r| + c(1)), c(1) the largest cost. A float sum
of non-negative terms is monotone in each and more than half the exact
sum, so M exceeds every |b[j] - C[i, j]| and |b_t[j] - b_r[j]| and bounds
every gap of S_r. A rounding whose exact result lies within M errs by at
most eps / 2, one within 2M by at most eps. The 6.5 eps are: eps / 2 for
a full call's gap, which lies within M; 2 eps for the four roundings
fl(b[j] - C[i, j]) of j* and j at r and t (C cancels from the unrounded
differences); eps for D's two entries; eps for fl(max D - D[j*]); eps for
adding the slop (thr < h <= 2M when the test passes); eps for the new
bound fl(h - thr). So S_t[i, j*] - S_t[i, j] >= h - thr + eps >=
fl(h - thr) > 0 for every j != j*: j* is the unique float argmax at t,
the tie rule is never reached, greedy would return j* with best
fl(b_t[j*] - C[i, j*]), and fl(h - thr), a proved bound, lets
certificates chain. A tie records a gap of 0, which never passes; a NaN,
or an overflow to inf in M, fails the comparison, so its source is
rescored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid
from .model import QUADRATIC, CostSpec, ModelParams, evaluate_cost, stage_payoff


@dataclass(frozen=True)
class CandidateEvaluation:
    """One candidate move and its objective, arrays of the shape of the solver's points."""

    candidate: np.ndarray
    objective: np.ndarray
    provenance: str


def _wins_tie(b, a, p):
    """Where b beats a at an equal score: closer to p, or as close and closer to 1/2."""
    move_b, move_a = np.abs(b - p), np.abs(a - p)
    return (move_b < move_a) | ((move_b == move_a) & (np.abs(b - 0.5) < np.abs(a - 0.5)))


def best_candidate(evaluations, p):
    """Per point, the highest objective; ties go by the module's tie rule, then to the first listed.

    evaluations hold arrays over the points p. Returns (candidate,
    objective, evaluations), arrays of p's shape.
    """
    best, top = evaluations[0].candidate, evaluations[0].objective
    for e in evaluations[1:]:
        better = (e.objective > top) | ((e.objective == top) & _wins_tie(e.candidate, best, p))
        best = np.where(better, e.candidate, best)
        top = np.where(better, e.objective, top)
    return best, top, tuple(evaluations)


def move_cost(cost: CostSpec, grid: Grid, idx: np.ndarray) -> np.ndarray:
    """c(p_i - p_idx[i]) for every source i, bit-equal to the cost greedy scores the move with."""
    return evaluate_cost(cost, grid.points - grid.points[idx])


def stage_payoffs(params: ModelParams, grid: Grid) -> list:
    """The mover's stage payoff at every grid point, for s = 0 and s = 1."""
    return [stage_payoff(s, grid.points, params.H) for s in (0, 1)]


# Bytes of scores a scan holds at once: a block this size stays in a core's cache while it is reduced.
_BLOCK_BYTES = 128 * 1024


def _plan(m: int):
    """Positions of m sources: coarse (every floor(sqrt(m))-th, and the last), the rest, and their coarse below."""
    step = max(1, int(np.sqrt(m)))
    fine = np.flatnonzero(np.arange(m - 1) % step)
    return np.append(np.arange(0, m - 1, step), m - 1), fine, fine // step


def _blocks(rows, lengths):
    """rows in consecutive parts of at most _BLOCK_BYTES / 8 scores (rows[r] has lengths[r]), or of one row past it."""
    cuts = np.searchsorted(np.cumsum(lengths), np.arange(_BLOCK_BYTES // 8, lengths.sum(), _BLOCK_BYTES // 8))
    return filter(len, np.split(rows, cuts))


def _scores(base, cost, pts, src, lo, hi):
    """(scores, cols, starts): the scores of each src[r] over lo[r]..hi[r], end to end from starts[r]."""
    lengths = hi - lo + 1
    starts = np.concatenate(([0], np.cumsum(lengths[:-1])))
    cols = np.repeat(lo - starts, lengths)
    cols += np.arange(cols.size)
    x = np.repeat(pts[src], lengths)
    x -= pts[cols]
    scores = evaluate_cost(cost, x)
    return np.subtract(base[cols], scores, out=scores), cols, starts


def _extremes(scores, starts):
    """Per segment of scores: the score at its first maximum, and the positions of its first and last maximum."""
    ends = np.append(starts[1:], scores.size)
    hits = np.flatnonzero(scores == np.repeat(np.maximum.reduceat(scores, starts), ends - starts))
    first = hits[np.searchsorted(hits, starts)]
    return scores[first], first, hits[np.searchsorted(hits, ends) - 1]


def _scan(base, cost, pts, src, rows, out, lo=None, hi=None):
    """Score src[rows] over lo[rows]..hi[rows], or every destination, in blocks of _BLOCK_BYTES.

    Writes each one's L, U, best and runner-up (the best score other than
    at L among those scored) into out.
    """
    L, U, top, runner = out
    if lo is None:
        block = max(1, _BLOCK_BYTES // (8 * base.size))
        for part in np.split(rows, np.arange(block, rows.size, block)):
            scores = evaluate_cost(cost, np.subtract.outer(pts[src[part]], pts))
            np.subtract(base, scores, out=scores)
            first, r = scores.argmax(axis=1), np.arange(part.size)
            L[part], U[part], top[part] = first, base.size - 1 - scores[:, ::-1].argmax(axis=1), scores[r, first]
            scores[r, first] = -np.inf
            runner[part] = scores.max(axis=1)
        return
    for part in _blocks(rows, hi[rows] - lo[rows] + 1):
        scores, cols, starts = _scores(base, cost, pts, src[part], lo[part], hi[part])
        top[part], first, last = _extremes(scores, starts)
        L[part], U[part] = cols[first], cols[last]
        scores[first] = -np.inf
        runner[part] = np.maximum.reduceat(scores, starts)


def _side(base, cost, pts, src, lo, hi):
    """(lowest, highest maximiser, max) over lo..hi per source: n - 1, 0 and -inf where lo > hi."""
    first, last, top = np.full(src.size, base.size - 1), np.zeros(src.size, np.intp), np.full(src.size, -np.inf)
    some = np.flatnonzero(lo <= hi)
    if some.size:
        scores, cols, starts = _scores(base, cost, pts, src[some], lo[some], hi[some])
        top[some], f, l = _extremes(scores, starts)
        first[some], last[some] = cols[f], cols[l]
    return first, last, top


def greedy(base, cost: CostSpec, grid: Grid, prefer_right: bool, gap=None, rows=None, exact=True, fallbacks=None):
    """Per source i, the best destination j of base[j] - c(p_i - p_j).

    Returns (idx, best). A gap array, if given, receives each source's
    best score minus its runner-up, 0 exactly where a tie was settled;
    with exact False, a proved lower bound of it. rows, if given, is an
    array of sources: only those are scored, and idx, best and gap run
    over them, each entry equal to the full call's at its source.
    fallbacks, if given, is a one-element list counting the calls that
    took the fallback's full-row scan.
    """
    n, pts = base.size, grid.points
    src, back = (np.arange(n), slice(None)) if rows is None else np.unique(rows, return_inverse=True)
    scale, k = np.abs(base).max(), cost.k if cost.kind == QUADRATIC else np.nan
    nan, ties = np.isnan(scale), None
    if nan or k == 0.0:
        ties = np.flatnonzero(np.isnan(base))[:1] if nan else np.flatnonzero(base == base.max())
        L, U = np.full(src.size, ties[0]), np.full(src.size, ties[-1])
        best = base[ties[0]] - evaluate_cost(cost, pts[src] - pts[ties[0]])
        if gap is not None:  # the runner-up is a second tie, else (k = 0) the best other b[j]; NaN stays NaN
            runner = best if ties.size > 1 or nan else np.delete(base, ties[0]).max()
            gap[:] = (best - runner)[back]
    else:
        L, U, best, lead = _maximise(base, cost, pts, src, scale, k, gap is not None, exact, fallbacks)
        if gap is not None:
            gap[:] = lead[back]
    idx = _settle(base, cost, pts, prefer_right, src, L, U, best, ties)
    return idx[back], best[back]


def _maximise(base, cost, pts, src, scale, k, gaps, exact, fallbacks):
    """(L, U, best, gap) of each source by the monotone scan, or the fallback; gap is None unless gaps."""
    m, n, h = src.size, base.size, np.diff(pts).min()
    err = 2.0**-51 * scale + 3.0 * 2.0**-51 * k + 2.0**-1022  # spelled not to overflow
    lo, hi = np.zeros(m, np.intp), np.full(m, n - 1)
    L, U, best, runner = out = np.empty(m, np.intp), np.empty(m, np.intp), np.empty(m), np.empty(m)
    if not (m and k * h * h > 2.0 * err):
        _scan(base, cost, pts, src, np.arange(m), out)
        if fallbacks is not None:
            fallbacks[0] += 1
        return L, U, best, best - runner if gaps else None
    coarse, fine, below = _plan(m)
    _scan(base, cost, pts, src, coarse, out)
    a, b = coarse[below], coarse[below + 1]
    lo[fine], hi[fine] = U[a], L[b]
    _scan(base, cost, pts, src, fine, out, lo, hi)
    if not gaps:
        return L, U, best, None
    at_lo, at_hi = L[fine] == lo[fine], L[fine] == hi[fine]
    if exact:  # the coarse sources' best moves in [0, L - 1] and [U + 1, n - 1] bound the others'
        left_lo, left_hi, _ = _side(base, cost, pts, src[coarse], np.zeros(coarse.size, np.intp), L[coarse] - 1)
        right_lo, right_hi, _ = _side(base, cost, pts, src[coarse], U[coarse] + 1, np.full(coarse.size, n - 1))
        left_end = np.where(at_lo, np.minimum(left_lo[below + 1], lo[fine] - 1), -1)
        left = _side(base, cost, pts, src[fine], left_hi[below], left_end)[2]
        right_end = np.where(at_hi, right_lo[below + 1], -1)
        right = _side(base, cost, pts, src[fine], np.maximum(right_hi[below], hi[fine] + 1), right_end)[2]
        runner[fine] = np.maximum(runner[fine], np.maximum(left, right))
        return L, U, best, best - runner
    slope, lead = k * (2.0 * h), best - runner
    ends = np.where(at_lo, pts[src[fine]] - pts[src[a]], np.inf)
    ends = np.minimum(ends, np.where(at_hi, pts[src[b]] - pts[src[fine]], np.inf))
    lead[fine] = np.minimum(lead[fine], slope * ends - 4.0 * err)
    return L, U, best, lead


def _settle(base, cost, pts, prefer_right, src, L, U, best, ties):
    """idx per source from its lowest and highest maximiser, by the module docstring's steps 1 to 4.

    ties, if given, is the one tie set every source shares.
    """
    idx = L.copy()
    at = np.flatnonzero(L < U)
    if not at.size:
        return idx
    s = src[at]
    # 1. The scan's own subtraction, so this is s's score there.
    stays = base[s] - evaluate_cost(cost, pts[s] - pts[s]) == best[at]
    idx[at[stays]] = s[stays]
    keep = ~stays & (L[at] < s)  # 2. idx = L > s stays
    at, s = at[keep], s[keep]
    below = U[at] < s  # 3.
    idx[at[below]] = U[at[below]]
    at, s = at[~below], s[~below]
    lo, hi = np.empty(at.size, np.intp), np.empty(at.size, np.intp)
    if ties is None:  # 4.
        for part in _blocks(np.arange(at.size), U[at] - L[at] + 1):
            first, last, src_part = L[at[part]], U[at[part]], s[part]
            scores, cols, starts = _scores(base, cost, pts, src_part, first, last)
            hits = np.flatnonzero(scores == np.repeat(best[at[part]], last - first + 1))
            split = np.searchsorted(hits, starts + (src_part - first))  # the source itself is no tie
            lo[part], hi[part] = cols[hits[split - 1]], cols[hits[split]]
    else:
        split = np.searchsorted(ties, s)
        lo, hi = ties[split - 1], ties[split]
    near, far = (hi, lo) if prefer_right else (lo, hi)
    idx[at] = np.where(_wins_tie(pts[far], pts[near], pts[s]), far, near)
    return idx


def greedy_step(
    beta: float, stages: list, cost: CostSpec, continuation: np.ndarray, grid: Grid, gaps=None, fallbacks=None
):
    """One Bellman sweep over both states: (idx, best), one array each, as in greedy.

    The mover prefers the right in state 1. gaps, if given, has one row per state.
    """
    idx, best = [], []
    for s, stage in enumerate(stages):
        gap = None if gaps is None else gaps[s]
        i, b = greedy(stage + beta * continuation, cost, grid, s == 1, gap, fallbacks=fallbacks)
        idx.append(i)
        best.append(b)
    return idx, best


# Steps a CertifiedSteps remembers. An exact cycle of period P is certified
# against the same phase P steps back, and the longest MPE period measured
# (pi = 0.7, k = 10, n = 2001) is 26.
_RING = 32

# Past this share of failed certificates one full call replaces the
# rescoring. Over whole solves at n = 501, shares of 0.1 and 0.5 measured
# no faster.
_RESCORE_SHARE = 0.25


class CertifiedSteps:
    """greedy_step for the successive steps of one backward induction.

    Called with each step's continuation u, it returns greedy_step(beta,
    stages, cost, u, grid) bit for bit. It remembers the last _RING
    steps: u, and per state each source's destination and recorded gap.
    Each state's sources are certified against the remembered step whose
    u is nearest in sup norm (see the module docstring); only the others
    are rescored, through greedy's rows. A state goes straight to one
    full call when the reference cannot certify enough sources, and,
    after a failed certificate, until a reference nearer than that one
    turns up. Full calls and rescoring record lower-bound gaps. dense_calls
    counts full greedy calls, rescored_sources the sources rescored
    through rows, fallbacks[0] the calls that took the fallback.
    """

    def __init__(self, beta: float, stages: list, cost: CostSpec, grid: Grid):
        n, states = grid.n, len(stages)
        self.beta, self.stages, self.cost, self.grid = beta, stages, cost, grid
        self.dense_calls = 0
        self.rescored_sources = 0
        self.fallbacks = [0]
        self._steps = 0
        self._u = np.empty((_RING, n))
        self._idx = np.empty((_RING, states, n), dtype=np.intp)
        self._gap = np.empty((_RING, states, n))
        # Whether a remembered state has enough positive gaps to pass the share test.
        self._usable = np.zeros((_RING, states), dtype=bool)
        self._distance = np.empty((_RING, n))
        self._failed_at = [np.inf] * states  # reference distance of each state's last failed certificate
        self._max_cost = float(evaluate_cost(cost, 1.0))
        self._most_rescored = int(_RESCORE_SHARE * n)

    def __call__(self, u: np.ndarray):
        slot = self._steps % _RING
        ref, distance = self._reference(u)
        idx, best, usable = [], [], []
        for s, stage in enumerate(self.stages):
            base = stage + self.beta * u
            found = None
            # D grows with the distance, so a state tries again only nearer than its last failure.
            if ref is not None and self._usable[ref, s] and distance < self._failed_at[s]:
                found = self._certified(s, base, ref)
                self._failed_at[s] = distance if found is None else np.inf
            # ref may be this slot: its state s is read by now; u and usable are written last.
            if found is None:
                i, b = self._greedy(base, s, self._gap[slot, s])
                self.dense_calls += 1
            else:
                i, b, self._gap[slot, s] = found
            idx.append(i)
            best.append(b)
            self._idx[slot, s] = i
            usable.append(np.count_nonzero(self._gap[slot, s] > 0.0) >= u.size - self._most_rescored)
        self._u[slot] = u
        self._usable[slot] = usable
        self._steps += 1
        return idx, best

    def _greedy(self, base, s, gap, rows=None):
        """greedy for state s, recording lower-bound gaps."""
        return greedy(base, self.cost, self.grid, s == 1, gap, rows, exact=False, fallbacks=self.fallbacks)

    def _reference(self, u: np.ndarray):
        """(slot, distance): the remembered u nearest u in sup norm among slots that can certify.

        (None, None) if none can.
        """
        filled = min(self._steps, _RING)
        usable = self._usable[:filled].any(axis=1)
        if not usable.any():
            return None, None
        distance = self._distance[:filled]
        np.subtract(self._u[:filled], u, out=distance)
        np.abs(distance, out=distance)
        farthest = distance.max(axis=1)
        farthest[~usable] = np.inf
        ref = int(farthest.argmin())
        return ref, farthest[ref]

    def _certified(self, s: int, base: np.ndarray, ref: int):
        """(idx, best, gap) of state s, reusing slot ref's destinations; None if too many fail."""
        ref_base = self.stages[s] + self.beta * self._u[ref]
        dest, gap = self._idx[ref, s], self._gap[ref, s]
        shift = base - ref_base
        with np.errstate(over="ignore"):  # an overflow to inf makes every source fail
            scale = 2.0 * (np.abs(base).max() + np.abs(ref_base).max() + self._max_cost)
            slop = 6.5 * np.spacing(scale)
        need = (shift.max() - shift[dest]) + slop
        certified = gap > need
        if base.size - np.count_nonzero(certified) > self._most_rescored:
            return None
        failed = np.flatnonzero(~certified)
        idx = dest.copy()
        best = base[dest] - move_cost(self.cost, self.grid, dest)
        new_gap = gap - need
        if failed.size:
            rescored = np.empty(failed.size)
            idx[failed], best[failed] = self._greedy(base, s, rescored, failed)
            new_gap[failed] = rescored
            self.rescored_sources += failed.size
        return idx, best, new_gap


def expected_next(pi: float, v0: np.ndarray, v1: np.ndarray) -> np.ndarray:
    """Expected next-period value of each landing point, before the state draws."""
    return pi * v1 + (1.0 - pi) * v0


def sup_change(new: list, old: list) -> float:
    """Largest absolute change over a list of tables."""
    # np.max, unlike the builtin max(0.0, nan), lets a NaN through.
    return float(np.max([np.abs(a - b).max() for a, b in zip(new, old)]))

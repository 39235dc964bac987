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

greedy's block loop only scores: per source it keeps the first maximum,
which is the lowest tied destination, and the runner-up score. A source
is tied when the two are equal, and one pass after the loop settles the
tied sources src by the first step that applies:
1. src ties itself: lo = hi = src.
2. The lowest tie is above src: nothing at or below src ties, so
   lo = hi = that tie.
3. The highest tie, one reversed argmax over the source's scores scored
   again, is below src: nothing above src ties, so lo = hi = that tie.
4. Ties lie strictly on both sides: lo and hi are the nearest tie on
   each side, searched for these sources only, and the rule decides.
Steps 1 and 2 are O(1) per source; steps 3 and 4 score its row again.
At k = 0 nearly every source ties. At the stationary state of a k = 0
MPE half of the tied sources stay put, a quarter each take steps 2 and
3, and none reaches step 4.

Only this module reads the cost matrix. greedy takes its rows in blocks
within a fixed byte budget, so the matrix is the only n x n array a
solver holds; move_cost scores one given move per source without it.

CertifiedSteps skips the scoring of a source whose destination a
remembered step r proves still wins strictly at step t. The cost matrix
C is the same at every step, and only the bases b (stage + beta * u)
move. Let S[i, j] = fl(b[j] - C[i, j]) be the float scores, j* the
destination source i took at r, and h its recorded gap: a dense call's
fl(S_r[i, j*] - runner-up), or a bound a certificate proved, at most
S_r[i, j*] - S_r[i, j] for every j != j* in exact arithmetic. With
D = fl(b_t - b_r), source i keeps j* iff h > thr, where
thr = fl(fl(max D - D[j*]) + 6.5 eps). Here eps = spacing(M), with
M = 2 fl(max|b_t| + max|b_r| + max|C|). A float sum of non-negative
terms is monotone in each of them and more than half the exact sum, so M
exceeds every |b[j] - C[i, j]| and every |b_t[j] - b_r[j]|, and bounds
every gap of S_r (at most twice max|S_r|). A rounding whose exact result
lies within M errs by at most eps / 2, one within 2M by at most eps. The
6.5 eps are:
- eps / 2 for the rounding of a dense gap, which lies within M;
- 2 eps for the four roundings fl(b[j] - C[i, j]), of j* and j at r and
  t (C cancels exactly from the unrounded differences);
- eps for the two entries of D, those of j* and j;
- eps for fl(max D - D[j*]);
- eps for adding the slop: thr < h <= 2M when the test passes, so its
  exact value is below 2M;
- eps for the new bound fl(h - thr).
Together, S_t[i, j*] - S_t[i, j] >= h - thr + eps >= fl(h - thr) > 0 for
every j != j*. So j* is the unique float argmax at t, the tie rule is
never reached, and greedy would return j* with the best score
fl(b_t[j*] - C[i, j*]); fl(h - thr) is a proved bound, so certificates
chain. A tie records a gap of 0, which never passes. A NaN, or an
overflow to inf in M, fails the comparison, so its source is rescored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid
from .model import CostSpec, ModelParams, evaluate_cost, stage_payoff


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


def cost_matrix(cost: CostSpec, grid: Grid) -> np.ndarray:
    """costs[i, j] = c(p_i - p_j): row i holds every move out of source i.

    Grid displacements are exact and c depends on |x| only, so the matrix is exactly symmetric.
    """
    disp = grid.points[:, None] - grid.points[None, :]
    return evaluate_cost(cost, disp)


def move_cost(cost: CostSpec, grid: Grid, idx: np.ndarray) -> np.ndarray:
    """c(p_i - p_idx[i]) for every source i, bit-equal to both cost_matrix entries of the move."""
    return evaluate_cost(cost, grid.points - grid.points[idx])


def stage_payoffs(params: ModelParams, grid: Grid) -> list:
    """The mover's stage payoff at every grid point, for s = 0 and s = 1."""
    return [stage_payoff(s, grid.points, params.H) for s in (0, 1)]


# Bytes of scores the greedy kernel holds at once. A block of rows this
# size stays in a core's cache while it is reduced.
_BLOCK_BYTES = 256 * 1024


def greedy(
    base: np.ndarray,
    costmat: np.ndarray,
    grid: Grid,
    prefer_right: bool,
    gap: np.ndarray | None = None,
    rows: np.ndarray | None = None,
):
    """Per source i, the best destination j of base[j] - costmat[i, j].

    Returns (idx, best). A gap array, if given, receives each source's
    best score minus its runner-up: 0 exactly where a tie was settled.
    rows, if given, is an array of sources: only those are scored, and
    idx, best and gap run over them, each entry equal to the full call's
    at its source. No n x n array of scores is ever formed.

    The block loop only scores; the tied sources are settled after it,
    each by the first of the module docstring's four steps that applies:
    staying put, the lowest tie above the source, the highest tie below
    it, or the tie rule between the nearest ties on both sides.
    """
    n = base.size
    m = n if rows is None else rows.size
    block = max(1, _BLOCK_BYTES // (8 * n))
    buf = np.empty((min(block, m), n))
    best = np.empty(m)
    idx = np.empty(m, dtype=np.intp)
    runner_up = np.empty(m) if gap is None else gap
    for start, stop, scores in _score_blocks(base, costmat, rows, m, buf):
        r = np.arange(stop - start)
        block_idx = idx[start:stop] = scores.argmax(axis=1)
        best[start:stop] = scores[r, block_idx]
        # A source is tied when its best score recurs with the argmax masked.
        scores[r, block_idx] = -np.inf
        scores.max(axis=1, out=runner_up[start:stop])
    _settle_ties(base, costmat, grid, prefer_right, idx, best, runner_up, rows, buf)
    if gap is not None:
        np.subtract(best, gap, out=gap)  # gap held the runner-up scores
    return idx, best


def _score_blocks(base, costmat, sources, m, buf):
    """(start, stop, scores) per block of buf's rows, scores[r] = base - costmat[sources[start + r]].

    sources None stands for every source, 0 to m - 1.
    """
    for start in range(0, m, buf.shape[0]):
        stop = min(start + buf.shape[0], m)
        moves = costmat[start:stop] if sources is None else costmat[sources[start:stop]]
        yield start, stop, np.subtract(base, moves, out=buf[: stop - start])


def _settle_ties(base, costmat, grid, prefer_right, idx, best, runner_up, rows, buf):
    """Settle idx where runner_up equals best, by the module docstring's steps 1 to 4."""
    at = np.flatnonzero(runner_up == best)
    if not at.size:
        return
    n = base.size
    src = at if rows is None else rows[at]
    # 1. The block loop's own subtraction, so this is src's score there.
    stays = base[src] - costmat[src, src] == best[at]
    idx[at[stays]] = src[stays]
    # 2. idx > src is the lowest tie and stays.
    tie_below = ~stays & (idx[at] < src)
    at, src = at[tie_below], src[tie_below]
    # 3. A tied row holds no NaN (argmax would have taken it, and NaN equals
    # nothing), so its last maximum is its highest tie.
    top = np.empty(at.size, dtype=np.intp)
    for start, stop, scores in _score_blocks(base, costmat, src, at.size, buf):
        top[start:stop] = n - 1 - scores[:, ::-1].argmax(axis=1)
    all_below = top < src
    idx[at[all_below]] = top[all_below]
    at, src = at[~all_below], src[~all_below]
    # 4.
    lo, hi = np.empty(at.size, dtype=np.intp), np.empty(at.size, dtype=np.intp)
    cols = np.arange(n)
    for start, stop, scores in _score_blocks(base, costmat, src, at.size, buf):
        tied = scores == best[at[start:stop], None]
        source = src[start:stop, None]
        hi[start:stop] = (tied & (cols > source)).argmax(axis=1)
        lo[start:stop] = n - 1 - (tied & (cols < source))[:, ::-1].argmax(axis=1)
    pts = grid.points
    near, far = (hi, lo) if prefer_right else (lo, hi)
    idx[at] = np.where(_wins_tie(pts[far], pts[near], pts[src]), far, near)


def greedy_step(
    beta: float, stages: list, costmat: np.ndarray, continuation: np.ndarray, grid: Grid, gaps=None
):
    """One Bellman sweep over both states: (idx, best), one array each, as in greedy.

    The mover prefers the right in state 1. gaps, if given, has one row per state.
    """
    idx, best = [], []
    for s, stage in enumerate(stages):
        gap = None if gaps is None else gaps[s]
        i, b = greedy(stage + beta * continuation, costmat, grid, prefer_right=(s == 1), gap=gap)
        idx.append(i)
        best.append(b)
    return idx, best


# Steps a CertifiedSteps remembers. An exact cycle of period P is certified
# against the same phase P steps back, and the longest MPE period measured
# (pi = 0.7, k = 10, n = 2001) is 26.
_RING = 32

# Past this share of failed certificates one dense call replaces the
# rescoring. At n = 501, rescoring a quarter of the sources costs about a
# third of a dense call, and a half about 0.7, before the certificate's own
# O(n) passes; a share of 1/2 measured no faster over whole solves.
_RESCORE_SHARE = 0.25


class CertifiedSteps:
    """greedy_step for the successive steps of one backward induction.

    Called with each step's continuation u, it returns greedy_step(beta,
    stages, costmat, u, grid) bit for bit. It remembers the last _RING
    steps: u, and per state each source's destination and recorded gap.
    Each state's sources are certified against the remembered step whose
    u is nearest in sup norm (see the module docstring); only the others
    are rescored, through greedy's rows. A state goes straight to one
    dense call when the reference cannot certify enough sources, and,
    after a failed certificate, until a reference nearer than that one
    turns up. dense_calls counts full greedy calls, rescored_sources the
    sources rescored through rows.
    """

    def __init__(self, beta: float, stages: list, costmat: np.ndarray, grid: Grid):
        n, states = grid.n, len(stages)
        self.beta, self.stages, self.costmat, self.grid = beta, stages, costmat, grid
        self.dense_calls = 0
        self.rescored_sources = 0
        self._steps = 0
        self._u = np.empty((_RING, n))
        self._idx = np.empty((_RING, states, n), dtype=np.intp)
        self._gap = np.empty((_RING, states, n))
        # Whether a remembered state has enough positive gaps to pass the share test.
        self._usable = np.zeros((_RING, states), dtype=bool)
        self._distance = np.empty((_RING, n))
        self._failed_at = [np.inf] * states  # reference distance of each state's last failed certificate
        self._max_cost = max(float(costmat.max()), -float(costmat.min()))  # max|C|, with no n x n temporary
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
                i, b = greedy(base, self.costmat, self.grid, prefer_right=(s == 1), gap=self._gap[slot, s])
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
        best = base[dest] - self.costmat[np.arange(base.size), dest]
        new_gap = gap - need
        if failed.size:
            rescored = np.empty(failed.size)
            idx[failed], best[failed] = greedy(base, self.costmat, self.grid, s == 1, rescored, rows=failed)
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

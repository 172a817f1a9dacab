"""Adaptive panel quadrature on 15-point Gauss-Kronrod rules, batched in lockstep.

Plain panels are bisected worst-error-first.  Segments touching a declared
singular point are integrated under the graded substitution x = s +- u^4,
which turns an integrable power singularity |x - s|^(-r), r < 3/4, into a
continuous integrand; the Kronrod nodes are interior, so the singular point
itself is never evaluated.  Error estimates are the raw |K15 - G7|
differences summed over panels: crude but honest, and the refinement loop
drives them well below the requested tolerance.

There is one path, integrate_batch: many independent integrals advance in
lockstep.  Every segment between cuts is a lane with its own heap, sums and
stopping test; each round bisects one panel per unfinished lane and
evaluates all new panels in one integrand call.  A lane's float operations
are those of a lone integral in the same order (np.vecdot sums each row as
np.dot sums one panel), so a result does not depend on its batch.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import NumericalError

# QUADPACK qk15 constants
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
    0.586087235467691, 0.405845151377397, 0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
    0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469,
])

_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])  # 15 ascending nodes
_WK = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_WGFULL = np.zeros(15)
_WGFULL[1:14:2] = np.concatenate([_WG[:3], [_WG[3]], _WG[2::-1]])

_GRADING = 4  # substitution exponent at singular endpoints
_WIDTH_FLOOR = 1e-13  # relative panel width below which refinement stops
_ABS_TOL = 1e-14  # absolute error at which a lane stops, whatever its rel_tol
_MAX_PANELS = 4000  # panels per lane before it stops short of its tolerance


def _panel_rule(f, lanes, lo, hi):
    """Per-panel (K15 values, |K15 - G7|) as lists, from one call of f.

    Panel p spans [lo[p], hi[p]] of lanes[p]; a graded lane maps u to
    x = origin + sign * u^4 with Jacobian 4 u^3.
    """
    lo = np.asarray(lo)
    hi = np.asarray(hi)
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    jac = np.ones_like(x)
    ok = np.ones(x.shape, dtype=bool)
    graded = np.array([lane.graded for lane in lanes])
    if graded.any():
        u = x[graded]
        o = np.array([lane.origin for lane in lanes])[graded, None]
        xg = o + np.array([lane.sign for lane in lanes])[graded, None] * u**_GRADING
        jac[graded] = _GRADING * u ** (_GRADING - 1)
        ok[graded] = xg != o  # u^4 can underflow against |origin|; skip exact collisions
        x[graded] = xg
    rows = np.broadcast_to(np.array([lane.item for lane in lanes])[:, None], x.shape)
    y = np.zeros_like(x)
    y[ok] = f(rows[ok], x[ok]) * jac[ok]
    k15 = half * np.vecdot(y, _WK)
    err = np.abs(k15 - half * np.vecdot(y, _WGFULL))
    return k15.tolist(), err.tolist()


class _Lane:
    """Adaptive refinement of one segment: a worst-error-first panel heap."""

    __slots__ = ("item", "origin", "sign", "graded", "heap", "counter",
                 "total", "toterr", "frozen_err", "panels")

    def __init__(self, item, origin=0.0, sign=0.0, graded=False):
        self.item, self.origin, self.sign, self.graded = item, origin, sign, graded

    def start(self, lo, hi, val, err):
        self.heap = [(-err, 0, lo, hi, val)]
        self.counter = 1
        self.total, self.toterr = val, err
        self.frozen_err = 0.0
        self.panels = 1

    def next_split(self, rel_tol):
        """The next panel to bisect, as (lo, hi, val, -err), or None when done."""
        heap = self.heap
        while heap and self.toterr + self.frozen_err > max(_ABS_TOL, rel_tol * abs(self.total)):
            if self.panels >= _MAX_PANELS:
                return None
            nerr, _, lo, hi, val = heapq.heappop(heap)
            if hi - lo < _WIDTH_FLOOR * (1.0 + abs(lo) + abs(hi)):
                self.frozen_err += -nerr  # too narrow to refine; keep its error
                self.toterr += nerr
                continue
            return lo, hi, val, nerr
        return None

    def split(self, val, nerr, halves):
        """Replace a popped panel (val, -err) by its evaluated halves (lo, hi, v, e)."""
        self.total -= val
        self.toterr += nerr
        for lo, hi, v, e in halves:
            heapq.heappush(self.heap, (-e, self.counter, lo, hi, v))
            self.counter += 1
            self.total += v
            self.toterr += e
        self.panels += 1


def _lanes(item, a, b, singular_points):
    """Lanes of one integral with their first panels: [(lane, lo, hi)]."""
    sing = sorted({float(p) for p in singular_points if a <= p <= b})
    cuts = sorted({a, b, *sing})
    singular = set(sing)
    out = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        lo_sing = lo in singular
        hi_sing = hi in singular
        segs = [(lo, hi, lo_sing, hi_sing)]
        if lo_sing and hi_sing:
            mid = 0.5 * (lo + hi)
            segs = [(lo, mid, True, False), (mid, hi, False, True)]
        for s_lo, s_hi, s_ls, s_hs in segs:
            if s_ls or s_hs:
                origin = s_lo if s_ls else s_hi
                sign = 1.0 if s_ls else -1.0
                umax = (s_hi - s_lo) ** (1.0 / _GRADING)
                out.append((_Lane(item, origin, sign, True), 0.0, umax))
            else:
                out.append((_Lane(item), s_lo, s_hi))
    return out


def integrate_batch(f, items, rel_tol: float = 1e-9):
    """Adaptive integrals of many items in lockstep; returns [(value, error_bound)].

    items is a sequence of (a, b, singular_points), one per integral:
    singular_points become panel boundaries with the graded endpoint
    substitution on the segments they touch.
    f(rows, x) evaluates the integrands: x is a float array and rows an int
    array of the same shape naming the item of each x.  Each result equals
    that of the item alone in a batch of one, bit for bit.
    """
    lanes, los, his = [], [], []
    for k, (a, b, singular_points) in enumerate(items):
        a, b = float(a), float(b)
        if b > a:
            for lane, lo, hi in _lanes(k, a, b, singular_points):
                lanes.append(lane)
                los.append(lo)
                his.append(hi)
    if lanes:
        for lane, lo, hi, v, e in zip(lanes, los, his, *_panel_rule(f, lanes, los, his)):
            lane.start(lo, hi, v, e)

    active = lanes
    while active:
        splits = []
        for lane in active:
            panel = lane.next_split(rel_tol)
            if panel is not None:
                splits.append((lane, *panel))
        if not splits:
            break
        halves, los, his = [], [], []
        for lane, lo, hi, _, _ in splits:
            mid = 0.5 * (lo + hi)
            halves += (lane, lane)
            los += (lo, mid)
            his += (mid, hi)
        vals, errs = _panel_rule(f, halves, los, his)
        for j, (lane, _, _, val, nerr) in enumerate(splits):
            pair = slice(2 * j, 2 * j + 2)
            lane.split(val, nerr, zip(los[pair], his[pair], vals[pair], errs[pair]))
        active = [lane for lane, *_ in splits]

    results = [[0.0, 0.0] for _ in items]
    for lane in lanes:
        if not np.isfinite(lane.total):
            raise NumericalError("quadrature diverged (non-finite panel sums)")
        res = results[lane.item]
        res[0] += lane.total
        # |K15 - G7| can underestimate the K15 error; report with a safety margin
        res[1] += 4.0 * (lane.toterr + lane.frozen_err)
    return [tuple(res) for res in results]

"""Risk estimation, budget/risk curves over seeded trials, slope fits, and
CSV/SVG emission.

Noiseless excess risks are evaluated on a deterministic midpoint grid, not
on fresh random test draws, so rate fits carry no evaluation noise and
repeated runs emit byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset, anchor_conditional, anchor_support_mask
from .kernel import KernelModel, _whole
from .surrogate import decode_batch


@dataclass(frozen=True)
class RiskCurve:
    """Mean/std of a risk at increasing budgets, aggregated over trials."""

    budgets: np.ndarray
    mean_risk: np.ndarray
    std_risk: np.ndarray
    n_trials: int

    def __post_init__(self):
        b = np.asarray(self.budgets, dtype=int)
        mr = np.asarray(self.mean_risk, dtype=float)
        sr = np.asarray(self.std_risk, dtype=float)
        if not (b.ndim == mr.ndim == sr.ndim == 1) or not (len(b) == len(mr) == len(sr)):
            raise ValueError("budgets, mean_risk, std_risk must be equal-length vectors")
        if len(b) and (np.diff(b) <= 0).any():
            raise ValueError("budgets must be strictly increasing")
        if (sr < 0).any():
            raise ValueError("std_risk must be nonnegative")
        object.__setattr__(self, "budgets", b)
        object.__setattr__(self, "mean_risk", mr)
        object.__setattr__(self, "std_risk", sr)

    def at(self, budget: int) -> float:
        hits = np.flatnonzero(self.budgets == budget)
        if not hits.size:
            raise KeyError(f"no checkpoint at budget {budget}")
        return float(self.mean_risk[hits[0]])


def midpoint_grid(size: int) -> np.ndarray:
    """Deterministic uniform grid of cell midpoints on [0, 1]."""
    size = _whole(size, "grid size", 1)
    return (np.arange(size) + 0.5) / size


def anchor_points(band_halfwidth: float, grid_size: int = 512) -> np.ndarray:
    """The points :func:`excess_zero_one_anchor` predicts at: the midpoint
    grid restricted to the anchored task's support."""
    xs = midpoint_grid(grid_size)
    return xs[anchor_support_mask(xs, band_halfwidth)]


def empirical_risk(model: KernelModel, test: LabeledDataset, block=None) -> float:
    """Mean test loss: decoded zero-one error on classes, rowwise ||f(x) - y||
    on real targets. ``block``, when given, is the model's kernel block of the
    test features (:meth:`KernelModel.kernel_block`)."""
    preds = model.predict_batch(test.features, block)
    if test.n_classes is not None:
        return float((decode_batch(preds) != test.targets).mean())
    return float(np.linalg.norm(preds - test.targets, axis=1).mean())


def excess_risk_noiseless(model: KernelModel, target_fn, grid_size: int = 512,
                          block=None) -> float:
    """Mean ||f(x) - f*(x)|| over the midpoint grid on [0, 1]; zero at f = f*:
    the empirical risk on the grid labelled by ``target_fn``, with the grid's
    kernel ``block`` when given."""
    xs = midpoint_grid(grid_size)
    return empirical_risk(model, LabeledDataset(xs[:, None], target_fn(xs)), block)


def anchor_law(n_classes: int, band_halfwidth: float, grid_size: int = 512) -> np.ndarray:
    """The exact class law at :func:`anchor_points`, one row per point."""
    return anchor_conditional(anchor_points(band_halfwidth, grid_size), n_classes)


def excess_zero_one_anchor(model: KernelModel, points: np.ndarray, law: np.ndarray,
                           block=None) -> float:
    """Zero-one excess risk on the anchored task, against the exact class law.

    Averages P(best class | x) - P(decoded class | x) over the support
    ``points`` (:func:`anchor_points`), whose class law ``law``
    (:func:`anchor_law`) has one row per point, with the points' kernel
    ``block`` when given.
    """
    decoded = decode_batch(model.predict_batch(points, block))
    picked = law[np.arange(len(points)), decoded - 1]
    return float((law.max(axis=1) - picked).mean())


def aggregate_trials(trial_checkpoints) -> RiskCurve:
    """Pointwise mean and population standard deviation over trials.

    Every trial must report the same checkpoint budgets, in the same order.
    """
    trials = list(trial_checkpoints)
    if not trials:
        raise ValueError("need at least one trial")
    budgets = [t for t, _ in trials[0]]
    risks = np.empty((len(trials), len(budgets)))
    for r, ckpts in enumerate(trials):
        if [t for t, _ in ckpts] != budgets:
            raise ValueError("trials disagree on the checkpoint grid")
        risks[r] = [v for _, v in ckpts]
    return RiskCurve(np.asarray(budgets, dtype=int), risks.mean(axis=0),
                     risks.std(axis=0), len(trials))


def loglog_slope(curve: RiskCurve, t_min: int, t_max: int) -> float:
    """Least-squares slope of log mean risk against log budget on [t_min, t_max]."""
    mask = (curve.budgets >= t_min) & (curve.budgets <= t_max)
    if mask.sum() < 2:
        raise ValueError("need at least two checkpoints inside the fit window")
    risks = curve.mean_risk[mask]
    if (risks <= 0).any():
        raise ValueError("cannot fit a log-log slope through nonpositive risks")
    lx = np.log(curve.budgets[mask].astype(float))
    ly = np.log(risks)
    lx = lx - lx.mean()
    return float((lx @ (ly - ly.mean())) / (lx @ lx))


def emit_csv(curve: RiskCurve, path) -> None:
    """Write ``T,mean_risk,std_risk,n_trials`` rows; floats keep full precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("T,mean_risk,std_risk,n_trials\n")
        for t, mr, sr in zip(curve.budgets, curve.mean_risk, curve.std_risk):
            fh.write(f"{int(t)},{float(mr)!r},{float(sr)!r},{curve.n_trials}\n")


_PALETTE = ("#1f6fb4", "#e6662e", "#2e9950", "#8b36a0", "#a05c2a", "#444444")
_WIDTH, _HEIGHT = 640.0, 480.0
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72.0, 24.0, 24.0, 48.0


def _ticks(lo: float, hi: float):
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def emit_svg(curves, path) -> None:
    """Render labelled curves as a log-log SVG line chart (polyline/line/text
    only).

    ``curves`` is a sequence of (label, RiskCurve); labels are escaped for XML.
    Risks that are not positive are left out (one default decade spans the y
    axis if none is). Output bytes are a deterministic function of the inputs.
    """
    curves = list(curves)
    if not curves:
        raise ValueError("need at least one curve to plot")
    xs_all, ys_all = [], []
    for _, curve in curves:
        if (curve.budgets <= 0).any():
            raise ValueError("log-log axes need positive budgets")
        xs_all += [math.log10(t) for t in curve.budgets]
        ys_all += [math.log10(r) for r in curve.mean_risk if r > 0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = (min(ys_all), max(ys_all)) if ys_all else (-1.0, 0.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(v):
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return _HEIGHT - _MARGIN_B - (v - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
        f'height="{_HEIGHT:.0f}" viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">',
        f'<line x1="{_MARGIN_L:.1f}" y1="{_HEIGHT - _MARGIN_B:.1f}" '
        f'x2="{_WIDTH - _MARGIN_R:.1f}" y2="{_HEIGHT - _MARGIN_B:.1f}" stroke="#000"/>',
        f'<line x1="{_MARGIN_L:.1f}" y1="{_MARGIN_T:.1f}" '
        f'x2="{_MARGIN_L:.1f}" y2="{_HEIGHT - _MARGIN_B:.1f}" stroke="#000"/>',
    ]
    for v in _ticks(x_lo, x_hi):
        label = 10.0**v
        parts.append(
            f'<line x1="{px(v):.2f}" y1="{_HEIGHT - _MARGIN_B:.1f}" '
            f'x2="{px(v):.2f}" y2="{_HEIGHT - _MARGIN_B + 5:.1f}" stroke="#000"/>'
        )
        parts.append(
            f'<text x="{px(v):.2f}" y="{_HEIGHT - _MARGIN_B + 18:.1f}" '
            f'font-size="11" text-anchor="middle">{label:.3g}</text>'
        )
    for v in _ticks(y_lo, y_hi):
        label = 10.0**v
        parts.append(
            f'<line x1="{_MARGIN_L - 5:.1f}" y1="{py(v):.2f}" '
            f'x2="{_MARGIN_L:.1f}" y2="{py(v):.2f}" stroke="#000"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8:.1f}" y="{py(v) + 4:.2f}" '
            f'font-size="11" text-anchor="end">{label:.3g}</text>'
        )
    for k, (label, curve) in enumerate(curves):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(
            f"{px(math.log10(t)):.2f},{py(math.log10(r)):.2f}"
            for t, r in zip(curve.budgets, curve.mean_risk) if r > 0
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_T + 14.0 + 16.0 * k
        parts.append(
            f'<line x1="{_WIDTH - _MARGIN_R - 150:.1f}" y1="{ly - 4:.1f}" '
            f'x2="{_WIDTH - _MARGIN_R - 130:.1f}" y2="{ly - 4:.1f}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        text = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<text x="{_WIDTH - _MARGIN_R - 124:.1f}" y="{ly:.1f}" font-size="12">{text}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")

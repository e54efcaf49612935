"""Independent numeric verification.

Negative-squares counting samples the difference-quotient kernel on
randomized point sets in the upper half plane and counts negative
eigenvalues of the Hermitian Gram matrix; the inversion routine recovers
spectral mass on an interval from boundary values along a shrinking
imaginary offset, with peak-tracked quadrature so that atom spikes stay
resolved at every level.  It reads one boundary density, in closed form
for representation data.
"""

from __future__ import annotations

from functools import lru_cache
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import EvaluationFailure, InvalidInput, NonConvergent
from .gnev import GenNevFun
from .nevfun import NevFun
from .poly import point_cmp
from .qmath import as_float, rat, record
from .ratfun import RatFun

Evaluator = Callable[[np.ndarray], np.ndarray]

#: largest trials * n_points^2 of a negative-squares count, whose kernels
#: take several complex arrays of that many entries (16 MiB each); the memo
#: of first point sets keeps the denominators of 4 settings, 64 MiB at most
MAX_KERNEL_ENTRIES = 2 ** 20
#: largest quadrature grid and offset schedule of an inversion
MAX_QUADRATURE_POINTS = 2 ** 20
MAX_EPS_LEVELS = 64


def as_evaluator(obj) -> Evaluator:
    """Vectorized complex evaluator for the function types or a callable."""
    if isinstance(obj, GenNevFun):
        return obj.to_ratfun().eval_np
    if hasattr(obj, "eval_np"):
        return obj.eval_np
    if callable(obj):
        def f(z: np.ndarray) -> np.ndarray:
            return np.asarray(obj(z), dtype=complex)
        return f
    raise TypeError(f"cannot build an evaluator from {obj!r}")


@record
class KernelSample:
    points: np.ndarray
    gram: np.ndarray


def build_kernel_sample(f: Evaluator, points: np.ndarray) -> KernelSample:
    return KernelSample(points, _gram(_kernel_den(points), f(points)))


def _kernel_den(points: np.ndarray) -> np.ndarray:
    """The kernel's denominators z_i - z_j* at the points; a leading axis
    indexes point sets."""
    return points[..., :, None] - np.conj(points)[..., None, :]


def _gram(den: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The kernel (f(z_i) - f(z_j)*)/(z_i - z_j*) from its denominators and
    the values of f, in one new array.  It is Hermitian bit for bit: entry
    (j, i) divides the conjugated negatives of the parts of entry (i, j),
    and numpy's complex division (Smith's) commutes with those flips."""
    gram = np.subtract(vals[..., :, None], np.conj(vals)[..., None, :])
    return np.divide(gram, den, out=gram)


#: float evaluations may meet a pole or overflow, and a huge tolerance
#: overflows its threshold to -inf; the non-finite values are rejected or
#: reported by the caller, so numpy need not warn
_FLOAT_QUIET = dict(over="ignore", divide="ignore", invalid="ignore")


def _sample_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """Half strip points near the real axis, half annulus points reaching
    far out; large moduli are needed to see behavior at infinity."""
    n_strip = (2 * n) // 3
    n_ann = n - n_strip
    x = rng.uniform(-10.0, 10.0, n_strip)
    y = 10.0 ** rng.uniform(-3.0, 0.0, n_strip)
    strip = x + 1j * y
    radius = 10.0 ** rng.uniform(-1.0, 3.0, n_ann)
    angle = rng.uniform(0.05 * np.pi, 0.95 * np.pi, n_ann)
    ann = radius * np.exp(1j * angle)
    return np.concatenate([strip, ann])


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(seed * 1_000_003 + trial)


@lru_cache(maxsize=4)
def _first_point_sets(seed: int, trials: int, n_points: int):
    """The first point set of every trial, stacked, and their kernel
    denominators; read-only, as the same arrays answer every call with
    these settings."""
    pts = np.stack([_sample_points(_trial_rng(seed, trial), n_points)
                    for trial in range(trials)])
    den = _kernel_den(pts)
    pts.flags.writeable = den.flags.writeable = False
    return pts, den


def _finite(vals: np.ndarray) -> np.ndarray:
    """Per point set (last axis), whether every value is usable; a NaN or
    infinite part fails the bound too, as hypot(nan, inf) is inf."""
    return np.all(np.abs(vals) < 1e100, axis=-1)


def negative_squares(f, n_points: int = 40, trials: int = 5,
                     seed: int = 0, tol_rel: float = 1e-9) -> int:
    """Maximum over trials of the count of negative kernel eigenvalues on
    randomized upper-half-plane point sets.  The point sets depend only on
    (seed, trials, n_points), not on f, and are drawn once per setting.
    """
    count, _tails = negative_squares_report(f, n_points, trials, seed,
                                            tol_rel)
    return count


def negative_squares_report(f, n_points: int = 40, trials: int = 5,
                            seed: int = 0, tol_rel: float = 1e-9):
    """As negative_squares, but also returns the per-trial lower eigenvalue
    tails of the balanced kernel for reporting.

    Trial t draws from its own generator, seeded by (seed, t), so its first
    point set depends only on (seed, t, n_points); those sets are memoised
    per (seed, trials, n_points).  f is evaluated on all of them at once,
    and only a trial whose set meets a pole or overflow redraws, from where
    its generator left off, on copies of the memoised points and
    denominators.  The trials' kernels are balanced in place, thresholded
    and diagonalized as one stack.
    """
    if n_points < 1 or trials < 1:
        raise InvalidInput("need at least one point and one trial")
    if trials * n_points ** 2 > MAX_KERNEL_ENTRIES:
        raise InvalidInput(f"trials * points^2 must be at most "
                           f"{MAX_KERNEL_ENTRIES}")
    if not np.isfinite(tol_rel) or tol_rel < 0:
        raise InvalidInput("tolerance must be finite and nonnegative")
    if seed < 0:
        raise InvalidInput("seed must be nonnegative")
    ev = as_evaluator(f)
    pts, den = _first_point_sets(seed, trials, n_points)
    with np.errstate(**_FLOAT_QUIET):
        vals = ev(pts.ravel()).reshape(pts.shape)
        redrawn = np.flatnonzero(~_finite(vals)).tolist()
        if redrawn:
            pts, den = pts.copy(), den.copy()
        for trial in redrawn:
            rng = _trial_rng(seed, trial)
            _sample_points(rng, n_points)          # the first set, rejected
            for _attempt in range(63):             # 64 sets in all
                pts[trial] = _sample_points(rng, n_points)
                vals[trial] = ev(pts[trial])
                if _finite(vals[trial]):
                    break
            else:
                raise EvaluationFailure(
                    "sampling kept hitting poles or overflow")
            den[trial] = _kernel_den(pts[trial])
        gram = _gram(den, vals)
        # positive diagonal congruence keeps the signature and tames the
        # range before thresholding; numpy divides by a real r as times 1/r
        d = np.sqrt(np.abs(np.diagonal(gram, axis1=-2, axis2=-1)) + 1e-30)
        scale = np.multiply(d[:, :, None], d[:, None, :])
        gram *= np.divide(1.0, scale, out=scale)
        norm_inf = np.max(np.sum(np.abs(gram), axis=-1), axis=-1)
        thresh = -tol_rel * np.maximum(norm_inf, 1.0)
    eigs = np.linalg.eigvalsh(gram)
    counts = np.sum(eigs < thresh[:, None], axis=-1).tolist()
    tails = [row[:max(count + 2, 4)]
             for row, count in zip(eigs.tolist(), counts)]
    return max(counts), tails


#: largest ratio between consecutive offsets across which a stored peak is
#: carried without being re-located
PEAK_TRACK_RATIO = 10.0


def _as_float(e) -> float:
    """A float as it is, any other exact value correctly rounded by
    as_float, which raises InvalidInput beyond the float range."""
    return e if isinstance(e, float) else as_float(rat(e))


def _float_interval(interval) -> tuple[float, float]:
    """The float ends c < d of an interval whose width is a float too."""
    c, d = map(_as_float, interval)
    if not c < d:
        raise InvalidInput("interval must be nondegenerate")
    if d - c == np.inf:
        raise InvalidInput("interval width beyond the float range")
    return c, d


@record
class InversionConfig:
    eps_schedule: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
    quadrature_points: int = 4096
    interval: tuple = (Fraction(-1), Fraction(1))

    def __post_init__(self):
        if len(self.eps_schedule) > MAX_EPS_LEVELS:
            raise InvalidInput(f"at most {MAX_EPS_LEVELS} offset levels")
        eps = tuple(map(_as_float, self.eps_schedule))
        if not eps:
            raise InvalidInput("need at least one offset level")
        if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
            raise InvalidInput("schedule must decrease strictly")
        if not all(0 < e < np.inf for e in eps):
            raise InvalidInput("offset levels must be finite and positive")
        if self.quadrature_points < 64:
            raise InvalidInput("need at least 64 quadrature points")
        if self.quadrature_points > MAX_QUADRATURE_POINTS:
            raise InvalidInput(
                f"at most {MAX_QUADRATURE_POINTS} quadrature points")


@record
class InversionResult:
    value: float
    error: float
    per_level: tuple[float, ...]
    peaks: tuple[float, ...]


def _trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    """np.trapezoid(y, x) of flat arrays bit for bit: its operations, in
    place and without its wrapper."""
    s = y[1:] + y[:-1]
    s *= x[1:] - x[:-1]
    s /= 2.0
    return float(s.sum())


def _level_integral(density, c: float, d: float, eps: float,
                    n: int, peaks: Sequence[float],
                    detected: tuple[np.ndarray, np.ndarray] | None = None):
    """One boundary-offset level: base trapezoid plus substituted windows
    around known peaks so spikes of width eps stay resolved.  Returns the
    integral together with the peak positions re-located on the window
    grids, which keeps the windows centered as eps shrinks.  detected, the
    detection grid linspace(c, d, n) and the density on it at this eps,
    is the base grid of a level without windows."""
    windows = []
    for p in peaks:
        w = max(2e3 * eps, 16 * (d - c) / n)
        lo, hi = max(c, p - w), min(d, p + w)
        if lo < hi:
            windows.append((lo, hi, p))
    windows.sort()
    merged = []
    for lo, hi, p in windows:
        if merged and lo <= merged[-1][1]:
            mlo, mhi, mp = merged[-1]
            merged[-1] = (mlo, max(mhi, hi), mp)
        else:
            merged.append((lo, hi, p))

    refined = []
    total = 0.0
    cursor = c
    for lo, hi, p in merged:
        if cursor < lo:
            xs = np.linspace(cursor, lo, max(n // 8, 64))
            total += _trapezoid(density(xs, eps), xs)
        # angle substitution x = p + eps*tan(theta) concentrates nodes at p,
        # with dx/dtheta = eps (1 + tan(theta)^2)
        t_lo = np.arctan((lo - p) / eps)
        t_hi = np.arctan((hi - p) / eps)
        th = np.linspace(t_lo, t_hi, 2048)
        tn = np.tan(th)
        xs = p + eps * tn
        vals = density(xs, eps)
        jac = np.multiply(tn, tn, out=tn)
        jac += 1
        jac *= eps
        jac *= vals
        total += _trapezoid(jac, th)
        gs = np.abs(vals)
        top = float(np.max(gs))
        refined.extend(xs[_local_maxima(gs, 0.005 * top)].tolist())
        cursor = hi
    if not merged and detected is not None:
        xs, vals = detected
        total += _trapezoid(vals, xs)
    elif cursor < d:
        xs = np.linspace(cursor, d, n)
        total += _trapezoid(density(xs, eps), xs)
    return total, refined


def _local_maxima(g: np.ndarray, floor: float) -> np.ndarray:
    """Mask of the samples above floor that are no smaller than their
    neighbours; an end sample has only one neighbour.  NaN is never kept."""
    keep = g > floor
    keep[1:] &= g[1:] >= g[:-1]
    keep[:-1] &= g[:-1] >= g[1:]
    return keep


def _median(g: np.ndarray) -> float:
    """np.median of a flat array bit for bit, by one np.partition and
    without its overhead: the lower half holds the other middle value of
    an even length as its max, and a NaN, which sorts last, lands in the
    upper half and gives NaN."""
    n = len(g)
    h = n // 2
    part = np.partition(g, h)
    m = part[h] if n % 2 else (np.max(part[:h]) + part[h]) / 2
    return float("nan") if np.isnan(np.max(part[h:])) else float(m)


def _detect_peaks(density, xs: np.ndarray,
                  eps: float) -> tuple[list[float], np.ndarray]:
    """Peaks of |density| at eps on the detection grid xs, and the density
    there."""
    vals = density(xs, eps)
    g = np.abs(vals)
    # an atom's spike at a grid's own spacing is lower on a wider grid
    scale = max(_median(g), 1e-12 / max(1.0, xs[-1] - xs[0]))
    merged = []
    for p in xs[_local_maxima(g, 20 * scale)].tolist():
        if merged and abs(p - merged[-1]) < 10 * eps:
            continue
        merged.append(p)
    return merged, vals


def _boundary_density(f, phi) -> Callable[[np.ndarray, float], np.ndarray]:
    """density(x, eps) = Im (f phi)(x + i eps) / pi.  An unweighted NevFun
    gives beta eps / pi + sum w / (pi eps (1 + ((t - x) / eps)^2)), where no
    eps^2 underflows; other input is evaluated in complex floating point."""
    if isinstance(f, NevFun) and phi is None:
        beta = as_float(f.beta) / np.pi
        atoms = np.array([(as_float(t), as_float(w) / np.pi)
                          for t, w in f.sigma]).reshape(-1, 2)
        ts, ws = atoms[:, :1], atoms[:, 1:]

        def density(x: np.ndarray, eps: float) -> np.ndarray:
            # one row per atom, each operation in place, and the rows added
            # in atom order onto beta eps: the operations, and so the bits,
            # of one term per atom
            u = np.subtract(ts, x)
            u /= eps
            np.square(u, out=u)
            u += 1
            u *= eps
            np.divide(ws, u, out=u)
            out = np.full(x.shape, beta * eps)
            for row in u:
                out += row
            return out
        return density
    ev = as_evaluator(f)
    phi_ev = None if phi is None else as_evaluator(phi)

    def density(x: np.ndarray, eps: float) -> np.ndarray:
        z = x + 1j * eps
        v = ev(z) if phi_ev is None else ev(z) * phi_ev(z)
        return np.imag(v) / np.pi
    return density


def stieltjes_invert(f, cfg: InversionConfig, phi=None,
                     tol: float = 1e-2) -> InversionResult:
    """Recover the phi-weighted spectral mass of f over the closed interval
    (interior mass plus half the endpoint masses) by shrinking the boundary
    offset along the schedule and extrapolating the linear-in-offset error.
    """
    if not np.isfinite(tol) or tol < 0:
        raise InvalidInput("tolerance must be finite and nonnegative")
    c, d = _float_interval(cfg.interval)
    _check_phi(phi, cfg)
    density = _boundary_density(f, phi)
    peaks: list[float] = []
    per_level = []
    n = cfg.quadrature_points
    spacing = (d - c) / n
    mid = 0.0
    with np.errstate(**_FLOAT_QUIET):
        grid = np.linspace(c, d, n)
        if cfg.eps_schedule[0] < spacing:
            # spikes finer than the grid fall between its samples, so those of
            # a first level below the grid spacing are found at that spacing
            # and tracked down to the level like those of an earlier level
            peaks, _vals = _detect_peaks(density, grid, spacing)
            mid = spacing / PEAK_TRACK_RATIO
        for eps in cfg.eps_schedule:
            # a peak located at the last level is off by up to about that
            # offset, so across a step of more than PEAK_TRACK_RATIO it is
            # re-located at unrecorded offsets in between, lest the window of
            # the new level miss its spike
            while mid > eps * (1 + 1e-9):
                _, refined = _level_integral(density, c, d, mid, n, peaks)
                if refined:
                    peaks = _merge_peaks([], sorted(refined), 3 * mid)
                mid /= PEAK_TRACK_RATIO
            mid = eps / PEAK_TRACK_RATIO
            found, vals = _detect_peaks(density, grid, eps)
            peaks = _merge_peaks(peaks, found, 2 * spacing)
            value, refined = _level_integral(density, c, d, eps, n, peaks,
                                             (grid, vals))
            if not np.isfinite(value):
                raise NonConvergent(
                    f"level integral at offset {eps:.6g} is not finite")
            per_level.append(value)
            if refined:
                peaks = _merge_peaks([], sorted(refined), 3 * eps)
    value, err = _extrapolate(cfg.eps_schedule, per_level)
    if len(per_level) >= 2 and abs(per_level[-1] - per_level[-2]) > \
            max(tol, 10 * err + tol):
        raise NonConvergent(
            f"levels disagree: {per_level[-2]:.6g} vs {per_level[-1]:.6g}")
    return InversionResult(value, err, tuple(per_level), tuple(peaks))


def _merge_peaks(old: list[float], new: list[float], tol: float) -> list[float]:
    """Stored locations win; new candidates join only when genuinely apart."""
    out = list(old)
    for p in new:
        if all(abs(p - q) > tol for q in out):
            out.append(p)
    return sorted(out)


def _extrapolate(eps: Sequence[float], vals: Sequence[float]):
    """Neville extrapolation to zero offset assuming smooth dependence."""
    xs = list(eps)
    table = [list(vals)]
    m = len(xs)
    for level in range(1, min(m, 4)):
        row = []
        prev = table[-1]
        for i in range(len(prev) - 1):
            x0 = xs[i]
            x1 = xs[i + level]
            row.append((prev[i + 1] * x0 - prev[i] * x1) / (x0 - x1))
        table.append(row)
    best = table[-1][-1]
    prev_best = table[-2][-1] if len(table) > 1 else vals[-1]
    return best, abs(best - prev_best)


def _check_phi(phi, cfg: InversionConfig):
    """Refuse a weight with a pole in the closed interval, whose ends
    :func:`_float_interval` has checked; a float end is read exactly.  No
    weight (None) passes.  Every weight with ``to_ratfun()`` is checked on
    that RatFun, whose real poles come from its root structure."""
    if hasattr(phi, "to_ratfun"):
        phi = phi.to_ratfun()
    if isinstance(phi, RatFun):
        lo, hi = (Fraction(e) if isinstance(e, float) else rat(e)
                  for e in cfg.interval)
        if any(point_cmp(lo, x) <= 0 <= point_cmp(hi, x)
               for x, _m in phi.real_poles):
            raise InvalidInput("weight has a pole inside the interval")


def gap_detect(f, interval) -> bool:
    """True when the open interval carries no recovered mass (above 1e-3)
    and the boundary values look real and increasing along it.  Endpoints
    are padded inward, as floats, so that boundary atoms do not count
    against the gap."""
    ev = as_evaluator(f)
    c, d = _float_interval(interval)
    pad = (d - c) * 1e-3
    cfg = InversionConfig(interval=(c + pad, d - pad))
    try:
        res = stieltjes_invert(ev, cfg)
    except NonConvergent:
        return False
    if abs(res.value) > 1e-3:
        return False
    xs = np.linspace(c + pad, d - pad, 128) + 1j * 1e-9
    with np.errstate(**_FLOAT_QUIET):
        vals = ev(xs)
    if np.any(np.abs(np.imag(vals)) > 1e-5 * (1 + np.abs(vals))):
        return False
    re = np.real(vals)
    return bool(np.all(np.diff(re) > -1e-9 * (1 + np.abs(re[:-1]))))

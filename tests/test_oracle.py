import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import nevfuns
import nevkit.oracle
from nevkit.corpus import random_nevfun, random_symmetric_ratfun
from nevkit.errors import EvaluationFailure, InvalidInput, NonConvergent
from nevkit.gnev import GenNevFun, canonical_pair
from nevkit.nevfun import NevFun
from nevkit.oracle import (MAX_KERNEL_ENTRIES, InversionConfig,
                           _finite, _first_point_sets, _gram, _local_maxima,
                           _median, _sample_points, as_evaluator,
                           build_kernel_sample,
                           gap_detect, negative_squares,
                           negative_squares_report, stieltjes_invert)
from nevkit.poly import Poly
from nevkit.ratfun import RatFun

MINUS_INV = NevFun.of(0, 0, [(0, 1)])


def test_negative_squares_examples():
    assert negative_squares(RatFun(Poly([0, -1]), Poly.const(1))) == 1
    assert negative_squares(RatFun(Poly([0, 1]), Poly.const(1))) == 0
    assert negative_squares(RatFun(Poly([0, 0, 0, 1]), Poly.const(1))) == 1


def test_negative_squares_deterministic():
    f = RatFun(Poly([0, 0, 0, 1]), Poly.const(1))
    a = negative_squares(f, seed=9)
    b = negative_squares(f, seed=9)
    assert a == b


def test_gram_positive_for_representations():
    rng = random.Random(3)
    for _ in range(10):
        q = random_nevfun(rng)
        assert negative_squares(q) == 0


def test_kernel_sample_hermitian():
    f = RatFun(Poly([0, 0, 1]), Poly.const(1))
    pts = np.array([0.3 + 0.2j, -1.0 + 1.5j, 2.0 + 0.1j])
    ks = build_kernel_sample(lambda z: f.eval_np(z), pts)
    assert np.array_equal(ks.gram, ks.gram.conj().T)


def test_inversion_single_atom():
    cfg = InversionConfig(interval=(Fraction(-1, 2), Fraction(1, 2)))
    res = stieltjes_invert(MINUS_INV, cfg)
    assert abs(res.value - 1.0) < 1e-3

    cfg2 = InversionConfig(interval=(Fraction(1), Fraction(2)))
    res2 = stieltjes_invert(MINUS_INV, cfg2)
    assert abs(res2.value) < 1e-3


def test_inversion_product_mass():
    # mass 1/2 at 1 for -z(z-2)/((z-1)(z-3))
    f = RatFun(Poly([0, 2, -1]), Poly.from_roots([1, 3]))
    cfg = InversionConfig(interval=(Fraction(9, 10), Fraction(11, 10)))
    res = stieltjes_invert(f, cfg)
    assert abs(res.value - 0.5) < 1e-3


def test_inversion_endpoint_halves():
    # atom exactly at an endpoint contributes half its weight
    cfg = InversionConfig(interval=(Fraction(0), Fraction(1)))
    res = stieltjes_invert(MINUS_INV, cfg)
    assert abs(res.value - 0.5) < 2e-3


def test_inversion_weighted():
    q = NevFun.of(0, 0, [(Fraction(1, 2), Fraction(3, 2))])
    phi = RatFun(Poly([1, 0, 1]), Poly.const(1))   # 1 + t^2
    cfg = InversionConfig(interval=(Fraction(0), Fraction(1)))
    res = stieltjes_invert(q, cfg, phi=phi)
    assert abs(res.value - 1.5 * 1.25) < 3e-3


def test_inversion_linearity():
    q1 = NevFun.of(0, 0, [(0, 1)])
    q2 = NevFun.of(0, 0, [(Fraction(1, 4), 2)])
    both = NevFun.of(0, 0, [(0, 1), (Fraction(1, 4), 2)])
    cfg = InversionConfig(interval=(Fraction(-1, 2), Fraction(1, 2)))
    r1 = stieltjes_invert(q1, cfg)
    r2 = stieltjes_invert(q2, cfg)
    r12 = stieltjes_invert(both, cfg)
    assert abs(r12.value - (r1.value + r2.value)) < 2e-3


def test_inversion_levels_cauchy():
    cfg = InversionConfig(interval=(Fraction(-1, 2), Fraction(1, 2)))
    res = stieltjes_invert(MINUS_INV, cfg)
    diffs = [abs(a - b) for a, b in zip(res.per_level, res.per_level[1:])]
    assert all(d2 < d1 + 1e-9 for d1, d2 in zip(diffs, diffs[1:]))


def test_only_long_steps_add_tracking_offsets(monkeypatch):
    offsets = []
    level = nevkit.oracle._level_integral

    def recorded(density, c, d, eps, n, peaks, *detected):
        offsets.append(eps)
        return level(density, c, d, eps, n, peaks, *detected)

    monkeypatch.setattr(nevkit.oracle, "_level_integral", recorded)
    cfg = InversionConfig()
    stieltjes_invert(MINUS_INV, cfg)
    assert offsets == list(cfg.eps_schedule)
    offsets.clear()
    steep = InversionConfig(eps_schedule=(1e-2, 2.5e-6), interval=(-1, 1))
    res = stieltjes_invert(MINUS_INV, steep)
    assert offsets == pytest.approx([1e-2, 1e-3, 1e-4, 1e-5, 2.5e-6])
    assert len(res.per_level) == 2 and abs(res.value - 1.0) < 1e-3


@pytest.mark.parametrize("schedule", [(1e-9, 1e-10), (1e-12,), (1e-6, 1e-7)])
def test_first_level_finer_than_the_grid_keeps_the_atom(schedule):
    """z - 1/z on [-1, 1]: a unit atom at 0 whose spike, at a first offset
    far below the 4.9e-4 grid spacing, falls between the samples."""
    cfg = InversionConfig(eps_schedule=schedule, interval=(-1, 1))
    try:
        res = stieltjes_invert(NevFun.of(0, 1, [(0, 1)]), cfg)
    except NonConvergent:
        return
    assert abs(res.value - 1.0) < 1e-3


@pytest.mark.parametrize("schedule", [(1e-2, 1e-310), (1e-310,),
                                      (1e-2, 1e-100, 1e-200, 1e-310)])
def test_a_level_that_is_not_finite_is_named(schedule):
    """At a subnormal offset the spike of the atom at 0 overflows the
    float evaluation: the inversion refuses with that offset, wherever it
    stands in the schedule, rather than compare a level of inf."""
    cfg = InversionConfig(eps_schedule=schedule, interval=(-1, 1))
    with pytest.raises(NonConvergent) as info:
        stieltjes_invert(MINUS_INV, cfg)
    assert str(info.value) == "level integral at offset 1e-310 is not finite"


def test_a_level_without_peaks_evaluates_its_grid_once():
    """Over (3, 4), away from the atom at 1, no level has a peak window:
    each of the six levels evaluates the detection grid once, and its base
    trapezoid reads those values."""
    ev = as_evaluator(NevFun.of(0, 0, [(1, 1)]))
    sizes = []

    def counted(z):
        sizes.append(len(z))
        return ev(z)
    res = stieltjes_invert(counted, InversionConfig(interval=(3, 4)))
    assert sizes == [4096] * 6
    assert res.peaks == () and abs(res.value) < 1e-12


def test_a_level_without_peaks_integrates_a_negative_density():
    """-z has density -eps/pi: the base trapezoid reads the signed
    detection values, not their absolute values."""
    cfg = InversionConfig(interval=(3, 4))
    res = stieltjes_invert(lambda z: -z, cfg)
    assert res.peaks == ()
    np.testing.assert_allclose(res.per_level,
                               [-e / np.pi for e in cfg.eps_schedule],
                               rtol=1e-12)


def test_one_window_item_shares_its_grid_and_counts_its_density_calls(
        monkeypatch):
    """MINUS_INV over (-1/2, 1/2): every level detects on the one grid
    built by the inversion; at 1e-2 and 1e-3 the window covers the
    interval (detection and window), from 1e-4 on it leaves a base grid on
    each side (detection, before, window, after)."""
    calls, grids = [], []
    boundary = nevkit.oracle._boundary_density
    detect = nevkit.oracle._detect_peaks

    def counted_boundary(f, phi):
        density = boundary(f, phi)

        def counted(x, eps):
            calls.append(eps)
            return density(x, eps)
        return counted

    def recorded(density, xs, eps):
        grids.append(xs)
        return detect(density, xs, eps)

    monkeypatch.setattr(nevkit.oracle, "_boundary_density", counted_boundary)
    monkeypatch.setattr(nevkit.oracle, "_detect_peaks", recorded)
    cfg = InversionConfig(interval=(Fraction(-1, 2), Fraction(1, 2)))
    res = stieltjes_invert(MINUS_INV, cfg)
    assert len(grids) == 6 and all(g is grids[0] for g in grids)
    assert [calls.count(e) for e in cfg.eps_schedule] == [2, 2, 4, 4, 4, 4]
    assert len(calls) == 20 and abs(res.value - 1.0) < 1e-3


def test_inverting_an_atom_free_nevfun_finds_no_mass():
    res = stieltjes_invert(NevFun.of(0, 1, []), InversionConfig())
    assert res.peaks == () and abs(res.value) < 1e-9


@settings(max_examples=150)
@given(q=nevfuns(max_atoms=5), exponent=st.floats(-12, -2),
       offsets=st.lists(st.integers(-40, 40), max_size=6))
@example(q=NevFun.of(0, 0, []), exponent=-2.0, offsets=[])
@example(q=NevFun.of(0, 1, []), exponent=-7.0, offsets=[])
def test_closed_form_density_matches_the_complex_path(q, exponent, offsets):
    """The density a NevFun reads off its representation is the imaginary
    part of its complex evaluation over pi, on a grid through its atoms,
    a few offsets from them and far from them; and it is, bit for bit, the
    sum of one term per atom added in atom order onto beta eps / pi."""
    eps = 10.0 ** exponent
    atoms = [float(t) for t in q.sigma.positions]
    xs = np.array(atoms + [t + k * eps for t in atoms for k in offsets]
                  + np.linspace(-60.0, 60.0, 241).tolist())
    got = nevkit.oracle._boundary_density(q, None)(xs, eps)
    want = np.imag(as_evaluator(q)(xs + 1j * eps)) / np.pi
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    beta = float(q.beta) / np.pi
    terms = [float(w) / np.pi / (eps * (1 + ((float(t) - xs) / eps) ** 2))
             for t, w in q.sigma]
    assert got.tobytes() == sum(terms, np.full(xs.shape, beta * eps)).tobytes()


def test_inverting_a_nevfun_evaluates_it_only_under_a_weight(monkeypatch):
    """Without a weight the inversion reads the closed-form density and
    never evaluates the NevFun; with one, both go through as_evaluator."""
    calls = []
    eval_np = NevFun.eval_np

    def counted(self, z):
        calls.append(1)
        return eval_np(self, z)

    monkeypatch.setattr(NevFun, "eval_np", counted)
    cfg = InversionConfig(interval=(Fraction(-1, 2), Fraction(1, 2)))
    res = stieltjes_invert(MINUS_INV, cfg)
    assert calls == [] and abs(res.value - 1.0) < 1e-3
    weighted = stieltjes_invert(MINUS_INV, cfg, phi=NevFun.const(2))
    assert calls and abs(weighted.value - 2.0) < 2e-3


@given(g=st.lists(st.floats(min_value=0.0), min_size=1, max_size=40),
       nan_at=st.one_of(st.none(), st.integers(0, 40)))
@example(g=[3.0, 1.0, 2.0], nan_at=None)
@example(g=[4.0, 1.0, 3.0, 2.0], nan_at=None)
@example(g=[1.0, 2.0], nan_at=1)
@example(g=[1.0, 2.0, 3.0], nan_at=0)
@example(g=[1e308, 1.5e308], nan_at=None)
@example(g=[1.0, 2.0, 3.0], nan_at=3)
@example(g=[], nan_at=0)
def test_median_is_numpys_bit_for_bit(g, nan_at):
    """Odd and even lengths, a NaN anywhere (in the upper half of an even
    length, or alone), and two middle values whose sum overflows."""
    if nan_at is not None:
        g.insert(nan_at, float("nan"))
    g = np.array(g)
    with np.errstate(over="ignore"):
        want, got = np.float64(np.median(g)), np.float64(_median(g))
    assert got.tobytes() == want.tobytes()


@given(y=st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=40),
       data=st.data())
def test_trapezoid_is_numpys_bit_for_bit(y, data):
    x = sorted(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=len(y),
                                  max_size=len(y))))
    y, x = np.array(y), np.array(x)
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.float64(np.trapezoid(y, x))
        got = np.float64(nevkit.oracle._trapezoid(y, x))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-7])
def test_median_of_a_detection_grid_is_numpys_bit_for_bit(eps):
    """An even-length grid as the inversion reads it: a 3-atom density over
    4,096 points, spikes above a floor several decades lower."""
    q = NevFun.of(1, 0, [(Fraction(-1, 3), 1), (Fraction(1, 7), 2),
                         (Fraction(3, 5), Fraction(1, 2))])
    xs = np.linspace(-1.0, 1.0, 4096)
    g = np.abs(nevkit.oracle._boundary_density(q, None)(xs, eps))
    want, got = np.float64(np.median(g)), np.float64(_median(g))
    assert got.tobytes() == want.tobytes()


def test_gap_detect_examples():
    assert gap_detect(MINUS_INV, (1, 2)) is True
    assert gap_detect(MINUS_INV, (-1, 1)) is False
    worked = NevFun.of(Fraction(-3, 5), 0, [(2, 1)])
    assert gap_detect(worked, (-10, 2)) is True
    # Im f = 1/eps: the inversion levels disagree, NonConvergent
    assert gap_detect(lambda z: 1j / z.imag, (-1, 1)) is False


def test_phi_pole_rejected():
    phi = RatFun(Poly.const(1), Poly([0, 1]))
    cfg = InversionConfig(interval=(Fraction(-1), Fraction(1)))
    with pytest.raises(ValueError):
        stieltjes_invert(MINUS_INV, cfg, phi=phi)


HALF_ATOM = NevFun.of(0, 0, [(Fraction(1, 2), 1)])      # pole at 1/2


@pytest.mark.parametrize("phi", [
    RatFun.from_points([], [Fraction(1, 2)]),
    HALF_ATOM,
    GenNevFun.from_nevfun(HALF_ATOM),
    RatFun.from_points([], [-1]),                       # a pole at each end
    NevFun.of(0, 0, [(1, 2)]),
    RatFun(Poly.const(1), Poly([-1, 0, 2])),            # 1/(2z^2 - 1)
])
def test_weight_with_a_pole_in_the_closed_interval_is_refused(phi):
    cfg = InversionConfig(interval=(Fraction(-1), Fraction(1)))
    with pytest.raises(InvalidInput, match="pole inside the interval"):
        stieltjes_invert(MINUS_INV, cfg, phi=phi)


def test_weight_with_poles_outside_the_interval_is_accepted():
    cfg = InversionConfig(interval=(Fraction(-1), Fraction(1)))
    phi = NevFun.of(0, 0, [(Fraction(3, 2), 1), (-2, 1)])
    res = stieltjes_invert(MINUS_INV, cfg, phi=phi)
    assert abs(res.value - float(phi.to_ratfun()(0))) < 1e-3


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (-0.3, 0.7)])
def test_a_float_interval_with_a_weight_reads_its_ends_exactly(lo, hi):
    phi = RatFun.from_points([], [5])
    exact = InversionConfig(interval=(Fraction(lo), Fraction(hi)))
    res = stieltjes_invert(MINUS_INV, InversionConfig(interval=(lo, hi)),
                           phi=phi)
    assert res == stieltjes_invert(MINUS_INV, exact, phi=phi)
    assert abs(res.value + 0.2) < 1e-3


@pytest.mark.parametrize("pole, lo, hi", [
    (Fraction(1, 2), -1.0, 1.0),
    (Fraction(1, 2), 0.5, 1.0),
    # the float 0.1 is a little above 1/10, so the pole is inside
    (Fraction(1, 10), -1.0, 0.1),
])
def test_a_weight_pole_inside_a_float_interval_is_refused(pole, lo, hi):
    cfg = InversionConfig(interval=(lo, hi))
    with pytest.raises(InvalidInput,
                       match="^weight has a pole inside the interval$"):
        stieltjes_invert(MINUS_INV, cfg, phi=RatFun.from_points([], [pole]))


def test_a_weight_pole_just_above_a_float_end_is_outside():
    # the float 0.3 is a little below 3/10
    nevkit.oracle._check_phi(RatFun.from_points([], [Fraction(3, 10)]),
                             InversionConfig(interval=(-1.0, 0.3)))


@pytest.mark.parametrize("lo, hi", [
    (-np.inf, 1.0), (0.0, np.inf), (-np.inf, np.inf), (np.nan, 1.0),
    (0.0, np.nan)])
def test_an_unbounded_or_nan_float_end_with_a_weight_is_invalid(lo, hi):
    with pytest.raises(InvalidInput):
        stieltjes_invert(MINUS_INV, InversionConfig(interval=(lo, hi)),
                         phi=RatFun.from_points([], [5]))


def _local_maxima_loop(g, floor):
    """The per-sample scan the peak mask replaced, kept as its reference."""
    keep = []
    for i in range(len(g)):
        left_ok = i == 0 or g[i] >= g[i - 1]
        right_ok = i == len(g) - 1 or g[i] >= g[i + 1]
        keep.append(bool(left_ok and right_ok and g[i] > floor))
    return keep


# few distinct values, so that plateaus and ties are common
SAMPLES = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.5, float("nan")])


@given(g=st.lists(SAMPLES, min_size=1, max_size=12),
       floor=st.sampled_from([-1.0, 0.0, 0.75, 2.0, 10.0, float("nan")]))
def test_local_maxima_matches_loop(g, floor):
    g = np.array(g)
    assert _local_maxima(g, floor).tolist() == _local_maxima_loop(g, floor)


def test_local_maxima_edges():
    assert _local_maxima(np.array([1.0]), 0.0).tolist() == [True]
    assert _local_maxima(np.array([1.0]), 1.0).tolist() == [False]
    assert _local_maxima(np.array([2.0, 2.0]), 0.0).tolist() == [True, True]
    assert _local_maxima(np.array([1.0, 2.0]), 0.0).tolist() == [False, True]
    assert _local_maxima(np.array([1.0, np.nan, 1.0]), 0.0).tolist() == \
        [False] * 3


def test_finite_rejects_a_non_finite_part_by_its_modulus():
    nan, inf = float("nan"), float("inf")
    bad = [complex(nan, 0), complex(0, nan), complex(inf, 0), complex(0, -inf),
           complex(nan, inf), complex(inf, nan), complex(1e100, 0)]
    vals = np.array([[1 + 2j, v] for v in bad] + [[1 + 2j, 1e99j]])
    assert _finite(vals).tolist() == [False] * len(bad) + [True]


def _report_per_trial(f, n_points, trials, seed, tol_rel):
    """negative_squares_report with one kernel and one eigvalsh per trial,
    as it was before the trials were stacked."""
    best, tails = 0, []
    for trial in range(trials):
        rng = np.random.default_rng(seed * 1_000_003 + trial)
        for _attempt in range(64):
            pts = _sample_points(rng, n_points)
            vals = f.eval_np(pts)
            if bool(np.all(np.isfinite(vals) & (np.abs(vals) < 1e100))):
                break
        ks = build_kernel_sample(f.eval_np, pts)
        d = np.sqrt(np.abs(np.diag(ks.gram)) + 1e-30)
        balanced = ks.gram / np.outer(d, d)
        norm_inf = float(np.max(np.sum(np.abs(balanced), axis=1)))
        eigs = np.linalg.eigvalsh(balanced)
        count = int(np.sum(eigs < -tol_rel * max(norm_inf, 1.0)))
        tails.append([float(x) for x in eigs[:max(count + 2, 4)]])
        best = max(best, count)
    return best, tails


def test_stacked_count_equals_per_trial_reference():
    readme = RatFun(Poly([0, 4, -4, 1]), Poly([-3, 7, -5, 1]))
    assert negative_squares_report(readme, seed=1) == \
        _report_per_trial(readme, 40, 5, 1, 1e-9)
    rng = random.Random(1001)
    for _ in range(20):
        f = random_symmetric_ratfun(rng, max_degree=8)
        assert negative_squares_report(f, 40, 5, 12345) == \
            _report_per_trial(f, 40, 5, 12345, 1e-9)


def _report_reference(f, n_points, trials, seed, tol_rel):
    """negative_squares_report as it was before its point sets were
    memoised and its trials stacked: a generator, a draw loop, an
    evaluation and a kernel per trial, the kernel by np.outer and
    np.diag."""
    ev = as_evaluator(f)
    balanced = []
    for trial in range(trials):
        rng = np.random.default_rng(seed * 1_000_003 + trial)
        for _attempt in range(64):
            pts = _sample_points(rng, n_points)
            vals = ev(pts)
            if bool(np.all(np.isfinite(vals) & (np.abs(vals) < 1e100))):
                break
        else:
            raise EvaluationFailure("sampling kept hitting poles or overflow")
        gram = (vals[:, None] - np.conj(vals)[None, :]) \
            / (pts[:, None] - np.conj(pts)[None, :])
        gram = (gram + gram.conj().T) / 2
        d = np.sqrt(np.abs(np.diag(gram)) + 1e-30)
        balanced.append(gram / np.outer(d, d))
    best, tails = 0, []
    for b, eigs in zip(balanced, np.linalg.eigvalsh(np.stack(balanced))):
        norm_inf = float(np.max(np.sum(np.abs(b), axis=1)))
        count = int(np.sum(eigs < -tol_rel * max(norm_inf, 1.0)))
        tails.append([float(x) for x in eigs[:max(count + 2, 4)]])
        best = max(best, count)
    return best, tails


def _inf_right_of_9(z):
    """z^3, but a pole-like inf wherever Re z > 9."""
    return np.where(z.real > 9, np.inf, z ** 3)


def test_stacked_count_matches_reference_on_every_input_kind():
    rng = random.Random(1015)
    q = random_nevfun(rng, max_atoms=4)
    r = random_symmetric_ratfun(rng, max_degree=8)
    g = canonical_pair(r)
    plain = q.to_ratfun().eval_np
    cases = [(q, 40, 5, 7), (g, 40, 5, 7), (plain, 40, 5, 7),
             (r, 17, 3, 99), (q, 1, 1, 0), (g, 64, 8, 2)]
    for f, n_points, trials, seed in cases:
        assert negative_squares_report(f, n_points, trials, seed) == \
            _report_reference(f, n_points, trials, seed, 1e-9)
    assert negative_squares_report(r, 40, 5, 7, tol_rel=1e-3) == \
        _report_reference(r, 40, 5, 7, 1e-3)


def test_kernel_is_hermitian_bit_for_bit_and_counts_match_the_reference():
    # the count neither averages the kernel with its conjugate transpose nor
    # divides it by the balance; _report_reference does both
    pts, den = _first_point_sets(12345, 5, 40)
    rng = random.Random(1001)
    for _ in range(200):
        f = random_symmetric_ratfun(rng, max_degree=8)
        with np.errstate(all="ignore"):
            gram = _gram(den, f.eval_np(pts))
        assert np.array_equal(gram, gram.conj().swapaxes(-1, -2),
                              equal_nan=True)
        assert negative_squares_report(f, 40, 5, 12345) == \
            _report_reference(f, 40, 5, 12345, 1e-9)


def test_redrawn_trials_match_reference_and_leave_the_cache_intact():
    seed, trials, n_points = 31, 6, 9
    # trials whose first point set reaches Re z > 9 redraw
    redrawn = [t for t in range(trials) if np.any(_sample_points(
        np.random.default_rng(seed * 1_000_003 + t), n_points).real > 9)]
    assert 0 < len(redrawn) < trials
    pts, den = _first_point_sets(seed, trials, n_points)
    assert not pts.flags.writeable and not den.flags.writeable
    memo = pts.tobytes(), den.tobytes()
    assert negative_squares_report(_inf_right_of_9, n_points, trials, seed) \
        == _report_reference(_inf_right_of_9, n_points, trials, seed, 1e-9)
    # the redraws replaced rows of copies, not of the memoised arrays
    assert all(a is b for a, b in zip(
        _first_point_sets(seed, trials, n_points), (pts, den)))
    assert (pts.tobytes(), den.tobytes()) == memo
    f = NevFun.of(1, 2, [(0, 1), (12, 3)])
    assert negative_squares_report(f, n_points, trials, seed) == \
        _report_reference(f, n_points, trials, seed, 1e-9)
    # the memo keeps at most 64 MiB of complex denominators
    assert _first_point_sets.cache_info().maxsize * MAX_KERNEL_ENTRIES \
        * 16 <= 64 * 2 ** 20


def test_exhausted_redraws_stop_after_64_sets():
    seen = []

    def never_finite(z):
        seen.append(z.copy())
        return np.full(z.shape, np.inf)

    with pytest.raises(EvaluationFailure):
        negative_squares_report(never_finite, 10, 3, 0)
    # all first sets at once, then 63 more sets of the first trial, each
    # new: its first set is not drawn again
    assert [z.shape for z in seen] == [(30,)] + [(10,)] * 63
    sets = [seen[0][:10]] + seen[1:]
    assert len({z.tobytes() for z in sets}) == 64


def test_repeated_count_draws_no_generator_and_solves_once(monkeypatch):
    f = random_symmetric_ratfun(random.Random(1016), max_degree=8)
    first = negative_squares_report(f, 40, 5, 4242)
    calls = {"rng": 0, "eigvalsh": 0, "ev": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.random, "default_rng",
                        counted("rng", np.random.default_rng))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        counted("eigvalsh", np.linalg.eigvalsh))
    assert negative_squares_report(counted("ev", f.eval_np), 40, 5, 4242) \
        == first
    assert calls == {"rng": 0, "eigvalsh": 1, "ev": 1}


def test_huge_tolerance_counts_nothing_and_warns_nothing():
    cube = RatFun(Poly([0, 0, 0, 1]), Poly.const(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert negative_squares_report(cube, tol_rel=1e308)[0] == 0


@pytest.mark.parametrize("kwargs", [
    {"n_points": 0}, {"n_points": -3}, {"trials": 0},
    {"tol_rel": float("nan")}, {"tol_rel": float("inf")}, {"tol_rel": -1.0},
    {"seed": -1},
])
def test_negative_squares_rejects_bad_settings(kwargs):
    with pytest.raises(InvalidInput):
        negative_squares_report(MINUS_INV, **kwargs)


@pytest.mark.parametrize("eps", [0.0, -1e-5, float("nan"), float("inf"),
                                 Fraction(10 ** 400)])
def test_inversion_config_rejects_bad_levels(eps):
    with pytest.raises(InvalidInput):
        InversionConfig(eps_schedule=(eps,))


def test_inversion_config_caps_the_levels():
    schedule = tuple(2.0 ** -k for k in range(1, 66))
    with pytest.raises(InvalidInput, match="^at most 64 offset levels$"):
        InversionConfig(eps_schedule=schedule)
    assert len(InversionConfig(eps_schedule=schedule[:64]).eps_schedule) == 64


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_inversion_rejects_bad_tolerance(tol):
    with pytest.raises(InvalidInput):
        stieltjes_invert(MINUS_INV, InversionConfig(), tol=tol)


def test_gap_detect_refuses_an_end_beyond_the_float_range():
    with pytest.raises(InvalidInput, match="beyond the float range"):
        gap_detect(NevFun.of(0, 1, []), (-10 ** 400, 1))


def test_gap_detect_refuses_a_width_beyond_the_float_range():
    """Both ends are floats but their difference is not, so the inward pad
    would overflow."""
    with pytest.raises(InvalidInput, match="width beyond the float range"):
        gap_detect(MINUS_INV, (-10 ** 308, 10 ** 308))


@pytest.mark.parametrize("k", [10, 12])
def test_gap_detect_on_a_short_interval(k):
    """The padded ends of (0, 10^-k) stay floats, so a short interval is not
    refused as degenerate: without an atom in it it is a gap, with an atom
    at its midpoint it is not."""
    w = Fraction(1, 10 ** k)
    assert gap_detect(NevFun.of(0, 0, [(-5, 1)]), (0, w)) is True
    assert gap_detect(NevFun.of(0, 0, [(w / 2, 1)]), (0, w)) is False


@pytest.mark.parametrize("k", [12, 14, 16, 30])
def test_inversion_finds_a_unit_atom_on_a_wide_interval(k):
    """The detection floor falls with a width above 1, so the spike of -1/z
    at 0 is found over (-10^k, 10^k), not only up to k = 12."""
    cfg = InversionConfig(interval=(-10 ** k, 10 ** k))
    res = stieltjes_invert(MINUS_INV, cfg)
    assert abs(res.value - 1.0) < 1e-6 and len(res.peaks) == 1

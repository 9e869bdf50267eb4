import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prolate as P
from conftest import LAM0, LAM3, nystrom_matrix, with_shifted_root

# Sinc-kernel eigenvalues to 60 digits; the recipe is in
# test_high_precision_reference_eigenvalues.
REFERENCE_LAMBDA = {
    3.0: [
        0.97582863480923593752882909320072354900326955684831200484456,
        0.70996323854477222629425415543879069942326556306188520562423,
        0.205138678662571837387750870447211007743477066521914999653514,
        0.0182037995404362241747643034260301534315781369740763460358836,
        7.08147098415311301740427933238396201743197237942360731305571e-4,
        1.6551244455433179135638290613245111605452330206724152743213e-5,
        2.6410164727675479139744738699494562488403622360339825084156e-7,
        3.07373653342613718766034712810547899527779244275176217739545e-9,
        2.7281307431914814955957416293405740441530391083706273318366e-11,
        1.90856893711092434302956276016638613292184278520505070923047e-13,
        1.07979061889810023861366348758080823916516166409226857375069e-15,
        5.043115621899621576589607544042408683325830971278557297198e-18,
    ],
    8.0: [
        0.999997874997205816968411602633677542205685894138487064270122,
        0.999878976216734414421660924632639774876602467961405603875176,
        0.997004619439343390550089353930282296550905781153889303660736,
        0.96054567605580749430106396148877240135696442730011210450827,
        0.747902841906489643999307509515279564996402108324978511685159,
        0.32027663488554939145856648801860131325963267343329707452782,
        0.0607844268507101606842991189756827797383818559163243376018134,
        0.00612628939440449663482471650935707672559519054156834130201854,
        4.18252055975764307596799384306106624874746986501196235541185e-4,
        2.16630879414872751165065760552371531147270279958012326144901e-5,
        8.93042720352333919200615031343186827870627921372755757656315e-7,
        3.01373496503131340388097174415956531102598473700270772164398e-8,
        8.49658461302260008031007805632821645792531678520605711704341e-10,
        2.03340834736233448384991917688096203684087918427663161906061e-11,
        4.18526750506687754392983387548670080498270170228425586395559e-13,
        7.49050204955143820680873287217123933601423291590751539702811e-15,
    ],
    22.0: [
        0.999999999999999997464941950104104328876651943011599978729081,
        0.999999999999999569785254346965306247295523555484670896155632,
        0.999999999999964839801432549069952186372685202325111507580133,
        0.999999999998159682794910537985735920882174057263520331257619,
        0.999999999930811117910970470805564951627599052615415335459885,
        0.999999998014212266650581297707000367793169640199662337736373,
        0.999999954877545911358977286417022251686675617711915434059548,
        0.999999169664944691752172640110095428128222566430986045810489,
        0.999987458439111230207492784566128719945722876531627574323307,
        0.9998436214351268108561721414558504183074275238320534208606,
    ],
}


# ---------------------------------------------------------------------------
# Quadrature rule


def test_rule_order_one_is_midpoint():
    rule = P.gauss_legendre_rule(1)
    assert rule.nodes == pytest.approx([0.0], abs=1e-15)
    assert rule.weights == pytest.approx([2.0], abs=1e-15)


def test_rule_order_two_nodes():
    rule = P.gauss_legendre_rule(2)
    assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
    assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-15)


@pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 11, 40])
def test_rule_invariants(order):
    rule = P.gauss_legendre_rule(order)
    assert abs(rule.weights.sum() - 2.0) < 1e-13
    assert np.all(rule.weights > 0)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(np.abs(rule.nodes) < 1.0)
    assert np.allclose(rule.nodes, -rule.nodes[::-1], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    order=st.integers(min_value=1, max_value=10),
    coeffs=st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=8),
)
def test_rule_integrates_polynomials_exactly(order, coeffs):
    # Degree at most 2*order - 1 must integrate exactly.
    coeffs = coeffs[: 2 * order]
    rule = P.gauss_legendre_rule(order)
    values = np.polynomial.polynomial.polyval(rule.nodes, coeffs)
    exact = sum(
        c * ((1.0 ** (k + 1)) - ((-1.0) ** (k + 1))) / (k + 1) for k, c in enumerate(coeffs)
    )
    assert values @ rule.weights == pytest.approx(exact, abs=1e-10)


def test_rule_rejects_order_zero():
    with pytest.raises(ValueError):
        P.gauss_legendre_rule(0)


# ---------------------------------------------------------------------------
# Sinc kernel


def test_sinc_diagonal_value():
    assert P.sinc_kernel(2.0, 0.5, 0.5) == pytest.approx(2.0 / math.pi, rel=1e-15)


def test_sinc_zero_of_sine():
    assert P.sinc_kernel(math.pi, 1.0, 0.0) == pytest.approx(0.0, abs=1e-16)


def test_sinc_generic_value():
    assert P.sinc_kernel(1.0, 0.3, -0.2) == pytest.approx(
        math.sin(0.5) / (0.5 * math.pi), rel=1e-15
    )


def test_sinc_symmetric_in_arguments():
    x = np.linspace(-2, 2, 17)
    k = P.sinc_kernel(2.5, x[:, None], x[None, :])
    assert np.allclose(k, k.T, atol=1e-16)


@settings(max_examples=50, deadline=None)
@given(t=st.floats(0.5e-4, 2e-4), c=st.floats(0.5, 8.0))
def test_sinc_series_matches_quotient_near_switch(t, c):
    # Both evaluation branches agree around the switch-over threshold.
    x = t / c
    series = c / math.pi * (1.0 - t * t / 6.0 + t**4 / 120.0)
    quotient = c / math.pi * math.sin(t) / t
    value = P.sinc_kernel(c, x, 0.0)
    assert value == pytest.approx(series, rel=1e-12)
    assert value == pytest.approx(quotient, rel=1e-12)


def test_sinc_rejects_nonpositive_c():
    with pytest.raises(ValueError):
        P.sinc_kernel(0.0, 0.1, 0.2)


# ---------------------------------------------------------------------------
# Prolate spectrum


def test_small_c_rank_one_limit():
    spec = P.prolate_spectrum(0.01, 1)
    ratio = spec.eigenvalues[0] / (2 * 0.01 / math.pi)
    assert 0.99 <= ratio <= 1.0


def test_lambda0_near_asymptotic_at_c4():
    spec = P.prolate_spectrum(4.0, 1, order=120)
    assert abs(spec.eigenvalues[0] - P.lambda0_asymptotic(4.0)) < 2e-3


def test_refinement_oracle_c1():
    coarse = P.prolate_spectrum(1.0, 4, order=60)
    fine = P.prolate_spectrum(1.0, 4, order=120)
    assert np.abs(coarse.eigenvalues - fine.eigenvalues).max() <= 1e-10


def test_frozen_reference_eigenvalues(spec3):
    assert np.abs(spec3.eigenvalues - LAM3).max() < 1e-12


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 4.0, 8.0])
def test_eigenvalues_strictly_inside_unit_interval(c):
    spec = P.prolate_spectrum(c, 5, order=80)
    assert np.all(spec.eigenvalues > 0.0)
    assert np.all(spec.eigenvalues < 1.0 - 1e-12)
    assert np.all(np.diff(spec.eigenvalues) < 0.0)
    if c in LAM0:
        assert spec.eigenvalues[0] == pytest.approx(LAM0[c], abs=1e-12)


def test_trace_bounds_eigenvalue_sum():
    # The operator trace equals 2c/pi, so any partial eigenvalue sum
    # must stay below it.
    spec = P.prolate_spectrum(3.0, 8, order=120)
    assert spec.eigenvalues.sum() <= 2 * 3.0 / math.pi + 1e-8


def test_modes_weighted_orthonormal(spec3):
    w = spec3.rule.weights
    gram = (spec3.modes * w) @ spec3.modes.T
    assert np.abs(gram - np.eye(spec3.n_modes)).max() < 1e-8


def test_mode_parity_alternates(spec3):
    for n in range(spec3.n_modes):
        flipped = spec3.modes[n][::-1]
        assert np.abs(flipped - (-1) ** n * spec3.modes[n]).max() < 1e-8


def test_high_precision_reference_eigenvalues():
    """Every eigenvalue at c = 3 (12 modes) and c = 8 (16 modes) within 1e-12 relative.

    REFERENCE_LAMBDA comes from the library's own method in mpmath 1.3 at
    ``mp.dps = 60`` with 50 more Legendre terms (``ceil(c) + n + 80``); 80 more
    change no digit.  Per parity p, the block of degrees k = p, p + 2, ...
    has diagonal k(k+1) + c^2 (2k(k+1) - 1) / ((2k+3)(2k-1)) and off-diagonal
    c^2 (k+1)(k+2) / ((2k+3) sqrt((2k+1)(2k+5))).  ``mp.eigsy`` gives the
    eigenvectors beta in ascending order of the block's eigenvalues; the j-th is
    mode n = 2j + p.  With P_k(0) from P_0 = 1, P_1 = 0,
    P_{k+1}(0) = -k P_{k-1}(0) / (k+1):

        psi(0)  = sum beta_k sqrt(k + 1/2) P_k(0),        mu = sqrt(2) beta_0 / psi(0)        (n even)
        psi'(0) = sum beta_k sqrt(k + 1/2) k P_{k-1}(0),  mu = c sqrt(2/3) beta_1 / psi'(0)   (n odd)

    and lambda_n = c mu^2 / (2 pi).
    """
    for c in (3.0, 8.0):
        ref = np.array(REFERENCE_LAMBDA[c])
        lam = P.prolate_spectrum(c, ref.size).eigenvalues
        assert np.abs(lam / ref - 1.0).max() <= 1e-12


@pytest.mark.parametrize("order", [60, 61, 120, 121])
def test_modes_exactly_of_parity_in_mode_order(order):
    # At c = 22 the top of the spectrum agrees with 1 to roundoff, so
    # only the parity of each mode can tell modes 0, 1, 2, ... apart.
    c = 22.0
    n_modes = 10
    spec = P.prolate_spectrum(c, n_modes, order=order)
    for n in range(n_modes):
        assert np.array_equal(spec.modes[n][::-1], (-1) ** n * spec.modes[n])
    assert np.abs(spec.eigenvalues - REFERENCE_LAMBDA[c]).max() <= 1e-14


@pytest.mark.parametrize("c", [22.0, 30.0])
def test_modes_determined_where_eigenvalues_cluster_at_one(c):
    # Within 1e-16 of 1 any mix of eigenvectors of the integral operator solves it to
    # roundoff: Nystrom modes moved mode 0's extension by 1.8e-2 (c = 22) and 2.4
    # (c = 30) between orders 120 and 200.  The differential operator tells them apart.
    x = np.linspace(-1.0, 1.0, 101)
    coarse, fine = (P.prolate_spectrum(c, 6, order=order) for order in (120, 200))
    for n in range(6):
        assert np.abs(P.pswf_extend(coarse, n, x) - P.pswf_extend(fine, n, x)).max() <= 1e-10


@pytest.mark.parametrize("c", [60.0, 100.0, 150.0])
def test_default_order_resolves_top_of_spectrum(c):
    # At ceil(2c/pi) + 30 nodes the largest eigenvalue overshot 1 (by
    # 0.83 at c = 100); the default order must keep lambda_0 at 1 up to
    # roundoff.
    spec = P.prolate_spectrum(c, 8)
    fine = P.prolate_spectrum(c, 8, order=int(1.5 * c) + 60)
    assert spec.eigenvalues[0] <= 1.0 + 1e-13
    assert np.abs(spec.eigenvalues - fine.eigenvalues).max() <= 1e-12


def test_sign_convention_first_significant_sample_positive(spec3):
    for row in spec3.modes:
        nz = np.flatnonzero(np.abs(row) > 1e-8)
        assert row[nz[0]] > 0


def test_eigenvalues_invariant_under_node_reversal():
    # The Nystrom oracle agrees with itself under node reversal and with the library.
    rule = P.gauss_legendre_rule(80)
    direct = np.linalg.eigvalsh(nystrom_matrix(3.0, rule.nodes, rule.weights))
    reversed_ = np.linalg.eigvalsh(
        nystrom_matrix(3.0, rule.nodes[::-1].copy(), rule.weights[::-1].copy())
    )
    assert np.abs(np.sort(direct)[::-1][:8] - np.sort(reversed_)[::-1][:8]).max() < 1e-12
    library = P.prolate_spectrum(3.0, 8, order=80).eigenvalues
    assert np.abs(np.sort(direct)[::-1][:8] - library).max() < 1e-12


def test_oversampling_precondition_enforced():
    with pytest.raises(ValueError, match="under-resolves"):
        P.prolate_spectrum(8.0, 2, order=20)


@pytest.mark.parametrize("c,n_modes", [(600.0, 1), (400.0, 8)])
def test_eigenvalue_over_one_refused(c, n_modes, monkeypatch):
    # The operator's norm is below 1.  A solve whose leading coefficients are
    # twice too large returns lambda of about 4, which must not pass silently.
    solve = P.core._symmetric_eigdesc

    def doubled_lead(a):
        vals, vecs = solve(a)
        vecs = vecs.copy()
        vecs[0] *= 2.0
        return vals, vecs

    monkeypatch.setattr(P.core, "_symmetric_eigdesc", doubled_lead)
    with pytest.raises(P.NumericalFailure, match=f"exceeds 1 .* at c={c:g}"):
        P.prolate_spectrum(c, n_modes)


@pytest.mark.parametrize("c,n_modes", [(600.0, 1), (400.0, 8)])
def test_large_c_eigenvalues_within_gap_floor_of_one(c, n_modes):
    # A Nystrom solve at order ceil(c) + 30 overshot 1 by 7.3e-13 at c = 600 (mode 0)
    # and 4.1e-12 at c = 400 (8 modes); the tridiagonal stays within roundoff of 1.
    lam = P.prolate_spectrum(c, n_modes).eigenvalues
    assert np.abs(lam - 1.0).max() <= P.core.GAP_FLOOR


def test_mode_count_validation():
    with pytest.raises(ValueError, match="exceeds"):
        P.prolate_spectrum(1.0, 50, order=40)
    with pytest.raises(ValueError):
        P.prolate_spectrum(-1.0, 2)
    with pytest.raises(ValueError):
        P.prolate_spectrum(1.0, 0)


def test_noise_floor_guard():
    # Mode 10 at c = 1 has a leading Legendre coefficient of 4.5e-13, so its
    # eigenvalue is not resolved and is refused.
    with pytest.raises(ValueError, match="noise floor"):
        P.prolate_spectrum(1.0, 25, order=60)


# ---------------------------------------------------------------------------
# Asymptotics


def test_lambda0_asymptotic_values():
    assert P.lambda0_asymptotic(4.0) == pytest.approx(1 - 8 * math.sqrt(math.pi) * math.e**-8)
    assert 1 - P.lambda0_asymptotic(8.0) == pytest.approx(2.2567e-6, rel=1e-4)
    assert P.lambda0_asymptotic(8.0) > P.lambda0_asymptotic(4.0)
    with pytest.raises(ValueError):
        P.lambda0_asymptotic(0.0)


def test_gap_ratio_trend():
    r = {
        c: P.asymptotic_gap_ratio(c, P.prolate_spectrum(c, 1, order=120).eigenvalues[0])
        for c in (4.0, 8.0)
    }
    assert r[4.0] == pytest.approx(0.86498586128, abs=1e-9)
    assert r[8.0] == pytest.approx(0.941653867189, abs=1e-8)
    assert abs(r[8.0] - 1) < abs(r[4.0] - 1)


@pytest.mark.parametrize("c", [17.0, 18.0, 24.0])
def test_gap_ratio_refuses_roundoff_gap(c):
    lam0 = P.prolate_spectrum(c, 1).eigenvalues[0]
    assert 1.0 - lam0 <= P.core.GAP_FLOOR
    with pytest.raises(P.NumericalFailure, match="roundoff"):
        P.asymptotic_gap_ratio(c, lam0)


# ---------------------------------------------------------------------------
# Bandlimited extension


def test_extension_restricts_to_samples(spec3):
    values = P.pswf_extend(spec3, 0, spec3.rule.nodes)
    assert np.abs(values - spec3.modes[0]).max() < 1e-6


def test_extension_decays_away_from_interval(spec3):
    assert abs(P.pswf_extend(spec3, 0, 5.0)) < abs(P.pswf_extend(spec3, 0, 0.0))


def test_extension_odd_mode_vanishes_at_origin(spec3):
    assert abs(P.pswf_extend(spec3, 1, 0.0)) < 1e-8


def test_extension_scalar_vector_consistency(spec3):
    xs = np.array([-1.7, 0.3, 2.2])
    vec = P.pswf_extend(spec3, 2, xs)
    assert vec == pytest.approx([P.pswf_extend(spec3, 2, float(x)) for x in xs], rel=1e-14)


def test_extension_mode_range_validated(spec3):
    with pytest.raises(ValueError):
        P.pswf_extend(spec3, 6, 0.0)


@pytest.mark.parametrize("shape", [(2, 120), (120, 1), (3, 4)])
def test_extension_refuses_multidimensional_points(spec3, shape):
    # Unchecked, a 2-D array broadcasts against the nodes into values of a meaningless shape.
    with pytest.raises(ValueError, match="1-D"):
        P.pswf_extend(spec3, 0, np.zeros(shape))


def test_extension_refuses_oversized_kernel_before_allocating(spec3):
    # 2^26 points at order 120 would need a 60 GiB kernel; the broadcast
    # view of the points costs no memory.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            P.pswf_extend(spec3, 0, np.broadcast_to(0.0, (2**26,)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: P.gauss_legendre_rule(20000), id="rule"),
        pytest.param(lambda: P.prolate_spectrum(3.0, 1, order=20000), id="spectrum"),
        pytest.param(lambda: P.LineGrid(10.0, (20000,)), id="line-grid"),
    ],
)
def test_gauss_rule_refuses_budget_before_allocating(call):
    # The rule of order 20000 would solve a 20000 x 20000 companion matrix of 2.98 GiB.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_extension_kernel_evaluated_once_per_spectrum_and_points(monkeypatch):
    spec = P.prolate_spectrum(3.0, 6, order=120)
    calls = []
    product = P.core._sinc_product
    monkeypatch.setattr(P.core, "_sinc_product", lambda *args: calls.append(1) or product(*args))
    xs = np.linspace(-3.0, 3.0, 50)
    for n in range(spec.n_modes):
        P.pswf_extend(spec, n, xs)
    assert len(calls) == 1
    P.pswf_extend(spec, 2, xs[:-1])
    assert len(calls) == 2
    xs[7] += 0.5  # the same array, mutated in place
    P.pswf_extend(spec, 2, xs)
    assert len(calls) == 3
    P.pswf_extend(spec, 4, xs.copy())
    assert len(calls) == 3
    P.pswf_extend(dataclasses.replace(spec), 4, xs)
    assert len(calls) == 4


def test_extension_columns_equal_direct_kernel_product():
    spec = P.prolate_spectrum(3.0, 6, order=120)
    xs = np.linspace(-4.0, 4.0, 81)
    kern = P.sinc_kernel(spec.c, xs[:, None], spec.rule.nodes[None, :])
    for n in range(spec.n_modes):
        terms = spec.rule.weights * spec.modes[n]
        direct = kern @ terms / spec.eigenvalues[n]
        cached = P.pswf_extend(spec, n, xs)
        # Relative to the summed magnitudes |k| @ |terms| / lambda_n, the scale of any
        # summation order's rounding: the plunge modes cancel, |direct| up to 270 times smaller.
        scale = (np.abs(kern) @ np.abs(terms)).max() / spec.eigenvalues[n]
        assert np.abs(cached - direct).max() <= 1e-14 * scale
        again = P.pswf_extend(spec, n, xs)
        assert np.array_equal(again, cached)
        again[0] += 1.0  # the caller owns what it gets back
        assert np.array_equal(P.pswf_extend(spec, n, xs), cached)


@pytest.mark.parametrize("c, n_modes", [(0.5, 8), (3.0, 12), (13.9, 24), (40.0, 44), (100.0, 85)])
def test_extension_matches_direct_kernel_near_nodes(c, n_modes):
    # Every mode the spectrum resolves, at points on, next to and between the
    # nodes, so that |c (x - y)| falls on both sides of the rank-two form's
    # near-pair threshold, and at points off (-1, 1).
    spec = P.prolate_spectrum(c, n_modes)
    nodes = spec.rule.nodes
    offsets = (0.0, 1e-12, -1e-12, -1e-9, 3e-7, -1e-5, 2e-4)
    xs = np.concatenate([nodes + dx for dx in offsets] + [nodes * (1.0 + 1e-7), np.linspace(-8.0, 8.0, 801)])
    kern = P.sinc_kernel(c, xs[:, None], nodes[None, :])
    for n in range(n_modes):
        terms = spec.rule.weights * spec.modes[n]
        direct = kern @ terms / spec.eigenvalues[n]
        scale = (np.abs(kern) @ np.abs(terms)).max() / spec.eigenvalues[n]
        assert np.abs(P.pswf_extend(spec, n, xs) - direct).max() <= 1e-14 * scale


@settings(max_examples=80, deadline=None)
@given(
    position=st.floats(0.0, 1.0),
    extra_order=st.integers(0, 40),
    kind=st.sampled_from(["beyond", "all-near", "node-hits", "spread"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_extension_matches_direct_kernel_on_any_points(position, extra_order, kind, seed):
    # c from 0.01 to 100 (to 0.04 where every pair is near), on point sets with no near
    # pair (all beyond |x| = 1 + 0.1/c), where every pair is near, on and next to every
    # node, and spread over and around (-1, 1); relative to the summed magnitudes.
    c = 0.01 + 0.03 * position if kind == "all-near" else 10.0 ** (4.0 * position - 2.0)
    spec = P.prolate_spectrum(c, 4, order=P.min_quadrature_order(c) + extra_order)
    nodes = spec.rule.nodes
    rng = np.random.default_rng(seed)
    reach = P.core._NEAR_PAIR / c  # a point within reach of every node has only near pairs
    if kind == "beyond":
        xs = rng.choice([-1.0, 1.0], 40) * (1.0 + reach) * (1.0 + rng.uniform(1e-12, 2.0, 40))
    elif kind == "all-near":
        xs = rng.uniform(-1.0, 1.0, 40) * (reach - 1.0) * (1.0 - 1e-9)
    elif kind == "node-hits":
        nudges = rng.choice([-1.0, 1.0], nodes.size) * 10.0 ** rng.uniform(-15.0, -2.0, nodes.size)
        xs = np.concatenate([nodes, nodes + nudges])
    else:
        xs = rng.uniform(-3.0, 3.0, 200)
    kern = P.sinc_kernel(c, xs[:, None], nodes[None, :])
    for n in range(spec.n_modes):
        terms = spec.rule.weights * spec.modes[n]
        direct = kern @ terms / spec.eigenvalues[n]
        scale = (np.abs(kern) @ np.abs(terms)).max() / spec.eigenvalues[n]
        assert np.abs(P.pswf_extend(spec, n, xs) - direct).max() <= 1e-14 * scale


@pytest.mark.parametrize(
    "x",
    [
        pytest.param(math.inf, id="inf"),
        pytest.param(-math.inf, id="minus-inf"),
        pytest.param(math.nan, id="nan"),
        pytest.param(np.array([0.0, 2.0, math.inf]), id="inf-in-array"),
        pytest.param(np.array([math.nan, 0.5]), id="nan-in-array"),
        pytest.param(np.array([0.5, 1e308]), id="c-x-overflows"),
    ],
)
def test_extension_refuses_non_finite_points(spec3, monkeypatch, x):
    calls = []
    monkeypatch.setattr(P.core, "_sinc_product", lambda *args: calls.append(1))
    with pytest.raises(ValueError, match="finite"):
        P.pswf_extend(spec3, 0, x)
    assert not calls


def test_spectrum_arrays_are_read_only(spec3):
    with pytest.raises(ValueError):
        spec3.modes[0, 0] = 1.0
    with pytest.raises(ValueError):
        spec3.eigenvalues[0] = 0.5
    with pytest.raises(ValueError):
        spec3.coefficients[0, 0] = 1.0


def test_modes_evaluated_on_first_read_only(monkeypatch):
    # The eigenvalues need only P_k(0); the table at the nodes is built for .modes, once.
    calls = []
    table = P.core._legendre_table
    monkeypatch.setattr(P.core, "_legendre_table", lambda *args: calls.append(1) or table(*args))
    spec = P.prolate_spectrum(3.0, 6, order=120)
    assert not calls
    modes = spec.modes
    assert len(calls) == 1
    assert spec.modes is modes
    P.pswf_extend(spec, 0, 0.5)
    assert len(calls) == 1


def test_modes_are_the_coefficient_expansion(spec3):
    # Row n is sum_k a_kn P_k at the nodes, up to the sign modes fixes.
    legendre = np.polynomial.legendre.legvander(spec3.rule.nodes, len(spec3.coefficients) - 1)
    direct = (legendre @ spec3.coefficients).T
    for n in range(spec3.n_modes):
        sign = math.copysign(1.0, direct[n] @ spec3.modes[n])
        assert np.abs(sign * direct[n] - spec3.modes[n]).max() < 1e-13


def test_shifted_spectrum_keeps_modes(spec3):
    shifted = with_shifted_root(spec3, 1e-3)
    assert shifted.eigenvalues[0] != spec3.eigenvalues[0]
    assert np.array_equal(shifted.modes, spec3.modes)


def test_extension_retains_no_kernel():
    # What stays alive after the call (the extensions of all modes, the key
    # and the result) is smaller than the len(x) x order kernel.
    spec = P.prolate_spectrum(3.0, 6, order=120)
    xs = np.linspace(-4.0, 4.0, 2000)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        ext = P.pswf_extend(spec, 0, xs)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ext.shape == xs.shape
    assert after - before < xs.size * spec.rule.order * 8

"""Expansion constants, specialisations, and the composition identity."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import hankelfh as hf
from hankelfh.asymptotics import _field_pair_term
from hankelfh.chebyshev import ChebSeries
from hankelfh.errors import DomainError, HypothesisError, SeparationError

LOG2 = np.log(2.0)
GUE_CONSTANTS = (
    -LOG2 - 0.75,
    np.log(2 * np.pi),
    -1.0 / 12.0,
    -0.16542114370045092,
)


def cfg_of(*sings):
    return hf.SingularityConfig(tuple(sings))


def constants(V, measure, W=None, cfg=None):
    return hf.expansion_coefficients(V, measure, W, cfg or cfg_of())


# ------------------------------------------------------------- GUE reduction


def test_gue_reduction_constants(gue_potential, gue_measure):
    coeffs = hf.expansion_coefficients(gue_potential, gue_measure, None, cfg_of())
    for got, want in zip(coeffs.as_tuple(), GUE_CONSTANTS):
        assert abs(got - want) < 1e-12


# ------------------------------------------------------------------------- C1


def test_c1_gue(gue_potential, gue_measure):
    assert abs(constants(gue_potential, gue_measure).C1 - (-LOG2 - 0.75)) < 1e-14


def _odd_perturbed(eps):
    # centered odd perturbation eps*(x^3 - 1.5x) of 1.85x^2 + 0.1x^4;
    # mass and centering conditions hold for every eps
    V = hf.Potential([0, -1.5 * eps, 1.85, eps, 0.1])
    return V, hf.EquilibriumMeasure(
        psi=hf.compute_density(V), ell=0.0, regularity=None
    )


def test_c1_odd_perturbation_enters_at_second_order():
    # the linear-in-V contribution of an odd perturbation vanishes by odd
    # symmetry; only the quadratic cross term with the induced odd density
    # survives, so C1(eps) - C1(0) must scale as eps^2
    base_V, base_m = _odd_perturbed(0.0)
    base = constants(base_V, base_m).C1
    r1 = constants(*_odd_perturbed(0.1)).C1 - base
    r2 = constants(*_odd_perturbed(0.05)).C1 - base
    assert abs(r1) < 1e-3
    assert abs(r1 / r2 - 4.0) < 0.05


def test_c2_potential_term_ignores_odd_part():
    # the C2 integral of (V - 2x^2)/sqrt(1-x^2) is linear in V: odd parts
    # contribute exactly zero
    cfg = cfg_of(hf.Singularity(0.2, 1.0, 0.0))
    V0, m0 = _odd_perturbed(0.0)
    V1, m1 = _odd_perturbed(0.2)
    term0 = hf.expansion_coefficients(V0, m0, None, cfg).term_breakdown["C2"]
    term1 = hf.expansion_coefficients(V1, m1, None, cfg).term_breakdown["C2"]
    assert abs(term0["potential"] - term1["potential"]) < 1e-14


def test_c1_quartic_against_quadrature(quartic_problem):
    rescaled, measure = quartic_problem
    V, psi = rescaled.V, measure.psi

    def integrand(x):
        return np.sqrt(1 - x * x) * (V(x) - 2 * x * x) * (2 / np.pi + psi(x))

    oracle, _ = quad(integrand, -1, 1, limit=200)
    expected = -LOG2 - 0.75 - 0.5 * oracle
    assert abs(constants(V, measure).C1 - expected) < 1e-11


# ------------------------------------------------------------------------- C2


def test_c2_gue_plain(gue_potential, gue_measure):
    c2 = constants(gue_potential, gue_measure).C2
    assert abs(c2 - np.log(2 * np.pi)) < 1e-14


def test_c2_single_jump_closed_form(gue_potential, gue_measure):
    t, beta = 0.35, 0.08j
    c2 = constants(
        gue_potential, gue_measure, None, cfg_of(hf.Singularity(t, 0.0, beta))
    ).C2
    expected = np.log(2 * np.pi) + 2j * beta * (
        np.arcsin(t) + t * np.sqrt(1 - t * t)
    )
    assert abs(c2 - expected) < 1e-13


def test_c2_constant_field_adds_its_value(gue_potential, gue_measure):
    c = 0.37
    c2 = constants(gue_potential, gue_measure, ChebSeries([c])).C2
    assert abs(c2 - (np.log(2 * np.pi) + c)) < 1e-14


# ------------------------------------------------------------------------- C3


def test_c3_values(gue_potential, gue_measure):
    def c3_of(*sings):
        return constants(gue_potential, gue_measure, None, cfg_of(*sings)).C3

    assert abs(c3_of() - (-1 / 12)) < 1e-15
    c3 = c3_of(hf.Singularity(0.1, 1.0, 0.0))
    assert abs(c3 - (-1 / 12 + 0.25)) < 1e-15
    y = 0.13
    c3 = c3_of(hf.Singularity(0.1, 0.0, 1j * y))
    assert abs(c3 - (-1 / 12 + y * y)) < 1e-15


# ------------------------------------------------------------------------- C4


def test_c4_gue_plain(gue_potential, gue_measure):
    c4 = constants(gue_potential, gue_measure).C4
    assert abs(c4 - hf.zeta_prime_minus_one()) < 1e-14


def test_c4_root_singularity_collapse(gue_potential, gue_measure):
    # beta = 0, Gaussian potential: only the Barnes factor and the half-width
    # term survive (log(pi psi / 2) = 0 for psi = 2/pi)
    t, alpha = 0.4, 0.9
    c4 = constants(
        gue_potential, gue_measure, None, cfg_of(hf.Singularity(t, alpha, 0.0))
    ).C4
    expected = (
        hf.zeta_prime_minus_one()
        + 2 * hf.log_barnes_g(1 + alpha / 2)
        - hf.log_barnes_g(1 + alpha)
        + alpha ** 2 / 4 * np.log(2 * np.sqrt(1 - t * t))
    )
    assert abs(c4 - expected) < 1e-13


def inner_pv_w_prime(W, y):
    """pv int W'(x) sqrt(1-x^2)/(x-y) dx by exact-division subtraction."""
    npc = np.polynomial.chebyshev
    h = npc.chebmul(npc.chebder(W.coeffs), npc.poly2cheb([1.0, 0, -1.0]))
    py = npc.chebval(y, h)
    q, _ = npc.chebdiv(npc.chebsub(h, [py]), [-y, 1.0])
    val, _ = quad(lambda th: npc.chebval(np.cos(th), q), 0, np.pi,
                  epsabs=1e-12, epsrel=1e-12, limit=300)
    return val


def tensor_double_pv(W, nodes=400):
    """-(1/(4 pi^2)) int W/sqrt (pv int W' sqrt/(x-y) dx) dy via
    Gauss-Chebyshev in the outer variable."""
    theta = (2 * np.arange(1, nodes + 1) - 1) * np.pi / (2 * nodes)
    y = np.cos(theta)
    total = sum(W(yi) * inner_pv_w_prime(W, yi) for yi in y) * np.pi / nodes
    return -total / (4 * np.pi ** 2)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_c4_double_pv_single_mode(k):
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    W = ChebSeries(coeffs)
    assert abs(_field_pair_term(W) - k / 8.0) < 1e-15
    assert abs(tensor_double_pv(W) - k / 8.0) < 1e-10


def test_c4_double_pv_mixed_field():
    W = ChebSeries([0.0, 0.5, 0.25])
    expected = (1 * 0.5 ** 2 + 2 * 0.25 ** 2) / 8.0
    assert abs(_field_pair_term(W) - expected) < 1e-15
    assert abs(tensor_double_pv(W) - expected) < 1e-10


# ------------------------------------------------------------------ invariants


def test_realness_invariant(gue_potential, gue_measure):
    cfg = cfg_of(
        hf.Singularity(-0.5, 0.7, 0.05j),
        hf.Singularity(0.2, 1.3, -0.11j),
    )
    W = ChebSeries([0.1, 0.2, -0.3])
    coeffs = hf.expansion_coefficients(gue_potential, gue_measure, W, cfg)
    for value in coeffs.as_tuple():
        assert abs(value.imag) < 1e-10


def test_composition_identity(quartic_problem):
    rescaled, measure = quartic_problem
    cfg = cfg_of(
        hf.Singularity(-0.35, 0.8, 0.06j),
        hf.Singularity(0.45, 1.1, -0.04j),
    )
    W = ChebSeries([0.05, 0.3, -0.15, 0.08])
    direct = hf.expansion_coefficients(rescaled.V, measure, W, cfg).as_tuple()
    composed = hf.composed_constants(rescaled.V, measure, W, cfg)
    for a, b in zip(direct, composed):
        assert abs(a - b) < 1e-10


def test_term_breakdown_sums_to_constants(gue_potential, gue_measure):
    cfg = cfg_of(hf.Singularity(0.3, 0.5, 0.1j))
    W = ChebSeries([0.0, 0.25])
    coeffs = hf.expansion_coefficients(gue_potential, gue_measure, W, cfg)
    for name, total in zip(
        ("C1", "C2", "C3", "C4"), coeffs.as_tuple()
    ):
        assert abs(sum(coeffs.term_breakdown[name].values()) - total) < 1e-14


@st.composite
def expansion_problems(draw):
    """(V, W, cfg) anywhere in the hypothesis domain: the Gaussian potential
    or an even quartic c2 x^2 + c4 x^4 with 2 c2 + 3 c4 = 4 (support
    [-1, 1]), a 4-term field, and 1-3 singularities with Re alpha in (-1, 3],
    complex alpha and beta, |Re beta| < 1/4 and separated locations."""
    c4 = draw(st.one_of(st.just(0.0), st.floats(0.05, 2.0)))
    V = hf.Potential([0.0, 0.0, 2.0 - 1.5 * c4, 0.0, c4])
    W = ChebSeries(draw(st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4)))
    ts = sorted(draw(st.lists(st.floats(-0.95, 0.95), min_size=1, max_size=3)))
    assume(all(b - a > 0.05 for a, b in zip(ts, ts[1:])))
    parts = st.floats(-1.0, 1.0)
    sings = tuple(
        hf.Singularity(
            t,
            complex(draw(st.floats(-1.0, 3.0, exclude_min=True)), draw(parts)),
            complex(draw(st.floats(-0.25, 0.25, exclude_min=True, exclude_max=True)),
                    draw(parts)),
        )
        for t in ts
    )
    return V, W, cfg_of(*sings)


@settings(max_examples=100, deadline=None)
@given(expansion_problems())
def test_reflection_and_composition_over_the_domain(problem):
    # x -> -x maps (W(x), t, alpha, beta) to (W(-x), -t, alpha, -beta) and
    # leaves the determinant of an even V unchanged; the three deformation
    # ratios plus the Gaussian and root-type constants rebuild C1..C4
    V, W, cfg = problem
    measure = hf.equilibrium_measure(V)
    direct = hf.expansion_coefficients(V, measure, W, cfg).as_tuple()
    W_ref = ChebSeries(W.coeffs * (-1.0) ** np.arange(len(W.coeffs)))
    cfg_ref = cfg_of(
        *(hf.Singularity(-s.t, s.alpha, -s.beta) for s in reversed(cfg.singularities))
    )
    reflected = hf.expansion_coefficients(V, measure, W_ref, cfg_ref).as_tuple()
    composed = hf.composed_constants(V, measure, W, cfg)
    for name, a, b, c in zip(("C1", "C2", "C3", "C4"), direct, reflected, composed):
        scale = max(1.0, abs(a))
        assert abs(b - a) <= 1e-10 * scale, (name, "reflection", a, b)
        assert abs(c - a) <= 1e-10 * scale, (name, "composition", a, c)


# ------------------------------------------------------------ specialisations


def test_krasovsky_empty_and_alpha_zero():
    assert hf.krasovsky_log_ratio(cfg_of(), 17) == 0
    assert abs(hf.krasovsky_log_ratio(cfg_of(hf.Singularity(0.5, 0.0, 0.0)), 9)) < 1e-15


def test_krasovsky_alpha2_at_origin_term_by_term():
    n = 12
    value = hf.krasovsky_log_ratio(cfg_of(hf.Singularity(0.0, 2.0, 0.0)), n)
    # A = 2: -2n log 2; (alpha^2/4) log(2 sqrt(1) n) = log(2n);
    # (alpha n/2)(2 t^2 - 1) = -n; G(2)^2/G(3) = 1
    expected = -2 * n * LOG2 + np.log(2 * n) - n
    assert abs(value - expected) < 1e-13


def test_krasovsky_rejects_jumps():
    with pytest.raises(DomainError):
        hf.krasovsky_log_ratio(cfg_of(hf.Singularity(0.0, 1.0, 0.05j)), 5)


def test_krasovsky_coefficient_consistency(gue_potential, gue_measure):
    # predict minus the Gaussian constants must reproduce the correlation
    # formula slot by slot (the A2 gate at unit tolerance 1e-12)
    from hankelfh.asymptotics import _krasovsky_coefficients

    cfg = cfg_of(hf.Singularity(0.3, 1.0, 0.0))
    coeffs = hf.expansion_coefficients(gue_potential, gue_measure, None, cfg)
    kras = _krasovsky_coefficients(cfg)
    for got, base, want in zip(coeffs.as_tuple(), GUE_CONSTANTS, kras):
        assert abs(got - base - want) < 1e-12


def test_ratio_beta_zero_betas():
    cfg = cfg_of(hf.Singularity(-0.2, 0.8, 0.0), hf.Singularity(0.6, 1.4, 0.0))
    assert hf.ratio_beta(cfg, 23) == 0


def test_ratio_beta_single_imaginary_jump_at_origin():
    y, n = 0.09, 31
    cfg = cfg_of(hf.Singularity(0.0, 0.0, 1j * y))
    value = hf.ratio_beta(cfg, n)
    expected = y * y * np.log(8 * n) + 2 * hf.log_barnes_g(1 + 1j * y).real
    assert abs(value - expected) < 1e-13


def test_ratio_beta_pairwise_factor():
    t1, t2 = -0.3, 0.5
    b1, b2 = 0.05j, 0.07j
    cfg = cfg_of(hf.Singularity(t1, 0.0, b1), hf.Singularity(t2, 0.0, b2))
    lone1 = hf.ratio_beta(cfg_of(hf.Singularity(t1, 0.0, b1)), 10)
    lone2 = hf.ratio_beta(cfg_of(hf.Singularity(t2, 0.0, b2)), 10)
    t_12 = (1 - t1 * t2 - np.sqrt((1 - t1 * t1) * (1 - t2 * t2))) / abs(t1 - t2)
    pair = 2 * b1 * b2 * np.log(t_12)
    assert abs(hf.ratio_beta(cfg, 10) - (lone1 + lone2 + pair)) < 1e-13


def test_ratio_potential_gaussian_is_zero(gue_potential, gue_measure):
    cfg = cfg_of(hf.Singularity(0.25, 0.7, 0.03j))
    assert abs(hf.ratio_potential(gue_potential, gue_measure, cfg, 14)) < 1e-13


def test_ratio_field_examples(gue_potential, gue_measure):
    assert hf.ratio_field(gue_potential, gue_measure, None, cfg_of(), 9) == 0
    c = 0.42
    value = hf.ratio_field(gue_potential, gue_measure, ChebSeries([c]), cfg_of(), 9)
    assert abs(value - 9 * c) < 1e-14
    # W = T_2: n-term -1/2, constant k c_k^2 / 8 = 1/4
    value = hf.ratio_field(
        gue_potential, gue_measure, ChebSeries([0, 0, 1.0]), cfg_of(), 9
    )
    assert abs(value - (-4.5 + 0.25)) < 1e-14


def test_ratio_field_constant_with_singularities(gue_potential, gue_measure):
    # a constant field only rescales the weight: the alpha and beta terms cancel
    cfg = cfg_of(hf.Singularity(0.3, 1.2, 0.08j))
    c, n = 0.31, 7
    value = hf.ratio_field(gue_potential, gue_measure, ChebSeries([c]), cfg, n)
    assert abs(value - n * c) < 1e-13


# ------------------------------------------------------- predictions and GUE


def test_cumulative_measure_endpoints(gue_measure):
    assert abs(hf.cumulative_measure(gue_measure, -1.0) - 1.0) < 1e-14
    assert abs(hf.cumulative_measure(gue_measure, 1.0)) < 1e-14
    assert abs(hf.cumulative_measure(gue_measure, 0.0) - 0.5) < 1e-14


def test_cumulative_measure_against_quadrature(quartic_problem):
    _, measure = quartic_problem
    for t in (-0.7, 0.0, 0.4, 0.9):
        oracle, _ = quad(
            lambda x: measure.psi(x) * np.sqrt(1 - x * x), t, 1, limit=200
        )
        assert abs(hf.cumulative_measure(measure, t) - oracle) < 1e-12


def test_cumulative_measure_domain():
    with pytest.raises(DomainError):
        hf.cumulative_measure(
            hf.EquilibriumMeasure(psi=ChebSeries([1.0]), ell=0.0, regularity=None),
            1.5,
        )


def test_predict_small_n_sanity(gue_potential, gue_measure):
    pred = hf.predict_log_hankel(gue_potential, gue_measure, None, cfg_of(), 1)
    exact = np.log(np.sqrt(np.pi / 2))
    assert abs(pred.value.real - exact) < 1.0
    assert pred.error_scale == 0.0  # log(1) = 0


def test_predict_error_scale_formula(gue_potential, gue_measure):
    pred = hf.predict_log_hankel(gue_potential, gue_measure, None, cfg_of(), 25)
    assert abs(pred.error_scale - np.log(25) / 25) < 1e-15
    cfg = cfg_of(hf.Singularity(0.0, 0.0, 0.1 + 0.0j))
    pred = hf.predict_log_hankel(gue_potential, gue_measure, None, cfg, 25)
    assert abs(pred.error_scale - np.log(25) / 25 ** (1 - 0.4)) < 1e-13


def test_predict_validates_n(gue_potential, gue_measure):
    with pytest.raises(DomainError):
        hf.predict_log_hankel(gue_potential, gue_measure, None, cfg_of(), 0)


def test_gue_exact_small_values():
    assert abs(hf.gue_exact_log(1) - 0.5 * np.log(np.pi / 2)) < 1e-15
    assert abs(hf.gue_exact_log(2) - (np.log(2 * np.pi) - 6 * LOG2)) < 1e-14


def test_gue_exact_large_n_against_mpmath():
    import mpmath as mp

    n = 40
    with mp.workdps(40):
        oracle = float(
            mp.mpf(n) / 2 * mp.log(2 * mp.pi)
            - n * n * mp.log(2)
            - mp.mpf(n * n) / 2 * mp.log(n)
            + mp.fsum(mp.loggamma(j + 1) for j in range(1, n))
        )
    assert abs(hf.gue_exact_log(n) - oracle) < 1e-9 * abs(oracle)


# ----------------------------------------------------------- hypothesis gates


def test_singularity_hypothesis_validation():
    with pytest.raises(HypothesisError):
        hf.Singularity(0.2, -1.0, 0.0)
    with pytest.raises(HypothesisError):
        hf.Singularity(0.2, 0.0, 0.25)
    with pytest.raises(HypothesisError):
        hf.Singularity(1.0, 0.0, 0.0)
    # every comparison with NaN is false, so a NaN alpha passed the range
    # check Re(alpha) <= -1, and an infinite alpha or Im beta passed it too
    nan, inf = float("nan"), float("inf")
    for field, args in [
        ("t", (nan,)), ("t", (inf,)), ("t", (-inf,)),
        ("alpha", (0.2, nan)), ("alpha", (0.2, inf)), ("alpha", (0.2, -inf)),
        ("alpha", (0.2, complex(0.5, nan))), ("alpha", (0.2, complex(0.5, inf))),
        ("beta", (0.2, 0.0, nan)), ("beta", (0.2, 0.0, complex(0.1, nan))),
        ("beta", (0.2, 0.0, complex(0.0, -inf))),
    ]:
        with pytest.raises(HypothesisError, match=f"^singularity {field} must be"):
            hf.Singularity(*args)


def test_separation_validation():
    with pytest.raises(SeparationError):
        hf.SingularityConfig(
            (hf.Singularity(0.3, 0, 0), hf.Singularity(0.3, 1.0, 0))
        )
    with pytest.raises(SeparationError):
        hf.SingularityConfig(
            (hf.Singularity(0.5, 0, 0), hf.Singularity(0.3, 1.0, 0))
        )


def test_predict_is_the_expansion_at_n(gue_potential, gue_measure):
    cfg = cfg_of(hf.Singularity(0.3, 0.4, 0.05 + 0.1j))
    W = ChebSeries([0.0, 0.2, -0.1])
    coeffs = hf.expansion_coefficients(gue_potential, gue_measure, W, cfg)
    for n in (1, 7, 40):
        pred = coeffs.predict(n)
        assert pred == hf.predict_log_hankel(gue_potential, gue_measure, W, cfg, n)
        expected = (coeffs.C1 * n * n + coeffs.C2 * n + coeffs.C3 * math.log(n)
                    + coeffs.C4)
        assert pred.value == expected
        assert pred.coefficients is coeffs
    with pytest.raises(DomainError, match="n >= 1"):
        coeffs.predict(0)


# ---------------------------------------------- nearby singularities, density


@pytest.mark.parametrize("separation", [1e-3, 1e-5, 1e-7, 1e-10, 1e-14])
def test_pair_terms_keep_their_digits_for_nearby_singularities(
    gue_potential, gue_measure, separation
):
    # 1 - t_j t_k - sqrt((1 - t_j^2)(1 - t_k^2)) cancels to ~separation^2;
    # both assemblies must still match the extended-precision value
    import mpmath as mp

    from hankelfh.asymptotics import _ratio_beta_coefficients

    t_j, t_k = 0.3, 0.3 + separation
    a_j, a_k, b_j, b_k = 0.5, 1.2, 0.1 + 0.05j, -0.15j
    with mp.workdps(60):
        tj, tk = mp.mpf(t_j), mp.mpf(t_k)
        log_dt = mp.log(tk - tj)
        log_cross = mp.log(1 - tj * tk - mp.sqrt((1 - tj ** 2) * (1 - tk ** 2)))
        aa, bb = mp.mpc(a_j * a_k), mp.mpc(b_j) * mp.mpc(b_k)
        pair = complex(2 * bb * log_cross - aa / 2 * mp.log(2) - (aa / 2 + 2 * bb) * log_dt)
        ratio_pair = complex(2 * bb * (log_cross - log_dt))

    cfg = cfg_of(hf.Singularity(t_j, a_j, b_j), hf.Singularity(t_k, a_k, b_k))
    got = constants(gue_potential, gue_measure, cfg=cfg).term_breakdown["C4"]["pair_12"]
    assert abs(got - pair) <= 1e-13 * abs(pair)

    # with alpha = 0 the ratio's singularities interact through the pair term only
    def c0(*sings):
        return _ratio_beta_coefficients(cfg_of(*sings))[3]

    sj, sk = hf.Singularity(t_j, 0.0, b_j), hf.Singularity(t_k, 0.0, b_k)
    got = c0(sj, sk) - c0(sj) - c0(sk)
    assert abs(got - ratio_pair) <= 1e-13 * abs(ratio_pair)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "coeffs, location",
    [([1.0, 2.0], -1.0), ([1.0, -2.0], 1.0), ([0.0, 0.0, 1.0], 0.2)],
    ids=["minus-one", "plus-one", "at-singularity"],
)
def test_nonpositive_density_is_a_regularity_error(gue_potential, coeffs, location):
    # psi = 1 + 2x, 1 - 2x and 2x^2 - 1 fail at -1, +1 and at t = 0.2; the
    # expansion takes logs of psi there, so it must name condition 4 first
    measure = hf.EquilibriumMeasure(psi=ChebSeries(coeffs), ell=0.0, regularity=None)
    cfg = cfg_of(hf.Singularity(0.2, 0.5, 0.1j))
    for assemble in (hf.expansion_coefficients, hf.composed_constants):
        with pytest.raises(hf.RegularityError, match="condition 4") as info:
            assemble(gue_potential, measure, None, cfg)
        assert info.value.condition == 4
        assert info.value.location == location


# ----------------------------------------------------------- pinned values

#: C1..C4 of perfbench/workloads.sweep_configs(seed=5, count=12), as
#: expansion_coefficients computed them with numpy scalar arithmetic
PINNED_SWEEP_CONSTANTS = (
    ((-1.4431471805599454+0j), (2.0935330451861773+0.06267948818852163j), (-0.044050839254466054-0.00512393879519017j), (-0.06390694316140808-0.02614131186912881j)),
    ((-1.4081273237313947+0j), (0.2842005274372721-0.2538660951446383j), (0.48997710062625266-0.06511690433997219j), (0.7856779497597729-0.14997673912835965j)),
    ((-1.4431471805599454+0j), (0.5208712944424355+0.06260464181795791j), (0.7744545894445507+0.09981600100006158j), (0.4907033347068286+0.6202010352087538j)),
    ((-1.3268921549664183+0j), (1.324225690872051+0.04074859301819418j), (0.14957737352793704+0.007383456156356853j), (0.21905093255788208+0.020742608809109518j)),
    ((-1.4431471805599454+0j), (1.3185713611673908+0.1615197168342386j), (0.3838358318269401+0.09034622567471852j), (0.08230503134009992-0.2791426508151799j)),
    ((-0.8916408463860144+0j), (-0.01679686974618544+0.14458903742068316j), (0.6708041004730647-0.040382330893936j), (-0.03518309442879419-0.49718369031526727j)),
    ((-1.4431471805599454+0j), (1.2266139532857903+0.062430197233410895j), (-0.05228818018486167+0.04021551014694731j), (-0.10688247391170091+0.0895722237997296j)),
    ((-1.2183263454780882+0j), (1.0364622517885125-0.5604256921794486j), (-0.012781372642987177+0.12648226657475492j), (0.07387787565268827+0.2794992481288266j)),
    ((-1.4431471805599454+0j), (0.3743775034818818+0.4853691709594622j), (0.4880817643150308-0.07356309316340227j), (0.04661586798376424-0.15433587418797526j)),
    ((-1.0627329440028777+0j), (1.2238890857844182-0.04121120524817844j), (0.026017912907620802-0.0001546997942229694j), (-0.1444407889308941-0.019331331151635482j)),
    ((-1.4431471805599454+0j), (1.029758207833446-0.345147531799601j), (0.04828505942258099+0.035096537301776684j), (0.377763981295852+0.041078888758270704j)),
    ((-0.9892216036386694+0j), (1.802198159092879+0.056818663449974466j), (0.11596886951321761+0.08280517047884663j), (-0.032083528125837174-0.019222092310679104j)),
)


def test_sweep_constants_are_pinned(monkeypatch):
    # the composition identity compares two assemblies that share their
    # primitives (Clenshaw, Horner, the product integrals, log Barnes G), so
    # an error in one of those shows only against recorded values
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import sweep_configs

    configs = sweep_configs(seed=5, count=len(PINNED_SWEEP_CONSTANTS))
    for (V, W, cfg), pinned in zip(configs, PINNED_SWEEP_CONSTANTS):
        measure = hf.equilibrium_measure(V)
        for got in (
            hf.expansion_coefficients(V, measure, W, cfg).as_tuple(),
            hf.composed_constants(V, measure, W, cfg),
        ):
            for g, p in zip(got, pinned):
                assert abs(g - p) <= 1e-13 * abs(p), (got, pinned)

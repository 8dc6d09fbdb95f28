"""Tests for the numerics layer: digamma, the confluent
hypergeometric function on the negative axis with the derivatives its
series pass returns, and the Beta-weighted quadrature oracle the tests
check it against.

Reference values in _KUMMER_TABLE and _SHAPE_DERIVATIVE_TABLE were
computed offline with mpmath at 40 significant digits, those in
_TINY_B_TABLE at 25 + log10((a+b)/b) + 10 digits, those in
_LARGE_Q_TABLE at 50 digits, and are frozen here as literals.
"""

import math
import tracemalloc

import numpy as np
import pytest

from beta_oracle import beta_expectation, log_beta
from burstfit import special
from burstfit.special import (
    PrecisionLossError,
    _log_beta_laplace,
    digamma,
    kummer_1f1,
)

EULER_GAMMA = 0.5772156649015329


# ----------------------------------------------------------------------
# digamma / log_beta
# ----------------------------------------------------------------------


def test_digamma_known_values():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)
    assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-12)


def test_digamma_recurrence_on_random_grid():
    """psi(z+1) - psi(z) = 1/z, exercised across nine orders of magnitude."""
    rng = np.random.default_rng(11)
    z = np.exp(rng.uniform(np.log(1e-3), np.log(1e6), size=500))
    for zi in z:
        zi = float(zi)
        assert digamma(zi + 1.0) - digamma(zi) == pytest.approx(1.0 / zi, abs=1e-10, rel=1e-10)


def test_digamma_matches_log_gamma_derivative():
    for z in (0.3, 1.7, 4.2, 25.0, 300.0):
        h = 1e-6 * max(1.0, z)
        fd = (math.lgamma(z + h) - math.lgamma(z - h)) / (2.0 * h)
        assert digamma(z) == pytest.approx(fd, rel=1e-7)


def test_digamma_domain_errors():
    for bad in (0.0, -2.0, float("nan")):
        with pytest.raises(ValueError):
            digamma(bad)


def test_log_beta_identities():
    assert log_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_beta(2.0, 3.0) == pytest.approx(math.log(1.0 / 12.0), rel=1e-13)
    assert log_beta(0.61, 1.0) == pytest.approx(math.log(1.0 / 0.61), rel=1e-13)
    # symmetry in the arguments
    assert log_beta(0.4, 7.3) == pytest.approx(log_beta(7.3, 0.4), rel=1e-14)


# ----------------------------------------------------------------------
# kummer_1f1
# ----------------------------------------------------------------------

# (a, b, z, value): frozen 40-digit arbitrary-precision evaluations,
# covering the direct series, the transformed mid range and the
# asymptotic regime for each shape pair.
_KUMMER_TABLE = [
    (0.61, 1.61, -0.5, 0.83657140643418972),
    (0.61, 1.61, -5.0, 0.33442363079828246),
    (0.61, 1.61, -30.0, 0.11236318967111564),
    (0.61, 1.61, -100.0, 0.053909837714437998),
    (0.61, 1.61, -300.0, 0.027581892348050029),
    (0.61, 1.61, -1e4, 0.0032483889498547562),
    (0.61, 1.61, -1e6, 0.00019573479010329997),
    (1.7, 2.7, -0.5, 0.7357972665249683),
    (1.7, 2.7, -5.0, 0.097540271117588531),
    (1.7, 2.7, -30.0, 0.0047613930539041319),
    (1.7, 2.7, -100.0, 0.00061495051148561578),
    (1.7, 2.7, -300.0, 9.5002281272203272e-5),
    (1.7, 2.7, -1e4, 2.4481620815796446e-7),
    (1.7, 2.7, -1e6, 9.7463087935403264e-11),
    (2.3, 5.9, -0.5, 0.82642354898657967),
    (2.3, 5.9, -5.0, 0.20816402194340193),
    (2.3, 5.9, -30.0, 0.0089227577272793348),
    (2.3, 5.9, -100.0, 0.00064450881298007873),
    (2.3, 5.9, -300.0, 5.360934671360839e-5),
    (2.3, 5.9, -1e4, 1.7180134706196065e-8),
    (2.3, 5.9, -1e6, 4.3180104082387596e-13),
    (1.61, 2.61, -0.5, 0.7407312044434112),
    (1.61, 2.61, -5.0, 0.10551479018334139),
    (1.61, 2.61, -30.0, 0.00603015784567818),
    (1.61, 2.61, -100.0, 0.00086794838720245106),
    (1.61, 2.61, -300.0, 0.00014802282226786835),
    (1.61, 2.61, -1e4, 5.2299062092661506e-7),
    (1.61, 2.61, -1e6, 3.1513301206631237e-10),
]


@pytest.mark.parametrize("a,b,z,expected", _KUMMER_TABLE)
def test_kummer_frozen_values(a, b, z, expected):
    assert kummer_1f1(a, b, z) == pytest.approx(expected, rel=5e-13)


def test_kummer_elementwise_matches_scalar_calls():
    """An array z gives the scalar values, bit for bit, in the shape of z.

    Rows that share a series band keep adding terms until the band's
    largest w has converged, but each such term is below half an ulp of
    its row's sum (which is at least 1), so the sum does not move.
    """
    a, b = 0.61, 1.61
    z = -np.geomspace(1e-3, 1e5, 48).reshape(6, 8)
    z[0, 0] = 0.0
    got = kummer_1f1(a, b, z)
    want = np.array([kummer_1f1(a, b, zi) for zi in z.ravel()]).reshape(z.shape)
    assert got.shape == z.shape and got[0, 0] == 1.0
    np.testing.assert_array_equal(got, want)


def test_kummer_at_zero_is_one():
    assert kummer_1f1(1.61, 2.61, 0.0) == 1.0
    assert kummer_1f1(0.2, 7.0, 0.0) == 1.0


def test_kummer_closed_form_a1_b2():
    """M(1, 2, z) = (e^z - 1) / z."""
    for z in (-1.0, -0.25, -8.0):
        assert kummer_1f1(1.0, 2.0, z) == pytest.approx(math.expm1(z) / z, rel=1e-12)


def test_kummer_asymptotic_leading_term_agreement():
    """At z = -1e4 the value sits within 1% of Gamma(b)/Gamma(b-a) |z|^-a."""
    a, b, z = 1.61, 2.61, -1e4
    lead = math.exp(math.lgamma(b) - math.lgamma(b - a)) * abs(z) ** (-a)
    assert kummer_1f1(a, b, z) == pytest.approx(lead, rel=0.01)


def test_kummer_matches_beta_weighted_integral_representation():
    """M(a, b, -w) equals the expectation of e^{-w t} under Beta(t; a, b-a).

    This ties the series/asymptotic evaluation to an entirely separate
    quadrature code path.  2000 nodes resolve the boundary layer even at
    w = 1e6.
    """
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = float(rng.uniform(0.3, 3.0))
        b = a + float(rng.uniform(0.4, 3.0))
        w = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e6))))
        direct = kummer_1f1(a, b, -w)
        via_quad = beta_expectation(lambda t: np.exp(-w * t), a, b - a, 2000)
        assert direct == pytest.approx(via_quad, rel=1e-6)


def test_kummer_regime_crossover_continuity():
    """Evaluations just either side of each internal switch agree to 1e-6."""
    for a, b in [(0.61, 1.61), (1.7, 2.7), (2.3, 5.9)]:
        for w in (30.0, 300.0):
            lo = kummer_1f1(a, b, -(w * (1.0 - 1e-9)))
            hi = kummer_1f1(a, b, -(w * (1.0 + 1e-9)))
            assert lo == pytest.approx(hi, rel=1e-6)


def test_kummer_domain_errors():
    with pytest.raises(ValueError):
        kummer_1f1(2.0, 2.0, -1.0)  # needs b > a
    with pytest.raises(ValueError):
        kummer_1f1(3.0, 2.0, -1.0)
    with pytest.raises(ValueError):
        kummer_1f1(-0.5, 2.0, -1.0)
    with pytest.raises(ValueError):
        kummer_1f1(1.0, 2.0, float("nan"))
    with pytest.raises(ValueError):
        kummer_1f1(1.3, 2.9, 0.5)  # only z <= 0 is implemented
    with pytest.raises(ValueError):
        kummer_1f1(1.3, 2.9, np.array([-1.0, 0.5]))
    with pytest.raises(ValueError):
        kummer_1f1(1.3, 2.9, np.array([-1.0, np.inf]))


@pytest.mark.parametrize("a,b", [(1000.0, 1001.0), (250.5, 251.5)])
def test_kummer_refuses_unsettled_asymptotic_sum(a, b):
    """With a - b + 1 = 0 the asymptotic terms u_s stop after the first,
    so their own truncation looks settled; the b-derivative terms do not
    stop, and they show the expansion is useless at w = 300.5.  mpmath
    gives 4.46e-131 and 1.02e-127; a value read from u_s alone was
    5.76e+89 and 1.4e-3 off.  Both must raise, not return."""
    with pytest.raises(PrecisionLossError):
        kummer_1f1(a, b, -300.5)


def test_kummer_large_shape_grid_answer_set():
    """The large-shape grid of kummer_1f1's docstring: 831 of its 1152
    points are answered and 321 refused with PrecisionLossError, and every
    answered point's four rows of the pass are finite."""
    answered = refused = 0
    for a in np.geomspace(1.5, 1000.0, 16):
        for b in a + np.array([0.1, 0.37, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0]):
            for w in (300.5, 320.0, 350.0, 400.0, 500.0, 700.0, 1e3, 3e3, 1e4):
                try:
                    kummer_1f1(a, b, -w)
                except PrecisionLossError:
                    refused += 1
                    continue
                answered += 1
                assert np.all(np.isfinite(_log_beta_laplace(a, b - a, np.array([w])))), (a, b, w)
    assert (answered, refused) == (831, 321)


def test_kummer_monotone_decreasing_in_w():
    w = np.exp(np.linspace(np.log(1e-3), np.log(1e5), 120))
    vals = np.array([kummer_1f1(0.7, 1.7, -wi) for wi in w])
    assert np.all(np.diff(vals) < 0.0)
    assert np.all(vals > 0.0)


# ----------------------------------------------------------------------
# log 1F1(a+1, a+b+1; -w) and its derivatives from the series pass
# ----------------------------------------------------------------------

# (a, b, w, log F, d/da log F, d/db log F, <x E>/<E>) for
# F = 1F1(a+1, a+b+1; -w), where <x E>/<E> = -d/dw log F is taken under
# Beta(a+1, b) with E = exp(-w x).  Frozen from a 40-digit arbitrary-
# precision evaluation (derivatives by mpmath.diff, the ratio through
# 1F1(a+2, a+b+2; -w)), agreeing to 40 digits between 50- and 70-digit
# working precision.  The grid straddles the asymptotic switch at w = 300
# and includes integer b, where the asymptotic value series terminates
# but its b derivative does not.
_SHAPE_DERIVATIVE_TABLE = [
    (0.3, 1.0, 0.5, -0.27322188038138686, -0.098040026672049915, 0.12087763039980017, 0.5275461802123101),
    (0.3, 1.0, 50.0, -4.9314404520969593, -3.3119831250641765, 1.1506293748923768, 0.026),
    (0.3, 1.0, 299.0, -7.2563871904482617, -5.1004036930267169, 1.1728908723831172, 0.0043478260869565217),
    (0.3, 1.0, 301.0, -7.2650538892139078, -5.1070703843849062, 1.1729199855513396, 0.0043189368770764119),
    (0.3, 1.0, 1000.0, -8.8258924077171475, -6.3077153986181675, 1.1759540469658502, 0.0013),
    (0.3, 1.0, 100000.0, -14.812613649501666, -10.912885584606259, 1.1772425451159991, 1.3e-5),
    (0.3, 1.0, 10000000.0, -20.799334891286185, -15.51805577059435, 1.1772554152654875, 1.3e-7),
    (0.3, 1.3, 0.5, -0.24133285933147497, -0.098314419192486284, 0.093511551473414436, 0.46538493412396601),
    (0.3, 1.3, 50.0, -4.6280054213763467, -3.1671835846167609, 0.89378287785832614, 0.025837381092022078),
    (0.3, 1.3, 299.0, -6.9462987100854622, -4.950405046270187, 0.91587809478469347, 0.0043434342627256059),
    (0.3, 1.3, 301.0, -6.9549566837620302, -4.9570649966719181, 0.91590714890719435, 0.0043146034170236546),
    (0.3, 1.3, 1000.0, -8.5148855803512813, -6.1570083223844293, 0.91893723502491557, 0.0012996092178039182),
    (0.3, 1.3, 100000.0, -14.501220331443457, -10.761881012246253, 0.92022534152977426, 1.2999960999219978e-5),
    (0.3, 1.3, 10000000.0, -20.487937712188979, -15.367048228184848, 0.92023821164026482, 1.2999999609999922e-7),
    (0.3, 2.0, 0.5, -0.19012803017015567, -0.092127537667558085, 0.057290428394261841, 0.36678202983149773),
    (0.3, 2.0, 50.0, -4.1248753045014572, -2.8977343972720151, 0.58597220023478318, 0.02546611909650924),
    (0.3, 2.0, 299.0, -6.4278353728821134, -4.6689801706595833, 0.607688199404033, 0.0043332213637890493),
    (0.3, 2.0, 301.0, -6.436473056705062, -4.6756244456925907, 0.60771711645518763, 0.0043045260099523665),
    (0.3, 2.0, 1000.0, -7.9942841305150916, -5.8739340916147152, 0.61073796035751684, 0.0012986983078001402),
    (0.3, 2.0, 100000.0, -13.979717526651063, -10.478112976040608, 0.612025153941656, 1.2999869998309978e-5),
    (0.3, 2.0, 10000000.0, -19.966425898351089, -15.083273261898711, 0.61203802396115266, 1.2999998699999831e-7),
    (0.3, 3.19, 0.5, -0.1401844615479591, -0.07837984991582121, 0.030789284877137591, 0.271410375947026),
    (0.3, 3.19, 50.0, -3.5781855886510472, -2.5700348618394857, 0.36578088897382189, 0.02485999468325369),
    (0.3, 3.19, 299.0, -5.8556745070892398, -4.3214045553525755, 0.38687899940427873, 0.0043159700681703365),
    (0.3, 3.19, 301.0, -5.8642779172175042, -4.3280223529577098, 0.38690768566724228, 0.0042875028516362142),
    (0.3, 3.19, 1000.0, -7.418503485039912, -5.523566227586121, 0.38991292455194761, 0.0012971526946059547),
    (0.3, 3.19, 100000.0, -13.402406042845557, -10.126566772699609, 0.39119856911483321, 1.2999715299686907e-5),
    (0.3, 3.19, 10000000.0, -19.389099099314422, -14.731715277533324, 0.39121143897964316, 1.2999997152999969e-7),
    (0.6, 1.0, 0.5, -0.29934706732672978, -0.077328356567837388, 0.11763356424940091, 0.58177167519425109),
    (0.6, 1.0, 50.0, -5.9018249451360539, -3.1609755526546698, 1.2953881478476546, 0.032),
    (0.6, 1.0, 299.0, -8.7632978538761184, -4.9493961206172102, 1.322888492209578, 0.0053511705685618728),
    (0.6, 1.0, 301.0, -8.7739645600492213, -4.9560628119753995, 1.3229243600708952, 0.0053156146179401993),
    (0.6, 1.0, 1000.0, -10.694996582822439, -6.1567078262086608, 1.3266610326657091, 0.0016),
    (0.6, 1.0, 100000.0, -18.063268880403385, -10.761878012196752, 1.3282471174670041, 1.6e-5),
    (0.6, 1.0, 10000000.0, -25.431541177984332, -15.367048198184844, 1.3282629576749883, 1.6e-7),
    (0.6, 1.3, 0.5, -0.26788968556727416, -0.079686516307263275, 0.093500226567433315, 0.51976524806260652),
    (0.6, 1.3, 50.0, -5.5580228825796222, -3.0357704824458799, 1.0190286970657878, 0.031798573445880643),
    (0.6, 1.3, 299.0, -8.4112768662551968, -4.8189535697976928, 1.0463216725229646, 0.0053457597677906842),
    (0.6, 1.3, 301.0, -8.4219328230094242, -4.825613506573462, 1.0463574674915502, 0.0053102757590952234),
    (0.6, 1.3, 1000.0, -10.341844579755265, -6.0255559149088518, 1.0500892368585162, 0.0015995188925735167),
    (0.6, 1.3, 100000.0, -17.709641124250394, -10.630428514390986, 1.0516748393445409, 1.5999951998895966e-5),
    (0.6, 1.3, 10000000.0, -25.077908669776145, -15.235595730320582, 1.0516906795045275, 1.5999999519999889e-7),
    (0.6, 2.0, 0.5, -0.21556338629414591, -0.078014478240104759, 0.059824438534583643, 0.41792312625185381),
    (0.6, 2.0, 50.0, -4.9788366918141775, -2.7970213250640786, 0.68070180225367683, 0.031338842975206611),
    (0.6, 2.0, 299.0, -7.8131519482133138, -4.5681432107832647, 0.70752202837681666, 0.0053331773924739042),
    (0.6, 2.0, 301.0, -7.8237829077851327, -4.5747874407200683, 0.70755765413161977, 0.0052978603940993836),
    (0.6, 2.0, 1000.0, -9.7410864191619769, -5.7730940441573788, 0.71127802402693236, 0.0015983974358974359),
    (0.6, 2.0, 100000.0, -17.10777343550395, -10.37727262774137, 0.71286250224239545, 1.5999839997439959e-5),
    (0.6, 2.0, 10000000.0, -24.476029892956908, -14.982432913569475, 0.71287834229038892, 1.5999998399999744e-7),
    (0.6, 3.19, 0.5, -0.16229191551692421, -0.069277831002704019, 0.033540770579789641, 0.31530103141440237),
    (0.6, 3.19, 50.0, -4.3382837681663439, -2.4981503135131624, 0.43197527458903571, 0.030588661570915706),
    (0.6, 3.19, 299.0, -7.1411450794630848, -4.2492627315062874, 0.45802571977929668, 0.0053119239289189915),
    (0.6, 3.19, 301.0, -7.15173381424448, -4.255880431540261, 0.45806106063569556, 0.0052768881309273956),
    (0.6, 3.19, 1000.0, -9.0646215538869602, -5.4514177000441186, 0.46176218341669367, 0.0015964945736471785),
    (0.6, 3.19, 100000.0, -16.42942417664589, -10.054417587886894, 0.4633447540004507, 1.5999649598563462e-5),
    (0.6, 3.19, 10000000.0, -23.797661784555015, -14.659566092654915, 0.46336059385805938, 1.5999996495999856e-7),
    (1.7, 1.0, 0.5, -0.35947933430147438, -0.038561764049693761, 0.099787243383876369, 0.70790917569937193),
    (1.7, 1.0, 50.0, -9.1343897879906063, -2.7448694660666347, 1.6882339694975143, 0.053999999999999999),
    (1.7, 1.0, 299.0, -13.963125321489465, -4.5332900340291751, 1.7352826380434644, 0.0090301003344481604),
    (1.7, 1.0, 301.0, -13.981125388156576, -4.5399567253873644, 1.7353433905456814, 0.0089700996677740862),
    (1.7, 1.0, 1000.0, -17.222866926586382, -5.7406017396206257, 1.7416641935447753, 0.0027),
    (1.7, 1.0, 100000.0, -29.656826428754228, -10.345771925608717, 1.7443422037635286, 2.7e-5),
    (1.7, 1.0, 10000000.0, -42.090785930922075, -14.950942111596808, 1.7443689342629943, 2.7e-7),
    (1.7, 1.3, 0.5, -0.33191149867997198, -0.042432066045502461, 0.084637328912156315, 0.65244320614345581),
    (1.7, 1.3, 50.0, -8.6793117450528597, -2.6623016722000141, 1.3695501462258882, 0.053651924903965507),
    (1.7, 1.3, 299.0, -13.493987946781554, -4.4453396149088552, 1.4162312712332129, 0.0090209355477252747),
    (1.7, 1.3, 301.0, -13.511969806365796, -4.4519995013667951, 1.4162918993479992, 0.0089610569623360163),
    (1.7, 1.3, 1000.0, -16.751816355350781, -5.6519385290060651, 1.4226043623683662, 0.0026991872344807255),
    (1.7, 1.3, 100000.0, -29.184972576821405, -10.256810796629931, 1.4252815568800902, 2.6999918997245885e-5),
    (1.7, 1.3, 10000000.0, -41.618924059851561, -14.861978012526528, 1.4253082872985582, 2.6999999189999724e-7),
    (1.7, 2.0, 0.5, -0.28183699760328577, -0.046469641006389782, 0.060497551985222281, 0.55281469457751969),
    (1.7, 2.0, 50.0, -7.8815696782706863, -2.4957408448449902, 0.95973936151864819, 0.052858350951374206),
    (1.7, 2.0, 299.0, -12.663863620650453, -4.2663947215719321, 1.0055837676954864, 0.0089996241267719938),
    (1.7, 2.0, 301.0, -12.68180314173457, -4.2730387849863532, 1.0056441070728261, 0.0089400289347275757),
    (1.7, 2.0, 1000.0, -15.917237758510518, -5.4713341766600917, 1.0119371811891781, 0.002697292690263712),
    (1.7, 2.0, 100000.0, -28.348520609468556, -10.075511655608454, 1.0146124743038161, 2.6999729992709803e-5),
    (1.7, 2.0, 10000000.0, -40.782453381271933, -14.680671941326565, 1.0146392045332916, 2.6999997299999271e-7),
    (1.7, 3.19, 0.5, -0.22471589865899146, -0.046451570007295858, 0.038118918730685282, 0.44049992012489339),
    (1.7, 3.19, 50.0, -6.9569796051845194, -2.2717061281247827, 0.6372974103635128, 0.051565898751106937),
    (1.7, 3.19, 299.0, -11.685534968933914, -4.0218485234472489, 0.68178281901140248, 0.0089636277496340125),
    (1.7, 3.19, 301.0, -11.703402975970711, -4.0284658632204744, 0.6818426723053877, 0.008904509673057285),
    (1.7, 3.19, 1000.0, -14.931368339804569, -5.2239787889055879, 0.68810301180254322, 0.0026940780840729652),
    (1.7, 3.19, 100000.0, -27.359469512325613, -9.8269762633824138, 0.69077507869524534, 2.6999408691071495e-5),
    (1.7, 3.19, 10000000.0, -39.793370475347077, -14.432124767909554, 0.69080180860343936, 2.6999994086999107e-7),
]


@pytest.mark.parametrize("a,b,w,log_f,d_a,d_b,ratio", _SHAPE_DERIVATIVE_TABLE)
def test_series_pass_derivatives_frozen_values(a, b, w, log_f, d_a, d_b, ratio):
    got = _log_beta_laplace(a + 1.0, b, np.array([w]))
    assert [float(g[0]) for g in got] == pytest.approx(
        [log_f, d_a, d_b, ratio], rel=1e-10
    )


# The same columns at b = 1e-8, 1e-17 and 1e-300, where a + b + 1 rounds
# to a + 1 (or nearly): the pass is handed b itself.  Frozen from mpmath
# at 25 + log10((a+b)/b) + 10 digits, 335 at b = 1e-300; at a fixed 40
# digits mpmath cannot tell a + 1e-300 from a and returns the b = 0 law.
# The rows cover both regimes and both laws: at small b, F is the
# exponential e^-w of the point mass at x = 1 until the power law, which
# carries a factor of about b, overtakes it (near w = 45 at b = 1e-17,
# near w = 700 at b = 1e-300).
_TINY_B_TABLE = [
    (0.7, 1e-08, 0.5, -0.49999999675985412, -2.0243718569821451e-9, 0.32401458595828947, 0.99999999286397297),
    (0.7, 1e-08, 50.0, -25.131573601251884, -3.6822893790662364, 100000000.74843226, 0.034736291412152468),
    (0.7, 1e-08, 299.0, -28.201521299742651, -5.4885205622606988, 100000000.78003259, 0.0057048736333424586),
    (0.7, 1e-08, 301.0, -28.212892927372574, -5.4952098849792761, 100000000.78007098, 0.0056668388091639239),
    (0.7, 1e-08, 1000.0, -30.257969251918901, -6.698204684430076, 100000000.78405952, 0.0017017063226438333),
    (0.7, 1e-08, 1000000.0, -42.002854682037933, -13.606961675155762, 100000000.78576183, 1.700001700006273e-6),
    (0.7, 1e-17, 0.5, -0.5, -2.0243718851586516e-18, 0.32401459043083096, 0.99999999999999999),
    (0.7, 1e-17, 50.0, -45.839122710766284, -3.6248682390172039, 98440612841822853.0, 0.049788489718778749),
    (0.7, 1e-17, 299.0, -48.924787144489388, -5.4885205701592179, 99999999999999994.0, 0.0057048736335356658),
    (0.7, 1e-17, 301.0, -48.936158772119695, -5.4952098928780223, 99999999999999994.0, 0.0056668388093545516),
    (0.7, 1e-17, 1000.0, -50.981235096705908, -6.6982046923523721, 99999999999999994.0, 0.0017017063226609137),
    (0.7, 1e-17, 1000000.0, -62.726120526841963, -13.60696168308808, 99999999999999994.0, 1.70000170000629e-6),
    (0.7, 1e-300, 0.5, -0.5, -2.0243718851586515e-301, 0.32401459043083097, 1.0),
    (0.7, 1e-300, 50.0, -50.0, -2.3245466784878006e-281, 6.3127756520001004e+18, 1.0),
    (0.7, 1e-300, 299.0, -299.0, -2.2168703769724648e-174, 4.039103704968268e+125, 1.0),
    (0.7, 1e-300, 301.0, -301.0, -1.6215099494932373e-173, 2.9507698179004389e+126, 1.0),
    (0.7, 1e-300, 1000.0, -702.61281641402084, -6.6982046923523721, 9.9999999999999997e+299, 0.0017017063226609137),
    (0.7, 1e-300, 1000000.0, -714.35770184415689, -13.60696168308808, 9.9999999999999997e+299, 1.70000170000629e-6),
]


@pytest.mark.parametrize("a,b,w,log_f,d_a,d_b,ratio", _TINY_B_TABLE)
def test_series_pass_answers_with_b_below_an_ulp_of_a_plus_one(a, b, w, log_f, d_a, d_b, ratio):
    """The pass used to refuse these, and to lose b - a to rounding well
    before that; the derivatives in b are sums of terms that each carry a
    factor of b, so the series must not stop while those terms still count."""
    got = _log_beta_laplace(a + 1.0, b, np.array([w]))
    assert [float(g[0]) for g in got] == pytest.approx(
        [log_f, d_a, d_b, ratio], rel=1e-10, abs=0.0
    )


# (p, q, w, log F, d/dq log F) for F = 1F1(p, p+q; -w) at large q, where
# the asymptotic regime takes the Gamma ratio from Stirling's series.
# Frozen from mpmath's hyp1f1 at 50 digits (d_q by mpmath.diff), agreeing
# to at least 42 digits with 70.  lgamma(p + q) - lgamma(q) put log F
# off by 1.1e-12 at q = 1e3, 1.8e-3 at 1e12 and 36.7 at the last row, a
# point a fit reached with its direction cap removed; d_q was off by 5e-13
# relative at 1e3 and by 100% at 1e15.
_LARGE_Q_TABLE = [
    (1.7, 1e3, 1e4, -4.0756916043305933, 0.0015448304435966183),
    (1.7, 1e3, 1e5, -7.8450935095085346, 0.0016825734052890182),
    (1.7, 1e3, 1e6, -11.744286666703518, 0.0016977071699654556),
    (1.7, 1e6, 1e7, -4.0764212331789366, 1.5454539208870179e-6),
    (1.7, 1e6, 1e8, -7.8457042670236733, 1.6831677214449858e-6),
    (1.7, 1e6, 1e9, -11.744882528140101, 1.6983011032981918e-6),
    (1.7, 1e9, 1e10, -4.0764219630266513, 1.5454545448299774e-9),
    (1.7, 1e9, 1e11, -7.8457048780185342, 1.683168316236296e-9),
    (1.7, 1e9, 1e12, -11.744883124239179, 1.6983016977066943e-9),
    (1.7, 1e12, 1e13, -4.0764219637564992, 1.5454545454539208e-12),
    (1.7, 1e12, 1e14, -7.8457048786295293, 1.6831683168310877e-12),
    (1.7, 1e12, 1e15, -11.744883124835278, 1.6983016983011033e-12),
    (1.7, 1e15, 1e16, -4.0764219637572291, 1.5454545454545448e-15),
    (1.7, 1e15, 1e17, -7.8457048786301402, 1.6831683168316825e-15),
    (1.7, 1e15, 1e18, -11.744883124835874, 1.6983016983016977e-15),
    (30.0, 1e3, 3e4, -102.58834763189697, 0.028605143993792184),
    (30.0, 1e3, 1e5, -138.02257954214361, 0.029276292796161045),
    (30.0, 1e3, 1e6, -206.83182939254406, 0.029543399608947818),
    (30.0, 1e6, 3e7, -103.01918065496071, 2.9031822589199641e-5),
    (30.0, 1e6, 1e8, -138.45318025806925, 2.9702535257962497e-5),
    (30.0, 1e6, 1e9, -207.2622083542281, 2.9969594978091697e-5),
    (30.0, 1e9, 3e10, -103.01961569907052, 2.9032257629032267e-8),
    (30.0, 1e9, 1e11, -138.45361506998634, 2.970296986198209e-8),
    (30.0, 1e9, 1e12, -207.26264294442712, 2.9970029535029486e-8),
    (30.0, 1e12, 3e13, -103.0196161341189, 2.9032258064080645e-11),
    (30.0, 1e12, 1e14, -138.45361550480253, 2.9702970296594655e-11),
    (30.0, 1e12, 1e15, -207.26264337902159, 2.997002996959497e-11),
    (30.0, 1e15, 3e16, -103.01961613455395, 2.9032258064515694e-14),
    (30.0, 1e15, 1e17, -138.45361550523735, 2.9702970297029268e-14),
    (30.0, 1e15, 1e18, -207.26264337945618, 2.9970029970029535e-14),
    (1.00076, 8.36e15, 2.70e55, -91.042336695445422, 1.1970813397129188e-16),
]


@pytest.mark.parametrize("p,q,w,log_f,d_q", _LARGE_Q_TABLE)
def test_asymptotic_pass_keeps_its_digits_at_large_q(p, q, w, log_f, d_q):
    """log F within 1e-12 of max(1, |log F|), and never above 0, as F is
    an average of exp(-w X); d_q within 1e-12 relative, as it is small."""
    got = _log_beta_laplace(p, q, np.array([w]))[:, 0]
    assert got[0] <= 0.0
    assert abs(got[0] - log_f) <= 1e-12 * max(1.0, abs(log_f))
    assert got[2] == pytest.approx(d_q, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("a,b", [(0.7, 1.0), (1.7, 3.19), (0.3, 40.0)])
def test_series_pass_row_ignores_its_neighbours(a, b):
    """One call over many w gives each row what a call on that row alone
    gives: values bit for bit, derivatives to rounding.  The w include
    zero, duplicates, a run of equal values, and both sides of 1, 4, 16,
    64 and the asymptotic switch at 300."""
    edges = [1.0, 4.0, 16.0, 64.0, 300.0]
    w = np.array(
        [0.0, 0.0, 0.25, 2.5, 2.5, 37.0, 150.0, 1200.0]
        + [10.0] * 6
        + [e * f for e in edges for f in (0.999, 1.0, 1.001)]
        + [np.nextafter(e, 0.0) for e in edges]
    )
    w = np.random.default_rng(11).permutation(w)
    p, q = a + 1.0, b
    batch = _log_beta_laplace(p, q, w)
    for i, wi in enumerate(w):
        alone = _log_beta_laplace(p, q, np.array([wi]))
        assert batch[0][i] == alone[0][0], wi
        for got, want in zip(batch[1:], alone[1:]):
            np.testing.assert_allclose(got[i], want[0], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize(
    "p,q", [(1.7, 1.0), (2.7, 3.19), (1.3, 40.0), (1.6, 0.37), (1.05, 1e-6)]
)
def test_asymptotic_row_ignores_its_neighbours(p, q):
    """Each asymptotic row stops its own truncation, so one call over many
    w at or above the switch gives every row all four values a call on that
    row alone gives, bit for bit.  The w run from 300 to 1e9 in a shuffled
    order, with duplicates."""
    w = np.concatenate(
        [[300.0, 300.0, np.nextafter(300.0, np.inf)], [1e3] * 3, np.geomspace(300.0, 1e9, 40)]
    )
    w = np.random.default_rng(13).permutation(w)
    batch = _log_beta_laplace(p, q, w)
    alone = np.column_stack([_log_beta_laplace(p, q, np.array([wi]))[:, 0] for wi in w])
    np.testing.assert_array_equal(batch, alone)


@pytest.mark.parametrize("p,q", [(1.7, 1.0), (1.62, 2.9), (2.7, 3.19), (1.3, 40.0)])
def test_series_block_never_changes_a_value(monkeypatch, p, q):
    """The series is folded every special._TERM_BLOCK terms, and the block
    size may be tuned freely: at 8, 16, 32 and 64 every log 1F1 is the same
    bit for bit, since the terms a row sums past its convergence are below
    half an ulp of its total, and the derivative rows, whose sums the folds
    group differently, agree to rounding.  The w include zero, duplicates
    and both sides of the asymptotic switch at 300."""
    w = np.concatenate(
        [[0.0, 0.0, 1e-9, 2.5, 2.5, 299.0, np.nextafter(300.0, 0.0), 300.0, 301.0, 5e3],
         np.geomspace(1e-3, 1e3, 200)]
    )
    w = np.random.default_rng(39).permutation(w)
    rows = {}
    for block in (8, 16, 32, 64):
        monkeypatch.setattr(special, "_TERM_BLOCK", block)
        rows[block] = _log_beta_laplace(p, q, w)
    for block in (8, 16, 32):
        np.testing.assert_array_equal(rows[block][0], rows[64][0])
        np.testing.assert_allclose(rows[block][1:], rows[64][1:], rtol=1e-14, atol=0.0)


def test_series_pass_memory_has_a_per_row_budget():
    """The series buffers _TERM_BLOCK terms a row between folds, so its
    working memory grows with the block.  Over 4,000 w below the switch the
    traced peak of one pass stays below 60 float64 a row: it was about 50
    at a block of 32 and 82 at a block of 64."""
    w = np.geomspace(1e-3, 299.0, 4000)
    tracemalloc.start()
    try:
        _log_beta_laplace(1.62, 2.9, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60 * 8 * w.size, peak


def test_refused_pass_never_runs_the_series_slice(monkeypatch):
    """At p = 1.7, q = 300 the asymptotic sum at w = 350 does not settle.
    The asymptotic slice runs first, so the pass is refused before the
    series slice (w = 0.5 and 30) is summed; it used to be summed first."""
    calls = []
    inner = special._transformed_series

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(special, "_transformed_series", counting)
    with pytest.raises(PrecisionLossError, match="asymptotic"):
        _log_beta_laplace(1.7, 300.0, np.array([0.5, 30.0, 350.0]))
    assert calls == []


# ----------------------------------------------------------------------
# beta_expectation, the quadrature oracle in tests/beta_oracle.py
# ----------------------------------------------------------------------


class TestBetaExpectation:
    def test_normalization_across_random_shapes(self):
        """E[1] = 1 for fifty shape pairs spanning (0.05, 10)^2."""
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = float(np.exp(rng.uniform(np.log(0.05), np.log(10.0))))
            b = float(np.exp(rng.uniform(np.log(0.05), np.log(10.0))))
            got = beta_expectation(lambda x: np.ones_like(x), a, b)
            assert got == pytest.approx(1.0, abs=1e-9)

    def test_first_two_moments(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            a = float(np.exp(rng.uniform(np.log(0.1), np.log(8.0))))
            b = float(np.exp(rng.uniform(np.log(0.1), np.log(8.0))))
            mean = a / (a + b)
            second = a * (a + 1.0) / ((a + b) * (a + b + 1.0))
            assert beta_expectation(lambda x: x, a, b) == pytest.approx(
                mean, rel=1e-9
            )
            assert beta_expectation(lambda x: x * x, a, b) == pytest.approx(
                second, rel=1e-9
            )

    def test_symmetric_mean(self):
        assert beta_expectation(lambda x: x, 2.0, 2.0) == pytest.approx(0.5)

    def test_log_moment_equals_digamma_difference(self):
        """E[log x] = psi(a) - psi(a+b).

        The integrand itself is logarithmically singular at x = 0, which
        fixed-order quadrature resolves to about 1e-5 rather than the nominal
        tolerance; the assertion reflects the achievable accuracy.
        """
        for a, b in [(0.61, 1.0), (0.3, 2.5), (4.0, 0.2)]:
            want = digamma(a) - digamma(a + b)
            got = beta_expectation(np.log, a, b)
            assert got == pytest.approx(want, rel=5e-5)

    def test_log_one_minus_x_moment(self):
        """E[log(1-x)] = psi(b) - psi(a+b), singular at the right endpoint."""
        for a, b in [(1.0, 0.61), (2.2, 0.4)]:
            want = digamma(b) - digamma(a + b)
            got = beta_expectation(lambda x: np.log1p(-x), a, b, 400)
            assert got == pytest.approx(want, rel=5e-5)

    def test_exponential_moment_matches_kummer(self):
        for a, b, w in [(0.61, 1.0, 4.0), (1.4, 1.0, 55.0), (0.9, 2.1, 9.0)]:
            want = kummer_1f1(a, a + b, -w)
            got = beta_expectation(lambda x: np.exp(-w * x), a, b)
            assert got == pytest.approx(want, rel=1e-9)

    def test_integrand_sees_only_interior_points(self):
        """Substituted nodes stay strictly inside (0, 1).

        For very small b the analytic distance to 1 can drop below float64
        resolution, so x itself rounds to 1.0; shapes here stay above that
        regime, which is all the production call sites use.
        """
        seen = []

        def probe(x):
            seen.append(x)
            return np.ones_like(x)

        beta_expectation(probe, 0.3, 0.6)
        nodes = np.concatenate(seen)
        assert np.all(nodes > 0.0) and np.all(nodes < 1.0)

    # the integrand divides by zero on purpose
    @pytest.mark.filterwarnings("ignore:divide by zero encountered in divide:RuntimeWarning")
    def test_non_finite_integrand_reports_failure(self):
        with pytest.raises(FloatingPointError):
            beta_expectation(lambda x: 1.0 / (x - x), 1.0, 1.0)

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            beta_expectation(lambda x: x, 0.0, 1.0)
        with pytest.raises(ValueError):
            beta_expectation(lambda x: x, 1.0, -2.0)


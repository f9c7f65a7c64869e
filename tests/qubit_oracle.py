"""High-precision references for the qubit closed forms of ``nanoheat.nano``.

Test-only: the package itself never imports mpmath. A qubit with levels
{0, E} has the mean energy and the energy variance

    U(beta) = E / (1 + exp(beta E)),    V(beta) = E^2 exp(beta E) / (1 + exp(beta E))^2,

and the weights p^a q^(1-a) of the cold and hot Gibbs states form the Gibbs
state at beta_a = a beta_c + (1 - a) beta_h. So

    b_alpha = U(beta_c) - U(beta_a),      b_alpha' = (beta_c - beta_h) V(beta_a),
    gamma = a b_alpha / (a - 1),          g = a (a - 1) - b_alpha / b_alpha'.

Each is evaluated from these definitions with enough digits that the
difference in b_alpha keeps about 30 significant digits for any gap down to
1e-300 and any order, near 1 included; results are mpmath numbers.
"""
import math

import mpmath


def _digits(e_gap, beta_c, beta_h, a):
    """Working digits: 40 plus the digits U(beta_c) - U(beta_a) cancels."""
    scale = e_gap * (beta_c - beta_h) * min(1.0, abs(a - 1.0))
    return 40 + (max(0, math.ceil(-math.log10(scale))) if scale > 0 else 0)


def _mean(e, beta):
    return e / (1 + mpmath.exp(beta * e))


def _variance(e, beta):
    x = mpmath.exp(beta * e)
    return e * e * x / (1 + x) ** 2


def _parts(e_gap, beta_c, beta_h, a):
    e, bc, bh, a = (mpmath.mpf(v) for v in (e_gap, beta_c, beta_h, a))
    beta_a = a * bc + (1 - a) * bh
    return e, bc, bh, a, _mean(e, bc) - _mean(e, beta_a), (bc - bh) * _variance(e, beta_a)


def b_alpha(e_gap, beta_c, beta_h, a):
    with mpmath.workdps(_digits(e_gap, beta_c, beta_h, a)):
        return +_parts(e_gap, beta_c, beta_h, a)[4]


def gamma(e_gap, beta_c, beta_h, a):
    with mpmath.workdps(_digits(e_gap, beta_c, beta_h, a)):
        _, _, _, a, b, _ = _parts(e_gap, beta_c, beta_h, a)
        return +(a * b / (a - 1))


def gamma_infinity(e_gap, beta_c):
    """The large-order limit of gamma, U(beta_c)."""
    with mpmath.workdps(40):
        return +_mean(mpmath.mpf(e_gap), mpmath.mpf(beta_c))


def b_alpha_prime(e_gap, beta_c, beta_h, a):
    with mpmath.workdps(_digits(e_gap, beta_c, beta_h, a)):
        return +_parts(e_gap, beta_c, beta_h, a)[5]


def g_function(e_gap, beta_c, beta_h, a):
    """g and the magnitude a |a - 1| + |b_alpha / b_alpha'| of the two terms it subtracts."""
    with mpmath.workdps(_digits(e_gap, beta_c, beta_h, a)):
        _, _, _, a, b, b_prime = _parts(e_gap, beta_c, beta_h, a)
        ratio = b / b_prime
        return +(a * (a - 1) - ratio), +(a * abs(a - 1) + abs(ratio))

"""Closed forms for the report columns of a Gaussian spectrum.

``gaussian_spectrum(grid, c, sigma)`` samples g(k) = exp(-(k - c)**2 / (2 sigma**2)),
so |g|**2 is sigma sqrt(pi) times the normal density with mean c and standard
deviation s = sigma / sqrt(2).  Restricted to an interval [lower, upper] (the
grid, or a window) every report column is a moment or the entropy of that
normal density truncated to the interval.  A boost by eta scales c, s and
both edges by e**eta, so the truncation points in units of s do not move.

Only the standard library's ``math`` is used, so these numbers come from
outside the program.
"""
import math


def _pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def gaussian_columns(center, width, lower, upper, eta=0.0):
    """Closed forms for gaussian(center, width) kept on [lower, upper].

    center, width and the edges are given at rest; the values are those of
    the frame at rapidity eta.  ``entropy`` is the differential entropy of
    the normalised |g|**2, ``signal_norm`` Plancherel's integral of |G|**2 du
    for a wavelet signal on a u-grid that holds all of it.
    """
    s = width / math.sqrt(2.0)
    a, b = (lower - center) / s, (upper - center) / s
    mass = 0.5 * (math.erf(b / math.sqrt(2.0)) - math.erf(a / math.sqrt(2.0)))
    scale = math.exp(eta)
    norm_squared = scale * width * math.sqrt(math.pi) * mass
    p = scale * (center + s * (_pdf(a) - _pdf(b)) / mass)
    spread = (a * _pdf(a) - b * _pdf(b)) / (2.0 * mass)
    return {
        "p": p,
        "norm_squared": norm_squared,
        "photon_norm": norm_squared / (2.0 * math.pi * p),
        "signal_norm": norm_squared / p,
        "entropy": math.log(math.sqrt(2.0 * math.pi * math.e) * s * mass) + spread + eta,
    }

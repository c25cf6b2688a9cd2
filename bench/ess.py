"""Effective sample size of MCMC draws, independent of womble's own estimator.

Each chain's spectral density at frequency zero is taken from an
autoregressive fit, as in R's `coda::effectiveSize`: Yule-Walker estimates
for every order p up to 10 log10(N), the order chosen by AIC, and
S(0) = sigma_p^2 / (1 - sum phi)^2. The chain's ESS is N var(x) / S(0), and
the ESS of several chains is the sum over chains. For an AR(1) series with
coefficient phi the expected value is N (1 - phi) / (1 + phi).

A fitted model smooths the spectrum, so this estimate varies less from run to
run than a windowed sum of autocorrelations does; the benchmark compares it
between commits, where that matters more than the last few percent of bias.
"""

import math

import numpy as np


def _levinson(acov, pmax):
    """Innovation variance and coefficients of AR(p), p = 0..pmax."""
    var = [acov[0]]
    phi = np.zeros(0)
    coefs = [phi]
    for p in range(1, pmax + 1):
        k = (acov[p] - np.dot(phi, acov[p - 1:0:-1])) / var[-1]
        phi = np.concatenate([phi - k * phi[::-1], [k]])
        var.append(var[-1] * (1.0 - k * k))
        coefs.append(phi)
        if var[-1] <= 0.0:
            break
    return var, coefs


def chain_ess(x):
    """ESS of one chain; a constant chain counts every draw."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    d = x - x.mean()
    acov0 = float(np.dot(d, d)) / n
    if n < 4 or acov0 <= 1e-300 * max(1.0, float(np.abs(x).max()) ** 2):
        return float(n)
    pmax = min(n - 1, int(10 * math.log10(n)))
    acov = np.array([float(np.dot(d[:n - h], d[h:])) / n for h in range(pmax + 1)])
    var, coefs = _levinson(acov, pmax)
    aic = [n * math.log(v) + 2 * p if v > 0 else math.inf for p, v in enumerate(var)]
    p = int(np.argmin(aic))
    s0 = var[p] / (1.0 - float(coefs[p].sum())) ** 2
    return n * acov0 / s0


def ess(chains):
    """Summed ESS of a (chains, draws) array."""
    return float(sum(chain_ess(c) for c in np.atleast_2d(chains)))


def ar1(n, phi, rng):
    """AR(1) series x_t = phi x_{t-1} + e_t started from stationarity."""
    e = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = e[0] / math.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + e[t]
    return x


def selftest():
    """Mean estimate over 40 AR(1) series within 5% of n(1-phi)/(1+phi)."""
    rng = np.random.default_rng(2011)
    n = 20000
    for phi in (0.0, 0.5, 0.9, 0.97):
        truth = n * (1.0 - phi) / (1.0 + phi)
        est = np.mean([chain_ess(ar1(n, phi, rng)) for _ in range(40)])
        if abs(est / truth - 1.0) > 0.05:
            raise AssertionError(f"AR(1) phi={phi}: ESS {est:.1f}, expected {truth:.1f}")
    if chain_ess(np.full(100, 3.0)) != 100.0:
        raise AssertionError("a constant chain must count every draw")
    two = np.stack([ar1(n, 0.9, rng), ar1(n, 0.9, rng)])
    if not abs(ess(two) / (2 * n * 0.1 / 1.9) - 1.0) < 0.15:
        raise AssertionError("chains must be summed")

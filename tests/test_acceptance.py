"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured statistic.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import functools
import math

import numpy as np
import pytest
from scipy import integrate

from selfsim.core import GridSpec, generate_batch
from selfsim.covmodels import (
    fbm_cov,
    lamperti_acf,
    fgn_acf,
    sfbm_cov,
)
from selfsim.lamperti import lamperti_sampler
from selfsim.samplers import (
    MA_DEFAULT_SUBSTEPS,
    _ma_weights,
    cholesky_sampler,
    circulant_spectrum,
    davies_harte_sampler,
    ma_sampler,
    normalizing_constant_CH,
)
from selfsim.verify import (
    _band_report,
    covariance_match,
    empirical_covariance,
    error_bound_check,
    method_equivalence,
    normality_check,
    quantile_scaling_check,
)


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@functools.lru_cache(maxsize=16)
def lamperti_batch(process, hurst, n, count, seed):
    grid = GridSpec(n)
    return generate_batch(lamperti_sampler(process, hurst, grid), count, seed)


@functools.lru_cache(maxsize=8)
def dh_batch(hurst, n, count, seed):
    grid = GridSpec(n)
    return generate_batch(davies_harte_sampler(grid, hurst), count, seed)


@functools.lru_cache(maxsize=8)
def cholesky_batch(hurst, n, count, seed):
    grid = GridSpec(n)
    return generate_batch(cholesky_sampler("fbm", hurst, grid), count, seed)


def marginal_variance_worst(process, hurst, nodes, n=256, count=20_000, seed=101):
    batch = lamperti_batch(process, hurst, n, count, seed)
    values = batch.values
    worst = 0.0
    for j in nodes:
        t = j / n
        target = t ** (2 * hurst)
        if process == "sfbm":
            target *= 2.0 - 2.0 ** (2 * hurst - 1)
        est = values[:, j - 1].var(ddof=1)
        worst = max(worst, abs(est - target) / (target * math.sqrt(2 / count)))
    return worst


class TestAcceptance:
    @pytest.mark.parametrize("hurst", [0.2, 0.5, 0.8])
    def test_01_lamperti_fbm_marginal_variance(self, hurst):
        worst = marginal_variance_worst("fbm", hurst, (64, 128, 256))
        ok = worst <= 4.0
        report("1 lamperti-fbm marginal variance", ok, f"H={hurst}, worst={worst:.2f} SE")
        assert ok

    @pytest.mark.parametrize("hurst", [0.2, 0.5, 0.8])
    def test_02_lamperti_sfbm_marginal_variance(self, hurst):
        worst = marginal_variance_worst("sfbm", hurst, (64, 128, 256), seed=102)
        ok = worst <= 4.0
        report("2 lamperti-sfbm marginal variance", ok, f"H={hurst}, worst={worst:.2f} SE")
        assert ok

    def test_03_rescaled_acf_oracle_lattice(self):
        def oracle(cov, k, n, hurst):
            t1, t2 = n ** (1 / n - 1), n ** ((k + 1) / n - 1)
            pref = n ** (-hurst * (1 / n - 1)) * n ** (-hurst * ((k + 1) / n - 1))
            return pref * cov(t1, t2, hurst)

        worst = 0.0
        for n in (8, 64, 256):
            for hurst in (0.1, 0.3, 0.5, 0.7, 0.9):
                for k in range(n + 1):
                    worst = max(
                        worst,
                        abs(lamperti_acf("fbm", k, n, hurst) - oracle(fbm_cov, k, n, hurst)),
                        abs(lamperti_acf("sfbm", k, n, hurst) - oracle(sfbm_cov, k, n, hurst)),
                    )
        ok = worst <= 1e-10
        report("3 rescaled ACF oracle", ok, f"worst abs diff={worst:.2e}")
        assert ok

    @pytest.mark.parametrize("hurst", [0.3, 0.7])
    def test_04_fft_vs_cholesky_equivalence(self, hurst):
        a = dh_batch(hurst, 64, 50_000, 103)
        b = cholesky_batch(hurst, 64, 50_000, 104)
        result = method_equivalence(a, b)
        frac = result.details[0]["fraction_within"]
        ok = result.verdict
        report(
            "4 davies-harte vs cholesky",
            ok,
            f"H={hurst}, within-4SE={frac:.3f}, worst={result.worst_deviation:.2f} SE",
        )
        assert ok

    def test_05_fgn_embedding_nonnegative(self):
        # every eigenvalue strictly positive: every slot is live (k == m), no mass clamped
        n = 1024
        fewest_live, worst_mass = math.inf, 0.0
        for hurst in np.arange(0.1, 0.95, 0.1):
            spec = circulant_spectrum(fgn_acf(np.arange(n), n, float(hurst)))
            assert spec.m == 2 * (n - 1)
            fewest_live = min(fewest_live, davies_harte_sampler(GridSpec(n), float(hurst)).k)
            worst_mass = max(worst_mass, spec.clamped_mass)
        ok = fewest_live == 2 * (n - 1) and worst_mass == 0.0
        report("5 fGn embedding nonnegativity", ok, f"min live={fewest_live}, max mass={worst_mass}")
        assert ok

    def test_06_error_bound_rate(self):
        ladder = [2**8, 2**10, 2**12, 2**14]
        result = error_bound_check(ladder, 0.5)
        c1 = result.worst_deviation
        rates_bounded = all(e["a_rate"] <= c1 + 1e-15 for e in result.details)
        a = [e["a"] for e in result.details]
        a_decreasing = all(x > y for x, y in zip(a, a[1:]))
        ok = rates_bounded and a_decreasing
        report("6 error-bound rate", ok, f"c1={c1:.3f}, a decreasing={a_decreasing}")
        assert ok

    @pytest.mark.parametrize("method", ["lamperti", "davies-harte"])
    def test_07_brownian_reduction(self, method):
        n, count = 256, 20_000
        if method == "lamperti":
            batch = lamperti_batch("fbm", 0.5, n, count, 101)
        else:
            batch = dh_batch(0.5, n, count, 105)
        values = batch.values
        incr = np.diff(np.hstack([np.zeros((count, 1)), values]), axis=1)
        # pooled across nodes and replicates; SE stated at the single-node scale
        var_est = float(np.mean(incr**2))
        var_dev = abs(var_est - 1 / n) / ((1 / n) * math.sqrt(2 / count))
        corr = float(np.mean(incr[:, :-1] * incr[:, 1:]) / np.mean(incr**2))
        corr_tol = 4 / math.sqrt(count)
        ok = var_dev <= 4.0 and abs(corr) <= corr_tol
        report(
            "7 H=1/2 Brownian reduction",
            ok,
            f"{method}: n*var={n * var_est:.4f} ({var_dev:.2f} SE), lag-1 corr={corr:.4f}",
        )
        assert ok

    def test_08_truncation_bias(self):
        # The truncated moving average is biased by design: it draws exactly
        # the law Sigma_T = W W^T of its weight matrix W, which lacks the
        # covariance carried by the noise before -T. The tight horizon must
        # fail the fBm match, both batches must follow Sigma_T, and the
        # terminal variance must miss exactly C_H^2 times the discarded tail
        # of the normalising integral. The T = 50 fBm match is only reported:
        # its ~4.9 SE bias sits on the band's edge at this replicate count.
        n, hurst, count = 64, 0.8, 20_000
        grid = GridSpec(n)
        c_h2 = normalizing_constant_CH(hurst) ** 2
        a = hurst - 0.5
        # (1+v)^a - v^a, written so that it does not cancel for large v
        tail = lambda v: (v**a * math.expm1(a * math.log1p(1.0 / v))) ** 2
        pairs = [(j, k) for j in range(1, n + 1) for k in range(1, n + 1)]
        results, law, bias = {}, {}, {}
        for truncation, seed in ((2.0, 106), (50.0, 107)):
            batch = generate_batch(ma_sampler(grid, hurst, truncation=truncation), count, seed)
            results[truncation] = covariance_match(batch)
            weights = _ma_weights(n, hurst, truncation, MA_DEFAULT_SUBSTEPS)
            implied = weights @ weights.T
            cov, se = empirical_covariance(batch, pairs)
            # the 4-standard-error band rule of covariance_match, against W W^T
            match = _band_report("implied", batch, count, np.abs(cov - implied.ravel()) / se, {})
            law[truncation] = (match.verdict, match.worst_deviation)
            missing = c_h2 * integrate.quad(tail, truncation, np.inf)[0]
            bias[truncation] = (implied[-1, -1] - 1.0, -missing)
        tight_fails = not results[2.0].verdict
        law_holds = all(passes for passes, _ in law.values())
        bias_exact = all(abs(got - want) <= 1e-3 for got, want in bias.values())
        ok = tight_fails and law_holds and bias_exact
        report(
            "8 truncation bias",
            ok,
            f"T=2 verdict={'fail' if not results[2.0].verdict else 'pass'} "
            f"(worst {results[2.0].worst_deviation:.1f} SE), "
            f"T=50 verdict={'pass' if results[50.0].verdict else 'fail'} "
            f"(worst {results[50.0].worst_deviation:.1f} SE, not asserted); "
            f"vs W W^T worst {law[2.0][1]:.1f} / {law[50.0][1]:.1f} SE; "
            f"terminal variance bias {bias[2.0][0]:+.4f} / {bias[50.0][0]:+.4f}, "
            f"integral {bias[2.0][1]:+.4f} / {bias[50.0][1]:+.4f}",
        )
        assert tight_fails, "tight truncation should fail the covariance match"
        for truncation, (passes, worst) in law.items():
            assert passes, (
                f"T={truncation:g} batch should match its implied covariance "
                f"W W^T (worst {worst:.1f} SE)"
            )
        for truncation, (got, want) in bias.items():
            assert abs(got - want) <= 1e-3, (
                f"T={truncation:g} terminal variance bias {got:+.5f} should equal "
                f"the truncated integral {want:+.5f}"
            )
        assert abs(bias[50.0][0]) < abs(bias[2.0][0]), "bias should shrink as T grows"

    @pytest.mark.parametrize("hurst", [0.2, 0.8])
    def test_09_lamperti_normality(self, hurst):
        n, count = 256, 10_000
        result = normality_check(lamperti_batch("fbm", hurst, n, count, 108))
        assert [d["node"] for d in result.details] == [n // 4, n // 2, n]
        ok = result.verdict
        report(
            "9 lamperti marginal normality",
            ok,
            f"H={hurst}, worst KS={result.worst_deviation:.4f}, crit={result.tolerance:.4f}",
        )
        assert ok

    @pytest.mark.parametrize("process", ["fbm", "sfbm"])
    def test_10_quantile_scaling(self, process):
        batch = lamperti_batch(process, 0.7, 256, 20_000, 109)
        result = quantile_scaling_check(batch)
        ok = result.verdict
        report(
            "10 one-dimensional scaling law",
            ok,
            f"{process}: worst quantile dev={result.worst_deviation:.2f} bootstrap SE",
        )
        assert ok

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ledid
from ledid import McConfig, ParameterError, agreement_report, mc_ber_bfsk, oracle


def analytic(snr):
    return 0.5 * math.exp(-0.5 * snr)


def reference_estimate(snr, trials, seed):
    """Independent re-derivation of the pinned algorithm.

    Philox 4x64-10 seeded through SeedSequence, uniforms consumed four per
    trial in draw order, Box-Muller on (1 - u) pairs. Mirrors the
    documented construction so any drift in the implementation is caught
    bit-for-bit.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    u = rng.random((trials, 4))
    r1 = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
    g1 = r1 * np.cos(2.0 * np.pi * u[:, 1])
    g2 = r1 * np.sin(2.0 * np.pi * u[:, 1])
    r2 = np.sqrt(-2.0 * np.log1p(-u[:, 2]))
    g3 = r2 * np.cos(2.0 * np.pi * u[:, 3])
    g4 = r2 * np.sin(2.0 * np.pi * u[:, 3])
    a = math.sqrt(2.0 * snr)
    errors = int(np.count_nonzero(g3 ** 2 + g4 ** 2 > (a + g1) ** 2 + g2 ** 2))
    return errors / trials


class TestMcBerBfsk:
    def test_zero_snr_is_a_fair_coin(self):
        estimate, std_error = mc_ber_bfsk(McConfig(snr=0.0, trials=200_000, seed=1))
        assert abs(estimate - 0.5) <= 3.0 * std_error

    def test_matches_analytic_at_the_one_percent_point(self):
        snr = 2.0 * math.log(50.0)
        estimate, std_error = mc_ber_bfsk(McConfig(snr=snr, trials=1_000_000, seed=7))
        assert abs(estimate - 1e-2) <= 3.0 * std_error
        assert std_error == pytest.approx(3e-4, rel=0.75)

    def test_fixed_seed_reproduces_bit_identical_results(self):
        config = McConfig(snr=4.0, trials=100_000, seed=123456789)
        assert mc_ber_bfsk(config) == mc_ber_bfsk(config)

    def test_different_seeds_differ(self):
        a, _ = mc_ber_bfsk(McConfig(snr=0.0, trials=100_000, seed=1))
        b, _ = mc_ber_bfsk(McConfig(snr=0.0, trials=100_000, seed=2))
        assert a != b

    def test_matches_the_documented_construction_exactly(self):
        for snr, seed in ((0.0, 3), (5.5, 99)):
            estimate, _ = mc_ber_bfsk(McConfig(snr=snr, trials=50_000, seed=seed))
            assert estimate == reference_estimate(snr, 50_000, seed)

    def test_batching_does_not_change_the_stream(self):
        # More trials than one internal batch; trial i must keep draws
        # 4 i .. 4 i + 3 regardless of batch boundaries.
        trials = (1 << 20) + 4_321
        estimate, _ = mc_ber_bfsk(McConfig(snr=2.0, trials=trials, seed=11))
        assert estimate == reference_estimate(2.0, trials, 11)

    def test_std_error_formula(self):
        estimate, std_error = mc_ber_bfsk(McConfig(snr=1.0, trials=10_000, seed=5))
        assert std_error == pytest.approx(
            math.sqrt(estimate * (1.0 - estimate) / 10_000), rel=1e-12)

    def test_invalid_configs_raise(self):
        with pytest.raises(ParameterError):
            McConfig(snr=1.0, trials=0, seed=1)
        with pytest.raises(ParameterError):
            McConfig(snr=-0.5, trials=10, seed=1)
        with pytest.raises(ParameterError):
            McConfig(snr=1.0, trials=10, seed=-1)
        with pytest.raises(ParameterError):
            McConfig(snr=1.0, trials=10, seed=2 ** 64)

    def test_bool_seed_raises(self):
        # bool is an int subclass; True must not run as seed 1.
        message = "seed must be a 64-bit unsigned integer, got True"
        with pytest.raises(ParameterError, match=message):
            McConfig(snr=1.0, trials=100, seed=True)
        with pytest.raises(ParameterError, match=message):
            agreement_report((0.0, 1.0), trials=100, seed=True)

    def test_no_snr_still_checks_trials_and_seed(self):
        with pytest.raises(ParameterError, match="^trials must be a positive integer, got 0$"):
            agreement_report((), 0, 5)
        with pytest.raises(ParameterError, match="^seed must be a 64-bit unsigned integer, got -1$"):
            agreement_report((), 10, -1)
        with pytest.raises(ParameterError, match="^seed must be a 64-bit unsigned integer, got True$"):
            agreement_report((), 10, True)
        assert agreement_report((), 10, 5) == ()


class TestAgreement:
    def test_estimates_monotone_in_snr(self):
        points = agreement_report((0.0, 1.0, 2.0, 4.0, 8.0), trials=1_000_000, seed=42)
        estimates = [p.estimate for p in points]
        assert all(a > b for a, b in zip(estimates, estimates[1:]))

    def test_three_sigma_agreement_suite(self):
        points = agreement_report((0.0, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0),
                                  trials=1_000_000, seed=42)
        assert sum(p.within_3_sigma for p in points) >= 6
        for p in points:
            assert p.analytic == pytest.approx(analytic(p.snr), rel=1e-15)


class TestSharedDraws:
    """One report scores every SNR against the same draws."""

    @pytest.mark.parametrize("snrs, trials, seed", [
        ((0.0, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0), 50_000, 42),
        ((16.0, 0.0, 4.0, 4.0, math.inf, 2.5), 20_000, 9),
        ((2.0, 0.0, 6.0), (1 << 20) + 4_321, 11),
    ], ids=["defaults", "unsorted-duplicate-inf", "crosses-a-batch"])
    def test_each_point_equals_its_own_run(self, snrs, trials, seed):
        points = agreement_report(snrs, trials, seed)
        assert [p.snr for p in points] == list(snrs)
        for point in points:
            estimate, std_error = mc_ber_bfsk(McConfig(snr=point.snr, trials=trials, seed=seed))
            assert point.estimate == estimate
            assert point.std_error == std_error

    @pytest.mark.parametrize("snrs", [(0.0, 1.0, math.nan), (4.0, -1.0, 2.0)], ids=["nan-last", "negative"])
    def test_bad_snr_raises_before_drawing(self, monkeypatch, snrs):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before every SNR was checked")

        monkeypatch.setattr(np.random, "Philox", no_draws)
        with pytest.raises(ParameterError):
            agreement_report(snrs, trials=1_000, seed=1)


class TestBlockBoundaries:
    """Trial counts on either side of a block boundary give the full-array estimates."""

    SNRS = (0.0, 2.0, 6.0)

    @pytest.mark.parametrize("block, k", [(1, 40), (7, 30), (4096, 3)], ids=["1", "7", "4096"])
    def test_estimates_equal_the_full_array_reference(self, monkeypatch, block, k):
        monkeypatch.setattr(oracle, "_BATCH_TRIALS", block)
        for trials in (k * block - 1, k * block, k * block + 1):
            expected = [reference_estimate(snr, trials, 17) for snr in self.SNRS]
            alone = [mc_ber_bfsk(McConfig(snr=snr, trials=trials, seed=17))[0] for snr in self.SNRS]
            assert alone == expected, trials
            assert [p.estimate for p in agreement_report(self.SNRS, trials, 17)] == expected, trials


def _peak_rss_mib(*args):
    # ru_maxrss (KiB on Linux) of one child running python with ``args``, read
    # by a fresh process whose only child it is.
    probe = ("import resource, subprocess, sys; "
             "subprocess.run([sys.executable, *sys.argv[1:]], stdout=subprocess.DEVNULL, check=True); "
             "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    src = str(Path(ledid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    result = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True, text=True,
                            env=env, check=True, timeout=300)
    return int(result.stdout) / 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only")
def test_default_mc_verify_memory_is_flat():
    # 10^6 trials in blocks: the run's peak stays near that of importing the CLI.
    baseline = _peak_rss_mib("-c", "import ledid.cli")
    assert _peak_rss_mib("-m", "ledid", "mc-verify") - baseline <= 16.0

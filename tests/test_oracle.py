import math
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import ledid
from ledid import ParameterError, agreement_report, cli, oracle


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


def one_snr(snr, trials, seed):
    point, = agreement_report((snr,), trials, seed)
    return point.estimate, point.std_error


class TestMcBerBfsk:
    """One-SNR reports: the estimate and standard error at a single SNR."""

    def test_zero_snr_is_a_fair_coin(self):
        estimate, std_error = one_snr(0.0, 200_000, 1)
        assert abs(estimate - 0.5) <= 3.0 * std_error

    def test_matches_analytic_at_the_one_percent_point(self):
        snr = 2.0 * math.log(50.0)
        estimate, std_error = one_snr(snr, 1_000_000, 7)
        assert abs(estimate - 1e-2) <= 3.0 * std_error
        assert std_error == pytest.approx(3e-4, rel=0.75)

    def test_fixed_seed_reproduces_bit_identical_results(self):
        assert one_snr(4.0, 100_000, 123456789) == one_snr(4.0, 100_000, 123456789)

    def test_different_seeds_differ(self):
        a, _ = one_snr(0.0, 100_000, 1)
        b, _ = one_snr(0.0, 100_000, 2)
        assert a != b

    def test_matches_the_documented_construction_exactly(self):
        for snr, seed in ((0.0, 3), (5.5, 99)):
            estimate, _ = one_snr(snr, 50_000, seed)
            assert estimate == reference_estimate(snr, 50_000, seed)

    def test_batching_does_not_change_the_stream(self):
        # More trials than one internal batch; trial i must keep draws
        # 4 i .. 4 i + 3 regardless of batch boundaries.
        trials = (1 << 20) + 4_321
        estimate, _ = one_snr(2.0, trials, 11)
        assert estimate == reference_estimate(2.0, trials, 11)

    def test_std_error_formula(self):
        estimate, std_error = one_snr(1.0, 10_000, 5)
        assert std_error == pytest.approx(
            math.sqrt(estimate * (1.0 - estimate) / 10_000), rel=1e-12)

    def test_invalid_configs_raise(self):
        for snr, trials, seed, message in (
                (1.0, 0, 1, "trials must be a positive integer, got 0"),
                (1.0, True, 1, "trials must be a positive integer, got True"),
                (-0.5, 10, 1, "SNR must be >= 0, got -0.5"),
                (math.nan, 10, 1, "SNR must be >= 0, got nan"),
                (1.0, 10, -1, "seed must be a 64-bit unsigned integer, got -1"),
                (1.0, 10, 2 ** 64, f"seed must be a 64-bit unsigned integer, got {2 ** 64}"),
                (1.0, np.int64(0), 1, "trials must be a positive integer, got 0"),
                (1.0, np.bool_(True), 1, "trials must be a positive integer, got True"),
                (1.0, 1000.0, 1, "trials must be a positive integer, got 1000.0"),
                (1.0, np.float64(1000.0), 1, "trials must be a positive integer, got 1000.0"),
                (1.0, 10, np.int64(-1), "seed must be a 64-bit unsigned integer, got -1"),
                (1.0, 10, np.bool_(False), "seed must be a 64-bit unsigned integer, got False"),
                (1.0, 10, 5.0, "seed must be a 64-bit unsigned integer, got 5.0")):
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                agreement_report((snr,), trials, seed)

    def test_numpy_integers_are_integers(self, monkeypatch):
        # Any integer operator.index takes is one; Philox is seeded with a Python int.
        seeds = []
        philox = np.random.Philox

        def recording(seed):
            seeds.append(seed)
            return philox(seed)

        monkeypatch.setattr(np.random, "Philox", recording)
        expected = agreement_report((1.0,), 1000, 5)
        for trials, seed in ((np.int64(1000), 5), (1000, np.uint64(5)), (np.int32(1000), np.int8(5))):
            seeds.clear()
            assert agreement_report((1.0,), trials, seed) == expected
            assert seeds and all(type(seed) is int for seed in seeds)
        assert agreement_report((1.0,), 10, np.uint64(2 ** 64 - 1)) == agreement_report((1.0,), 10, 2 ** 64 - 1)

    def test_bool_seed_raises(self):
        # bool is an int subclass; True must not run as seed 1.
        message = "seed must be a 64-bit unsigned integer, got True"
        with pytest.raises(ParameterError, match=message):
            agreement_report((1.0,), trials=100, seed=True)
        with pytest.raises(ParameterError, match=message):
            agreement_report((0.0, 1.0), trials=100, seed=True)

    def test_every_snr_is_checked_before_trials_and_seed(self):
        with pytest.raises(ParameterError, match="^SNR must be >= 0, got -1.0$"):
            agreement_report((1.0, -1.0), 0, -1)

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
            alone, = agreement_report((point.snr,), trials, seed)
            assert point.estimate == alone.estimate
            assert point.std_error == alone.std_error

    def test_a_generator_of_snrs_gives_the_tuple_report(self):
        snrs = (0.0, 2.0, 6.0, 200.0)
        assert agreement_report((snr for snr in snrs), 20_000, 3) == agreement_report(snrs, 20_000, 3)
        with pytest.raises(ParameterError, match="^SNR must be >= 0, got -1.0$"):
            agreement_report((snr for snr in (1.0, -1.0)), 100, 3)

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
            alone = [one_snr(snr, trials, 17)[0] for snr in self.SNRS]
            assert alone == expected, trials
            assert [p.estimate for p in agreement_report(self.SNRS, trials, 17)] == expected, trials


def exact_errors(u, amplitude):
    """Errors among rows of uniforms, every row scored by the documented construction."""
    return int(np.count_nonzero(exact_decisions(u, amplitude)))


def exact_decisions(u, amplitude):
    """Whether each row of uniforms errs by the documented construction."""
    r1 = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
    g1 = r1 * np.cos(2.0 * np.pi * u[:, 1])
    g2 = r1 * np.sin(2.0 * np.pi * u[:, 1])
    r2 = np.sqrt(-2.0 * np.log1p(-u[:, 2]))
    g3 = r2 * np.cos(2.0 * np.pi * u[:, 3])
    g4 = r2 * np.sin(2.0 * np.pi * u[:, 3])
    with np.errstate(over="ignore"):
        return g3 ** 2 + g4 ** 2 > (amplitude + g1) ** 2 + g2 ** 2


def score_block(u, amplitudes):
    return oracle._score_block(u, amplitudes, np.empty((oracle._WORK_ROWS, len(u))))


class TestCertifiedScoring:
    """Trials decided from g1 alone count as the comparison of every trial does."""

    # The last list scores the largest amplitude, a = sqrt(2 161.99) ~ 18.0,
    # so its blocks take the widest window.
    SNR_LISTS = [(0.0, 2.0, 0.0, 6.0), (16.0, 0.0, 4.0, 4.0, math.inf, 2.5),
                 (8e307, 0.0, math.inf, 8.988465674311579e307, 1.0), (161.99, 162.0, 0.0)]

    @staticmethod
    def _exact_rows(monkeypatch):
        # The number of rows each call of the exact path scores.
        seen = []
        noise_terms = oracle._noise_terms

        def recording(u):
            seen.append(len(u))
            return noise_terms(u)

        monkeypatch.setattr(oracle, "_noise_terms", recording)
        return seen

    @pytest.mark.parametrize("seed", range(10))
    def test_counts_equal_the_exact_construction(self, monkeypatch, seed):
        # 10 seeds x 8 trial counts x 3 SNR lists: 240 cases, on both sides of
        # the boundaries of 97-trial blocks.
        monkeypatch.setattr(oracle, "_BATCH_TRIALS", 97)
        for trials in (1, 96, 97, 98, 193, 194, 195, 1_000):
            u = np.random.Generator(np.random.Philox(seed)).random((trials, 4))
            for snrs in self.SNR_LISTS:
                expected = [exact_errors(u, math.sqrt(2.0 * snr)) for snr in snrs]
                assert oracle._error_counts(snrs, trials, seed) == expected, (trials, snrs)

    @pytest.mark.parametrize("extra", [512.0, 1e6, 1e20, 8e307])
    def test_an_snr_no_trial_errs_at_is_not_scored(self, monkeypatch, extra):
        # One huge SNR appended to the default list: every count equals the
        # exact construction's, and no more rows take the exact path than
        # without it, as the huge one is not scored and widens no slack.
        monkeypatch.setattr(oracle, "_BATCH_TRIALS", 997)
        snrs = (0.0, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0)
        trials = 5_000
        u = np.random.Generator(np.random.Philox(29)).random((trials, 4))
        seen = self._exact_rows(monkeypatch)
        oracle._error_counts(snrs, trials, 29)
        rows_without = sum(seen)
        seen.clear()
        expected = [exact_errors(u, math.sqrt(2.0 * snr)) for snr in snrs + (extra,)]
        assert oracle._error_counts(snrs + (extra,), trials, 29) == expected
        assert expected[-1] == 0
        assert sum(seen) == rows_without

    def test_near_ties_equal_the_exact_construction(self, monkeypatch):
        # At SNR 0 a row with u2 = u0 and u3 = u1 is an exact tie, which is no
        # error; its float neighbours differ from a tie by about one rounding.
        pairs = np.random.Generator(np.random.Philox(2024)).random((400, 2))
        pairs = np.concatenate([pairs, [[0.5, 0.25], [0.5, 0.75], [0.25, 0.5], [0.75, 0.0]]])
        rows = np.array([(u0, u1, u2, u3) for u0, u1 in pairs
                         for u2 in (np.nextafter(u0, 0.0), u0, np.nextafter(u0, 1.0))
                         for u3 in (np.nextafter(u1, 0.0), u1, np.nextafter(u1, 1.0))])
        ties = (rows[:, 2] == rows[:, 0]) & (rows[:, 3] == rows[:, 1])
        seen = self._exact_rows(monkeypatch)
        assert score_block(rows[ties], [0.0]) == [0]
        assert seen == [ties.sum()]
        assert score_block(rows, [0.0]) == [exact_errors(rows, 0.0)]

    def test_snrs_whose_amplitude_squared_overflows_count_quietly(self, monkeypatch):
        # SNR 1.125e308 (amplitude 1.5e154, whose square passes the largest
        # float) and inf count 0 unscored, as every SNR from _ERRORLESS_SNR on
        # does: no overflow warning, and no row takes the exact path.
        u = np.random.Generator(np.random.Philox(5)).random((300, 4))
        snrs = (0.0, 1.125e308, math.inf)
        expected = [exact_errors(u, math.sqrt(2.0 * snr)) for snr in snrs]
        seen = self._exact_rows(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert oracle._error_counts(snrs, 300, 5) == expected
        assert seen == []


def near_ties(amplitude, n=20_000):
    """Rows at amplitude a whose exact decision differs from the sign of q - v
    for the float32 g1, which lies more than 2 _TIE_SLACK from 0; and whether
    that sign calls each an error. Each row ties the float64 v: u1 is the
    phase that makes v = a (a + 2 g1) equal q = L2 - L1, to rounding."""
    rng = np.random.Generator(np.random.Philox(35))
    u = -np.expm1(-0.5 * rng.uniform(1.0, 73.4, (n, 2)))
    l1, l2 = oracle._radius_squared(u[:, 0]), oracle._radius_squared(u[:, 1])
    cos = ((l2 - l1) / amplitude - amplitude) / (2.0 * np.sqrt(l1))
    keep = np.abs(cos) < 0.995
    phase = np.arccos(cos[keep]) * rng.choice([-1.0, 1.0], keep.sum()) % (2.0 * np.pi)
    rows = np.column_stack([u[keep, 0], phase / (2.0 * np.pi), u[keep, 1], rng.random(keep.sum())])
    q = l2[keep] - l1[keep]
    g1 = oracle._gaussian32(l1[keep], rows[:, 1], np.empty(len(rows)), np.empty(len(rows)))
    v = (2.0 * g1 + amplitude) * amplitude
    calls_error = v < q
    flipped = (np.abs(q - v) > 2.0 * oracle._TIE_SLACK) & (exact_decisions(rows, amplitude) != calls_error)
    return rows[flipped], calls_error[flipped]


class TestTieWindow:
    """The premises of the tie window ``_TIE_SLACK + a_max * _COS32_SLACK``."""

    @pytest.mark.parametrize("snrs", [(161.99999,), (0.0, 162.0, 16.0), (1e20, 161.99999, math.inf, 2.0),
                                      (math.inf, 162.0, 1e20)])
    def test_no_scored_amplitude_passes_18(self, monkeypatch, snrs):
        amplitudes = []
        score_block = oracle._score_block

        def recording(u, block_amplitudes, work):
            amplitudes.extend(block_amplitudes)
            return score_block(u, block_amplitudes, work)

        monkeypatch.setattr(oracle, "_score_block", recording)
        oracle._error_counts(snrs, 100, 3)
        assert all(a <= 18.0 for a in amplitudes)
        assert len(amplitudes) == sum(snr < 162.0 for snr in snrs)

    @staticmethod
    def _largest_per_trial_window():
        # The per-trial half-width that _TIE_SLACK replaced, 1e-9 (L2 + 2 L1 +
        # (a + |g1|)^2) in float steps, at its largest: both radii from the
        # largest draw 1 - 2^-53, g1 = sqrt(L1) at u1 = 0, and a = 18.
        u = np.array([1.0 - 2.0 ** -53])
        l1 = l2 = -2.0 * np.log1p(-u)
        g1 = np.sqrt(l1) * np.cos(2.0 * np.pi * 0.0)
        assert l1[0] < 73.5 and g1[0] < 8.6
        slack = np.abs(g1) + 18.0
        slack *= slack
        slack += l2
        slack += l1
        slack += l1
        assert slack[0] < 927.0
        slack *= 1e-9
        return slack[0]

    def test_the_window_holds_the_per_trial_window(self):
        assert self._largest_per_trial_window() <= oracle._TIE_SLACK

    def test_the_widest_window_holds_the_float32_cos_bound(self):
        # At a = 18 the float32 g1 moves v = a (a + 2 g1) by at most
        # 2 x 18 x 8.6 x 2^-21; the window covers that beside the per-trial window.
        window = oracle._TIE_SLACK + 18.0 * oracle._COS32_SLACK
        assert window >= 2.0 * 18.0 * 8.6 * 2.0 ** -21 + self._largest_per_trial_window()

    def test_the_float32_g1_is_within_its_bound(self):
        # 2^20 drawn phases, and 0, the quarter turns and the largest draw with
        # their float neighbours and the draws beside them: |g1 - the float64
        # g1| <= sqrt(L1) 2^-21 on the installed numpy, and the two differ.
        rng = np.random.Generator(np.random.Philox(35))
        ends = np.array([0.0, 0.25, 0.5, 0.75, 1.0 - 2.0 ** -53])
        near = np.concatenate([ends, np.nextafter(ends, -1.0), np.nextafter(ends, 2.0),
                               ends - 2.0 ** -53, ends + 2.0 ** -53])
        u1 = np.concatenate([rng.random(1 << 20), near[(near >= 0.0) & (near < 1.0)]])
        u0 = rng.random(len(u1))
        u0[-len(ends):] = 1.0 - 2.0 ** -53
        l1 = oracle._radius_squared(u0)
        error = np.abs(oracle._gaussian32(l1, u1, np.empty(len(u1)), np.empty(len(u1)))
                       - oracle._gaussian(l1, u1, np.cos))
        assert np.all(error <= np.sqrt(l1) * 2.0 ** -21)
        assert np.any(error > 0.0)

    @pytest.mark.parametrize("amplitude", [math.sqrt(2.0), math.sqrt(32.0), 16.0])
    def test_rows_between_the_two_v_count_as_the_exact_construction(self, amplitude):
        # Only the amplitude's _COS32_SLACK share of the window sends these rows
        # to the exact path. No row can tie above a ~ 17.1, as a tie needs
        # (a - sqrt(L1))^2 <= L2 < 73.5, so the widest window, a ~ 18's, is
        # tried with a and 0 beside it: the block's largest amplitude sets it.
        rows, calls_error = near_ties(amplitude)
        for group in (rows[calls_error], rows[~calls_error]):
            assert len(group) >= 20
            assert score_block(group, [amplitude]) == [exact_errors(group, amplitude)]
            assert score_block(group, [0.0, amplitude, 17.99]) == [exact_errors(group, a) for a in (0.0, amplitude, 17.99)]

    def test_the_default_report_sends_38_rows_to_the_exact_path(self, monkeypatch):
        # 7 x 10^6 decisions, seed 42: a window wide enough to send whole
        # blocks to the exact path would show here.
        seen = TestCertifiedScoring._exact_rows(monkeypatch)
        agreement_report((0.0, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0), 1_000_000, 42)
        assert sum(seen) == 38


class TestSplitRuns:
    """Trials cut into runs at block boundaries count as one run does."""

    @staticmethod
    def _runs(monkeypatch):
        # The (first, end) trials of each run _error_counts scores.
        seen = []
        score_run = oracle._score_run

        def recording(seed, first, end, *args):
            seen.append((first, end))
            return score_run(seed, first, end, *args)

        monkeypatch.setattr(oracle, "_score_run", recording)
        return seen

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    @pytest.mark.parametrize("runs", [1, 2, 3, 7])
    def test_counts_equal_the_exact_construction(self, monkeypatch, runs, seed):
        monkeypatch.setattr(oracle, "_BATCH_TRIALS", 97)
        monkeypatch.setattr(oracle, "_max_runs", lambda: runs)
        seen = self._runs(monkeypatch)
        for trials in (1, 96, 97, 98, 680, 1_000):
            u = np.random.Generator(np.random.Philox(seed)).random((trials, 4))
            for snrs in TestCertifiedScoring.SNR_LISTS:
                seen.clear()
                expected = [exact_errors(u, math.sqrt(2.0 * snr)) for snr in snrs]
                assert oracle._error_counts(snrs, trials, seed) == expected, (trials, snrs)
                assert len(seen) == min(runs, -(-trials // 97))
                starts, ends = zip(*sorted(seen))
                assert starts[0] == 0 and ends[-1] == trials and starts[1:] == ends[:-1]
                assert all(start % 97 == 0 for start in starts)

    @pytest.mark.parametrize("seed", [0, 1, 42, 2 ** 63, 2 ** 64 - 1])
    def test_an_advanced_generator_starts_at_trial_k(self, seed):
        # Rows k .. k + m - 1 of the serial draws, bit for bit.
        m = 50
        for k in (0, 1, 3, 97, 1_000):
            rows = np.random.Generator(np.random.Philox(seed)).random((k + m, 4))
            advanced = np.random.Generator(np.random.Philox(seed).advance(k)).random((m, 4))
            assert advanced.tobytes() == rows[k:].tobytes(), k

    def test_scoring_raises_no_floating_point_error(self, monkeypatch):
        # Why a run's thread needs none of the caller's numpy error state: the
        # scoring meets no overflow, underflow, invalid or divide at any SNR.
        snrs = (0.0, 1e-300, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 100.0, 161.9, 162.0, 1e300, math.inf)
        for seed in (0, 42, 2 ** 64 - 1):
            monkeypatch.setattr(oracle, "_max_runs", lambda: 4)
            split = agreement_report(snrs, 300_000, seed)
            monkeypatch.setattr(oracle, "_max_runs", lambda: 1)
            with np.errstate(all="raise"):
                assert agreement_report(snrs, 300_000, seed) == split, seed

    def test_a_report_leaves_no_thread(self, monkeypatch):
        monkeypatch.setattr(oracle, "_max_runs", lambda: 4)
        before = threading.active_count()
        agreement_report((0.0, 2.0), 100_000, 3)
        assert threading.active_count() == before


class TestFailingRun:
    """A run that raises stops every run, and the call raises once all are joined."""

    @pytest.mark.parametrize("failing", [max, min], ids=["last-run", "callers-run"])
    def test_every_run_stops_and_is_joined(self, monkeypatch, failing):
        # The first block of each run waits until all three have started; then
        # the run that ``failing`` picks by first trial raises, and the others
        # finish their block only once the call's stop event is set. No block
        # may start after the raise.
        runs, trials, seed = 3, 1_000, 8
        monkeypatch.setattr(oracle, "_BATCH_TRIALS", 97)
        monkeypatch.setattr(oracle, "_max_runs", lambda: runs)
        stops, score_run = [], oracle._score_run

        def run_recording(*args):
            stops.append(args[-1])
            return score_run(*args)

        monkeypatch.setattr(oracle, "_score_run", run_recording)
        rows = np.random.Generator(np.random.Philox(seed)).random((trials, 4))
        events, firsts, lock = [], {}, threading.Lock()
        barrier, score_block = threading.Barrier(runs, timeout=30), oracle._score_block

        def scoring(u, amplitudes, work):
            me = threading.current_thread()
            with lock:
                events.append("start")
                first = me not in firsts
                if first:
                    firsts[me] = int(np.flatnonzero((rows == u[0]).all(axis=1))[0])
            if first:
                barrier.wait()
                if firsts[me] == failing(firsts.values()):
                    with lock:
                        events.append("raise")
                    raise MemoryError
                assert stops[0].wait(30)
            return score_block(u, amplitudes, work)

        monkeypatch.setattr(oracle, "_score_block", scoring)
        before = threading.active_count()
        with pytest.raises(MemoryError):
            agreement_report((0.0, 4.0), trials, seed)
        assert threading.active_count() == before
        assert sorted(firsts.values()) == [0, 97 * 3, 97 * 7]
        assert len(set(stops)) == 1
        assert events == ["start"] * runs + ["raise"]

    def test_a_thread_that_cannot_start_raises_its_own_error(self, monkeypatch):
        # The second of three threads fails to start: the first is stopped and
        # joined, the unstarted ones are not joined, and the start error is raised.
        monkeypatch.setattr(oracle, "_max_runs", lambda: 4)
        starts, start = [], threading.Thread.start

        def failing_start(thread):
            starts.append(thread)
            if len(starts) == 2:
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", failing_start)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^can't start new thread$"):
            agreement_report((0.0, 4.0), 100_000, 3)
        assert threading.active_count() == before
        assert len(starts) == 2

    def test_mc_verify_prints_one_error_line(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "_max_runs", lambda: 2)
        score_block = oracle._score_block

        def scoring(u, amplitudes, work):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError
            return score_block(u, amplitudes, work)

        monkeypatch.setattr(oracle, "_score_block", scoring)
        before = threading.active_count()
        assert cli.main(["mc-verify", "--trials", "100000", "--seed", "7"]) == 1
        assert capsys.readouterr() == ("", "error: out of memory\n")
        assert threading.active_count() == before


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

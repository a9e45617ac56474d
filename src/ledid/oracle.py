"""Empirical verification of the non-coherent BFSK error formula.

Each trial models envelope detection of one bit. With unit-variance
Gaussian noise g1..g4 in the four quadratures and signal amplitude
a = sqrt(2 * snr) (so the mean signal power a^2 / 2 equals snr), the
detector compares

    correct branch:  (a + g1)^2 + g2^2
    wrong branch:    g3^2 + g4^2

and errs when the wrong branch wins. Integrating the Rician-vs-Rayleigh
comparison gives exactly exp(-snr/2) / 2, so the estimator must agree with
the closed form within binomial error.

Randomness is pinned so estimates are reproducible bit for bit on the
same numpy build and CPU features: a Philox 4x64-10 counter-based
generator (NumPy's implementation, seeded through SeedSequence) supplies
uniforms in [0, 1); Gaussians come from an explicit Box-Muller transform
of consecutive uniform pairs. Trial i always consumes draws 4i .. 4i+3,
independent of batching. The transform's ``np.log1p``, ``np.cos`` and
``np.sin`` may take SIMD paths that differ from the C library in the last
bit, so other hardware may give other last digits.

Trials are drawn, transformed and scored in blocks of ``_BATCH_TRIALS``,
so memory is fixed whatever the number of trials. All points of one
``agreement_report`` share the seed, so the report draws each block of
uniforms and computes g1..g4 once, then scores every SNR against those
same draws before it draws the next block; only (a + g1)^2 + g2^2 depends
on the SNR. Each point is bit-identical to ``mc_ber_bfsk`` run alone at
its SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError
from .link import ber_bfsk

# Trials per block: about 14 float64 temporaries of this length (1.8 MiB)
# stay within a 2 MiB L2. 2^12 .. 2^16 took 42.5, 40.0, 34.4, 34.8 and
# 37.2 ms (minima of 15 seven-SNR reports of 250,000 trials on a 2-vCPU
# Xeon), 2^20 took 52.1 ms.
_BATCH_TRIALS = 1 << 14


@dataclass(frozen=True)
class McConfig:
    """One Monte Carlo run: operating point, sample size, seed."""

    snr: float
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if not self.snr >= 0.0:
            raise ParameterError(f"SNR must be >= 0, got {self.snr}")
        if isinstance(self.trials, bool) or not isinstance(self.trials, int) or self.trials < 1:
            raise ParameterError(f"trials must be a positive integer, got {self.trials}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or not 0 <= self.seed < 2 ** 64:
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


def mc_ber_bfsk(config: McConfig) -> tuple[float, float]:
    """Estimate the BFSK bit error rate by simulated envelope detection.

    Returns ``(estimate, std_error)`` where ``std_error`` is the binomial
    standard error sqrt(p (1 - p) / trials) of the estimate itself.
    """
    (errors,) = _error_counts((config.snr,), config.trials, config.seed)
    return _estimate(errors, config.trials)


def _error_counts(snrs: Sequence[float], trials: int, seed: int) -> list[int]:
    # Errors out of ``trials`` at each SNR. Every SNR is scored against the
    # same batches of draws, so trial i sees the same g1..g4 at every point.
    rng = np.random.Generator(np.random.Philox(seed))
    amplitudes = [math.sqrt(2.0 * snr) for snr in snrs]
    errors = [0] * len(snrs)
    remaining = trials if snrs else 0
    while remaining > 0:
        n = min(remaining, _BATCH_TRIALS)
        g1, g2_squared, wrong = _noise_terms(rng.random((n, 4)))
        for k, amplitude in enumerate(amplitudes):
            correct = (amplitude + g1) ** 2 + g2_squared
            errors[k] += int(np.count_nonzero(wrong > correct))
        remaining -= n
    return errors


def _noise_terms(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The SNR-independent parts of the detector for one batch of uniforms:
    # g1, g2^2 and the wrong branch g3^2 + g4^2.
    g1, g2 = _box_muller(u[:, 0], u[:, 1])
    g3, g4 = _box_muller(u[:, 2], u[:, 3])
    return g1, g2 ** 2, g3 ** 2 + g4 ** 2


def _box_muller(u_radius: np.ndarray, u_phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # log1p(-u) maps [0, 1) onto (0, 1] so the transform never sees log(0).
    # -u and 2 pi u are new contiguous arrays, so every block takes the same SIMD loops.
    radius = np.sqrt(-2.0 * np.log1p(-u_radius))
    phase = 2.0 * np.pi * u_phase
    return radius * np.cos(phase), radius * np.sin(phase)


def _estimate(errors: int, trials: int) -> tuple[float, float]:
    estimate = errors / trials
    return estimate, math.sqrt(estimate * (1.0 - estimate) / trials)


@dataclass(frozen=True)
class AgreementPoint:
    """Analytic-vs-estimate comparison at one SNR."""

    snr: float
    analytic: float
    estimate: float
    std_error: float
    within_3_sigma: bool


def agreement_report(snr_values: tuple[float, ...], trials: int, seed: int) -> tuple[AgreementPoint, ...]:
    """Compare the estimator against exp(-snr/2)/2 at each SNR.

    Every point uses the same seed and is scored against the same draws
    (see the module docstring); each equals ``mc_ber_bfsk`` at its SNR bit
    for bit. ``trials``, ``seed`` and every SNR are checked before anything is drawn.
    """
    configs = [McConfig(snr=snr, trials=trials, seed=seed) for snr in snr_values]
    if not configs:
        McConfig(snr=0.0, trials=trials, seed=seed)
    points = []
    for config, errors in zip(configs, _error_counts(snr_values, trials, seed)):
        analytic = ber_bfsk(config.snr)
        estimate, std_error = _estimate(errors, trials)
        ok = abs(estimate - analytic) <= 3.0 * std_error
        points.append(AgreementPoint(config.snr, analytic, estimate, std_error, ok))
    return tuple(points)

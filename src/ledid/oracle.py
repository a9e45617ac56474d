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

Trials are drawn and scored in blocks of ``_BATCH_TRIALS``, so memory is
fixed whatever the number of trials. All points of one ``agreement_report``
share the seed, so the report draws each block of uniforms once and scores
every SNR against those same draws before it draws the next block. Each
point is bit-identical to the one-SNR report of its SNR.

The blocks are cut into P contiguous runs, P the least of 4, the CPUs the
process may run on and the number of blocks. One function scores them at
once, the first on the caller's thread and each other on its own. numpy
releases the GIL in the draws and the transform, most of the work. Each
run has its own generator and block arrays. Philox is counter-based and
each step of its counter gives one trial's four draws, so a generator
advanced by k starts at trial k: a run draws the bits the serial loop
draws for its trials, and scores them in the same blocks. A count is a
sum of integers over blocks, so no count, estimate or output byte depends
on P. If any run raises, or the caller is interrupted, every run stops
before its next block, and the call raises once all are joined.

Every trial computes L1 = -2 ln(1 - u0), L2 = -2 ln(1 - u2) and
g1 = sqrt(L1) cos(2 pi u1): two ``log1p``, one ``sqrt`` and one ``cos``.
As g1^2 + g2^2 = L1 and g3^2 + g4^2 = L2, the wrong branch beats the
correct one by q - v, with q = L2 - L1 and v = a (a + 2 g1), up to
rounding and the error of ``sin`` and ``cos``, far less than the window
``_TIE_SLACK`` (its comment gives the bound). A trial whose q - v lies
outside that window is decided by its sign, which is the comparison's
own. Only the trials within it compute g2, g3 and g4 and take the
comparison above: 1 to 3 of a default report's 7 x 10^6. No trial errs
from ``_ERRORLESS_SNR`` on, which counts 0 unscored. So every count
equals the comparison's on every trial, for about half the work.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError
from .link import ber_bfsk

# Trials per block: the uniforms and the _WORK_ROWS rows, 8 floats a trial
# (1 MiB a run), stay within a 2 MiB L2. With two runs, 2^12 .. 2^16 took
# 14.1, 12.2, 12.0, 12.2 and 13.8 ms (the median of six fresh processes'
# minima of 30 seven-SNR reports of 250,000 trials, on a 2-vCPU Xeon with
# numpy 2.4).
_BATCH_TRIALS = 1 << 14

# Half-width of the window of q - v that _score_block sends to the exact path
# (see the module docstring), for amplitudes a <= 18. The generator draws
# each u below 1, so u <= 1 - 2^-53, L = -2 log1p(-u) <= 106 ln 2 < 73.5 and
# |g1| < 8.6, whence S = L2 + 2 L1 + (a + |g1|)^2 < 927. Both paths use the
# same bits of L1, L2 and g1. numpy's sin and cos are good to a few ulps and
# take one phase, so the exact path's g1^2 + g2^2 and wrong branch are
# within about 20 eps of L1 and L2 (eps = 2^-53); each other rounding of
# either path is at most eps times a magnitude below S. So the two values of
# wrong - correct differ by under 30 eps S < 4e-12, and a trial whose q - v
# lies outside the window gets the exact path's decision. The window is
# 1e-9 x 1024, above 1e-9 S on every trial: room for trig errors of 10^5 ulps.
_TIE_SLACK = 1.024e-6

# SNR from which no trial errs, so it counts 0 unscored: with the bounds
# above, the wrong branch is below 73.5, while from a = sqrt(2 snr) = 18 the
# correct branch is at least (a - 8.6)^2 > 88, whatever the rounding.
_ERRORLESS_SNR = 162.0

# Block-length float rows that _score_block computes in.
_WORK_ROWS = 4


def _error_counts(snrs: Sequence[float], trials: int, seed: int) -> list[int]:
    # Errors out of ``trials`` at each SNR; trial i has the same g1..g4 at every
    # SNR scored. Run r takes trials bounds[r] .. bounds[r + 1] - 1, whole blocks
    # but the last, on a thread of its own but run 0, which is the caller's.
    scored = [k for k, snr in enumerate(snrs) if snr < _ERRORLESS_SNR]
    amplitudes = [math.sqrt(2.0 * snrs[k]) for k in scored]
    errors = [0] * len(snrs)
    if not scored:
        return errors
    block = min(trials, _BATCH_TRIALS)
    blocks = -(-trials // block)
    runs = min(_max_runs(), blocks)
    bounds = [block * (r * blocks // runs) for r in range(runs)] + [trials]
    results, failures, stop = [None] * runs, [], threading.Event()

    def score(r):
        try:
            results[r] = _score_run(seed, bounds[r], bounds[r + 1], block, amplitudes, stop)
        except BaseException as exc:  # raised again by the caller, once every run is joined
            failures.append(exc)
            stop.set()

    # A run meets no floating-point error, so no thread needs numpy's error state.
    threads = [threading.Thread(target=score, args=(r,)) for r in range(1, runs)]
    try:
        for thread in threads:
            thread.start()
        score(0)
        for thread in threads:
            thread.join()
    except BaseException:  # an interrupt while starting or joining
        stop.set()
        for thread in filter(threading.Thread.is_alive, threads):
            thread.join()
        raise
    if failures:
        raise failures[0]
    for counts in results:
        for k, count in zip(scored, counts):
            errors[k] += count
    return errors


def _max_runs() -> int:
    # Runs _error_counts may score at once: one per CPU this process may run
    # on, at most 4, which holds a default report's memory to about 4 MiB of
    # block arrays on any host.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(4, cpus or 1)


def _score_run(seed: int, first: int, end: int, block: int, amplitudes: Sequence[float],
               stop: threading.Event) -> list[int]:
    # Errors among trials first .. end - 1 at each amplitude, a block of up to
    # ``block`` trials at a time, until ``stop`` is set. Philox's counter steps
    # one trial's four draws at a time, so advancing it by ``first`` starts at
    # trial ``first``. The block arrays serve the whole run: fresh ones would go
    # back to the system between blocks (glibc trims the heap), 440 page faults a block.
    rng = np.random.Generator(np.random.Philox(seed).advance(first))
    counts = [0] * len(amplitudes)
    size = min(block, end - first)
    u, work = np.empty((size, 4)), np.empty((_WORK_ROWS, size))
    for start in range(first, end, block):
        if stop.is_set():
            break
        n = min(block, end - start)
        rng.random(out=u[:n])
        for k, count in enumerate(_score_block(u[:n], amplitudes, work[:, :n])):
            counts[k] += count
    return counts


def _score_block(u: np.ndarray, amplitudes: Sequence[float], work: np.ndarray) -> list[int]:
    # Errors among the trials of one block of uniform rows at each amplitude,
    # each count equal to scoring every row by _noise_terms (see the module
    # docstring): rows outside the window certify their decision and are
    # counted from v = a (a + 2 g1) against q = L2 - L1; the rest go to
    # _noise_terms. Every amplitude is at most 18, as _error_counts passes.
    # ``work`` is (_WORK_ROWS, len(u)) floats for the block's arrays.
    l1, l2, g1, v = work
    _radius_squared(u[:, 0], out=l1, scratch=v)
    _radius_squared(u[:, 2], out=l2, scratch=v)
    _gaussian(l1, u[:, 1], np.cos, out=g1, scratch=v)
    # The bounds q -/+ _TIE_SLACK, with q = L2 - L1, take the rows of L1 and L2.
    clear_above = np.subtract(l2, l1, out=l2)
    error_below = np.subtract(clear_above, _TIE_SLACK, out=l1)
    clear_above += _TIE_SLACK
    twice_g1 = np.multiply(g1, 2.0, out=g1)
    counts = []
    for a in amplitudes:
        np.add(twice_g1, a, out=v)
        v *= a
        errors = np.count_nonzero(v < error_below)
        if np.count_nonzero(v <= clear_above) > errors:
            exact_g1, g2_squared, wrong = _noise_terms(u[(v >= error_below) & (v <= clear_above)])
            errors += np.count_nonzero(wrong > (a + exact_g1) ** 2 + g2_squared)
        counts.append(int(errors))
    return counts


def _noise_terms(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The exact detector's SNR-independent terms for rows of uniforms: g1,
    # g2^2 and the wrong branch g3^2 + g4^2.
    l1, l2 = _radius_squared(u[:, 0]), _radius_squared(u[:, 2])
    g3, g4 = _gaussian(l2, u[:, 3], np.cos), _gaussian(l2, u[:, 3], np.sin)
    return _gaussian(l1, u[:, 1], np.cos), _gaussian(l1, u[:, 1], np.sin) ** 2, g3 ** 2 + g4 ** 2


def _radius_squared(u_radius: np.ndarray, out=None, scratch=None) -> np.ndarray:
    # The squared Box-Muller radius -2 ln(1 - u). log1p(-u) maps [0, 1) onto
    # (0, 1] so the transform never sees log(0). Both transform functions
    # write into ``out`` and ``scratch`` where given, else into new arrays,
    # with the same bits: log1p, cos and sin always read one contiguous
    # array and write another, so every call takes the same SIMD loops, and
    # *, sqrt round exactly whatever loop runs them.
    radius_squared = np.log1p(np.negative(u_radius, out=scratch), out=out)
    radius_squared *= -2.0
    return radius_squared


def _gaussian(radius_squared: np.ndarray, u_phase: np.ndarray, trig, out=None, scratch=None) -> np.ndarray:
    # One Gaussian of a Box-Muller pair, sqrt(L) trig(2 pi u), with trig np.cos or np.sin.
    gaussian = trig(np.multiply(u_phase, 2.0 * np.pi, out=scratch), out=out)
    gaussian *= np.sqrt(radius_squared, out=scratch)
    return gaussian


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
    (see the module docstring), so it equals its one-SNR report
    ``agreement_report((snr,), trials, seed)[0]`` bit for bit. ``std_error``
    is the binomial standard error sqrt(p (1 - p) / trials) of the estimate p.
    Every SNR (by ``ber_bfsk``), ``trials`` and ``seed`` are checked before anything is drawn.
    """
    analytic = [ber_bfsk(snr) for snr in snr_values]
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ParameterError(f"trials must be a positive integer, got {trials}")
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2 ** 64:
        raise ParameterError(f"seed must be a 64-bit unsigned integer, got {seed}")
    points = []
    for snr, rate, errors in zip(snr_values, analytic, _error_counts(snr_values, trials, seed)):
        estimate = errors / trials
        std_error = math.sqrt(estimate * (1.0 - estimate) / trials)
        ok = abs(estimate - rate) <= 3.0 * std_error
        points.append(AgreementPoint(snr, rate, estimate, std_error, ok))
    return tuple(points)

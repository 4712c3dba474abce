"""Maximal-correlation shift estimation.

The shift assigned to a noise observation n is the argmax over cyclic lags l
of <n, T_l x>, where T_l is the cyclic shift and x the template.  Three
routes compute the same correlation sequence:

* :func:`align_rows`             -- FFT-based, O(d log d), the production kernel
  behind :func:`correlation_sequence`, the trial loop and the ``C_k``
  Monte-Carlo;
* :func:`correlation_oracle`     -- direct O(d^2) sums, the test reference;
* :func:`fourier_correlation_sequence` -- the magnitude/phase cosine-sum form,
  assembled from the spectra's polar views.  Under the unitary convention it
  equals the real-space inner products exactly (no extra constant).

It also sets the package's Monte-Carlo layout: :func:`chunks` bounds each
loop's memory, and :func:`run_blocks` runs a loop's keyed blocks on a
process pool.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import LengthMismatchError
from .signals import TemplateSignal, circular_shift, dft, polar

#: Doubles per row chunk: every Monte-Carlo loop in the package (trials, the
#: ``C_k`` moments and the verify samplers) draws ``max(1, BUDGET // d)`` rows
#: at a time, so the peak memory of each process is O(BUDGET) whatever the
#: draw count.  Chunks split a block (a trial, or :data:`BLOCK` draws) and are
#: folded in row order or into integer counts, so no result depends on
#: BUDGET; blocks are what run on separate processes.
BUDGET = 1 << 19

#: Draws per keyed block of a Monte-Carlo loop other than the trials; a
#: fixed part of each loop's random layout, unlike BUDGET.
BLOCK = 4096


def chunks(count: int, d: int, start: int = 0) -> Iterator[tuple[int, int]]:
    """(start, stop) bounds of the fixed-size row chunks that cover rows ``start`` to ``count``."""
    step = max(1, BUDGET // d)
    for first in range(start, count, step):
        yield first, min(first + step, count)


def blocks(count: int, seed) -> list[tuple[np.random.SeedSequence, int]]:
    """(seed, draws) of each :data:`BLOCK`-draw block that covers ``count`` draws.

    Block b of a loop seeded by SeedSequence ``ss`` (an int ``s`` is
    ``SeedSequence(s)``) draws from ``SeedSequence(ss.entropy,
    spawn_key=(*ss.spawn_key, b))``, so each block has its own stream and
    runs on any process.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [
        (np.random.SeedSequence(ss.entropy, spawn_key=(*ss.spawn_key, b)), min(BLOCK, count - start))
        for b, start in enumerate(range(0, count, BLOCK))
    ]


def usable_cores() -> int:
    """The cores this process may run on (its CPU affinity): the default worker count."""
    return len(os.sched_getaffinity(0))


def pool_size(workers: Optional[int], count: int) -> int:
    """Processes that :func:`run_blocks` runs ``count`` blocks on: ``workers``
    (None: the usable cores), and at most one per block."""
    cores = usable_cores() if workers is None else workers
    return max(1, min(cores, count))


def run_blocks(fn: Callable, args: Sequence[tuple], workers: Optional[int] = None) -> list:
    """``fn(*a)`` for each ``a`` in ``args``, in the order of ``args``.

    The blocks run on a process pool of :func:`pool_size` processes, or in
    this process when that is one.  The caller folds the results in block
    order, so what it returns does not depend on ``workers``.
    """
    size = pool_size(workers, len(args))
    if size == 1:
        return [fn(*a) for a in args]
    # fork: workers inherit the imported package instead of importing it again (~0.3 s)
    with ProcessPoolExecutor(size, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, *zip(*args)))


def align_rows(rows: np.ndarray, template: TemplateSignal):
    """Align each row of an (m, d) block against the template.

    Returns ``(shifts, corr, spec)``: the argmax lag of each row (exact ties
    go to the smallest index), the (m, d) correlation rows, entry l of which
    is <row, T_l x>, and the rows' (m, d/2+1) unnormalized rfft.
    """
    if rows.shape[-1] != template.d:
        raise LengthMismatchError(f"noise length {rows.shape[-1]} != template length {template.d}")
    spec = np.fft.rfft(rows, axis=1)
    corr = np.fft.irfft(spec * np.conj(np.fft.rfft(template.samples))[None, :], template.d, axis=1)
    return np.argmax(corr, axis=1), corr, spec


def correlation_sequence(noise, template: TemplateSignal) -> np.ndarray:
    """Entry l equals <n, T_l x>, computed via fast transforms."""
    return align_rows(np.asarray(noise, dtype=float)[None, :], template)[1][0]


def correlation_oracle(noise, template: TemplateSignal) -> np.ndarray:
    """Direct O(d^2) evaluation of the same inner products (test reference)."""
    n = np.asarray(noise, dtype=float)
    if n.size != template.d:
        raise LengthMismatchError(f"noise length {n.size} != template length {template.d}")
    x = template.samples
    return np.asarray([float(n @ circular_shift(x, ell)) for ell in range(template.d)])


def fourier_correlation_sequence(noise, template: TemplateSignal) -> np.ndarray:
    """Polar-form correlation: entry r is
    sum_k |X[k]| |N[k]| cos(2*pi*k*r/d + phi_N[k] - phi_X[k]).
    """
    mag_n, phase_n = polar(dft(noise))
    d = mag_n.size
    if d != template.d:
        raise LengthMismatchError(f"noise length {d} != template length {template.d}")
    c = template.magnitudes * mag_n * np.exp(1j * (phase_n - template.phases))
    return (d * np.fft.ifft(c)).real


"""Maximal-correlation shift estimation.

The shift assigned to a noise observation n is the argmax over cyclic lags l
of <n, T_l x>, where T_l is the cyclic shift and x the template.  Three
routes compute the same correlation sequence:

* :func:`align_rows`             -- FFT-based, O(d log d), the production kernel
  behind :func:`correlation_sequence`, the trial loop and the ``C_k``
  Monte-Carlo, which reads N[k] from the filtered spectra it leaves behind;
* :func:`correlation_oracle`     -- direct O(d^2) sums, the test reference;
* :func:`fourier_correlation_sequence` -- the magnitude/phase cosine-sum form,
  assembled from the spectra's polar views.  Under the unitary convention it
  equals the real-space inner products exactly (no extra constant).

It also sets the package's Monte-Carlo layout: :func:`chunks` bounds each
loop's memory (:data:`BUDGET` doubles, sized for a core's L2 cache),
:func:`chunk_arrays` allocates a block's arrays once for all its chunks,
and :func:`run_blocks` runs a loop's keyed blocks on a :class:`Pool` of
forked processes, its own or the one that every loop of an ``efn``
command shares (each walk's ``C_k`` blocks and trials, or a verify
command's suites).
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import LengthMismatchError, integral
from .signals import TemplateSignal, dft, polar

#: Doubles per row chunk: every Monte-Carlo loop in the package (trials, the
#: ``C_k`` moments and the verify samplers) draws ``max(1, BUDGET // d)`` rows
#: at a time, so each process's peak memory is O(BUDGET) whatever the draw
#: count.  At 2^16 doubles (512 KB) a chunk's noise, half-spectrum and
#: correlation arrays, about 1.5 MB together, fit a core's 2 MB L2 cache
#: (on the 2-core Xeon these figures were measured on).
#: The trials, the ``C_k`` blocks and :func:`correlation_sequence` hold one
#: block's chunk arrays (see :func:`chunk_arrays`), allocated once and reused
#: by every chunk, so no chunk faults in fresh pages; the verify samplers
#: (:func:`~efnlab.theory.sample_cyclostationary` in prop3 and lemma1, and
#: the gumbel maxima) allocate fresh arrays per chunk, which at this size a
#: warm process takes from memory it freed: about 2 minor page faults per
#: d = 4096 sampler chunk, against about 2000 at 2^19, and about 29 000 in
#: the two workers of an ``efn verify all``, against 375 000 at 2^19 with a
#: pool per loop.  Chunks split a block (a trial, or :data:`BLOCK`
#: draws) and are folded in row order or into integer counts, so no result
#: depends on BUDGET; blocks are what run on separate processes, and the
#: loops of an ``efn`` command share one :class:`Pool`.
BUDGET = 1 << 16

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
    """The cores this process may run on (its CPU affinity, or the CPU count
    where the platform reports none): the default worker count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_size(workers: Optional[int], count: int) -> int:
    """Processes that a :class:`Pool` runs ``count`` blocks on: ``workers``
    (None: the usable cores; else a whole number >= 1, or InvalidArgumentError),
    and at most one per block."""
    cores = usable_cores() if workers is None else integral("workers", workers, 1)
    return max(1, min(cores, count))


class Pool:
    """The processes that one block loop, or every loop of an ``efn``
    command, runs on: :func:`pool_size` ``(workers, count)`` forked workers,
    where ``count`` is the most blocks one loop queues, or none when that is
    one, and every block then runs in this process.

    The workers fork together at the first block queued, before the executor
    starts a thread.  On close a failed block cancels the blocks still
    queued, and the workers are joined.
    """

    def __init__(self, workers: Optional[int], count: int):
        self.size = pool_size(workers, count)
        self._held = None
        # fork: workers inherit the imported package instead of importing it again (~0.3 s)
        fork = multiprocessing.get_context("fork")
        self._executor = ProcessPoolExecutor(self.size, mp_context=fork) if self.size > 1 else None

    def __enter__(self) -> "Pool":
        return self

    def __exit__(self, *exc) -> None:
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)

    def _queue(self, fn: Callable, args: Sequence[tuple]) -> Callable[[], list]:
        """Queue ``fn(*a)`` for each ``a`` in ``args``; returns the function that
        waits for their results (in this process, that runs them)."""
        if self._executor is None:
            return lambda: [fn(*a) for a in args]
        futures = [self._executor.submit(fn, *a) for a in args]
        return lambda: [f.result() for f in futures]

    def later(self, fn: Callable, args: Sequence[tuple]) -> Callable[[], list]:
        """Hold the loop ``fn(*a)``, ``a`` in ``args``, back until the next
        :meth:`run` has queued its own blocks; returns the function that gives
        its results (queuing it first if no run has)."""
        self._held = held = functools.cache(functools.partial(self._queue, fn, args))  # queued once
        return lambda: held()()

    def run(self, fn: Callable, args: Sequence[tuple]) -> list:
        """``fn(*a)`` for each ``a`` in ``args``, queued ahead of any held loop."""
        results = self._queue(fn, args)
        if self._held is not None:
            self._held()
        return results()


def run_blocks(fn: Callable, args: Sequence[tuple], workers: Optional[int] | Pool = None) -> list:
    """``fn(*a)`` for each ``a`` in ``args``, in the order of ``args``.

    ``workers`` is a :class:`Pool` the blocks share with other loops, or a
    worker count (None: the usable cores) for a pool of their own, which
    runs them in this process when :func:`pool_size` is one.  The caller
    folds the results in block order, so what it returns does not depend on
    the pool.
    """
    if isinstance(workers, Pool):
        return workers.run(fn, args)
    with Pool(workers, len(args)) as pool:
        return pool.run(fn, args)


def chunk_arrays(template: TemplateSignal, count: int) -> tuple[np.ndarray, ...]:
    """``(filt, noise, spec, corr)``: the arrays a block aligns its ``count`` rows in, chunk by chunk.

    ``filt`` is the template's filter conj(rfft(x)); ``noise`` and ``corr``
    are (rows, d) and ``spec``, the filtered half spectra, is (rows, d/2+1)
    complex, for the largest chunk :func:`chunks` yields, ``min(count,
    max(1, BUDGET // d))`` rows.
    """
    d = template.d
    rows = min(count, max(1, BUDGET // d))
    noise, corr = np.empty((2, rows, d))
    return np.conj(np.fft.rfft(template.samples)), noise, np.empty((rows, d // 2 + 1), complex), corr


def align_rows(rows: np.ndarray, filt: np.ndarray, spec: np.ndarray, corr: np.ndarray):
    """Align each row of an (m, d) block against the template whose filter is ``filt``.

    Writes the first m rows of arrays the caller owns (see
    :func:`chunk_arrays`): ``spec`` gets the rows' rfft times ``filt``, in
    unitary terms d N[k] conj(X[k]), and ``corr`` the correlation rows,
    entry l of which is <row, T_l x>.  Returns the argmax lag of each row;
    exact ties go to the smallest index.
    """
    m, d = rows.shape
    if d != corr.shape[1]:
        raise LengthMismatchError(f"noise length {d} != template length {corr.shape[1]}")
    np.fft.rfft(rows, axis=1, out=spec[:m])
    spec[:m] *= filt
    np.fft.irfft(spec[:m], d, axis=1, out=corr[:m])
    return np.argmax(corr[:m], axis=1)


def correlation_sequence(noise, template: TemplateSignal) -> np.ndarray:
    """Entry l equals <n, T_l x>, computed via fast transforms."""
    filt, _, spec, corr = chunk_arrays(template, 1)
    align_rows(np.asarray(noise, dtype=float)[None, :], filt, spec, corr)
    return corr[0]


def correlation_oracle(noise, template: TemplateSignal) -> np.ndarray:
    """Direct O(d^2) evaluation of the same inner products (test reference):
    one dot product per lag, with T_l x read from row l of one (d, d) gather."""
    n = np.asarray(noise, dtype=float)
    d = template.d
    if n.size != d:
        raise LengthMismatchError(f"noise length {n.size} != template length {d}")
    i = np.arange(d)
    shifted = template.samples[(i[None, :] - i[:, None]) % d]
    return np.asarray([float(n @ row) for row in shifted])


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


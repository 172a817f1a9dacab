"""Deterministic indexed Monte Carlo engine.

Samples are pure functions of (context, sample index): the index derives the
random stream, so a sample's record (an entry of a numpy structured array of
the scan's dtype) does not depend on which process computes it or how the
indices are cut.  One batch function call computes each chunk, a range of at
most _CHUNK indices.  Chunks reach the checkpoint in index order, each
appended and flushed once every chunk before it is on disk; a failing chunk
stops the scan and leaves every earlier chunk on disk.

A run owns one Pool, which every scan of the run goes through.  The first
scan of more than one chunk opens it: a ProcessPoolExecutor of
min(workers, usable CPUs, that scan's chunks) - 1 forked processes, since the
calling process is the last worker; later scans reuse it.  A pooled scan cuts
its remaining samples into one contiguous share per process and one for the
calling process (no more shares than chunks), with sizes that differ by at
most one sample.  The calling process computes the first share chunk by
chunk while each pool process computes one other share as a single task.
Every scan ends by setting a stop mark, made in Pool() and shared through
fork, so when one ends early, by a failure or by being closed, its other
shares stop at their next chunk.  A run at 1 worker, or whose scans each fit
one chunk, starts no process: each scan runs the same loop with one share.

Only this module reads and writes checkpoints.  Like a .npy file, one is a
header line, the canonical JSON {"dtype": dtype.descr, "format": 1}, then the raw
bytes of (j, record j), j = 0, 1, ..., in the dtype [("i", "<i8"), ("p", dtype)].
A resume keeps the whole records in place after a header equal to the scan's
own, cuts the file there (another format or dtype, a torn, repeated or swapped
record, and all after it, is recomputed) and runs the rest.
"""

from __future__ import annotations

import json
import mmap
import multiprocessing
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack

import numpy as np

_CHUNK = 32  # samples per batch_fn call

# compact, key-sorted JSON of checkpoint headers, series cells and config digests
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def checkpoint_path(outdir, scan=None):
    """The checkpoint of a run's engine scan in outdir (None without one):
    samples.rec, or samples.<scan>.rec for a run of several scans."""
    if not outdir:
        return None
    return os.path.join(outdir, "samples.rec" if scan is None else f"samples.{scan}.rec")


def records(**columns) -> np.ndarray:
    """The records of equal-length columns: a field per column, of its dtype and row shape."""
    arrays = [np.asarray(column) for column in columns.values()]
    recs = np.empty(len(arrays[0]), [(k, a.dtype, a.shape[1:]) for k, a in zip(columns, arrays)])
    for name, a in zip(columns, arrays):
        recs[name] = a
    return recs


def _layout(dtype):
    """(header line, on-disk record dtype) of a checkpoint of records of dtype."""
    header = canonical_json({"dtype": dtype.descr, "format": 1}) + "\n"
    return header.encode(), np.dtype([("i", "<i8"), ("p", dtype)])


def checkpoint_prefix(path, dtype):
    """(records, byte length) of the longest valid prefix of a checkpoint of
    records of dtype: the scan's own header, then whole records j = 0, 1, ..."""
    header, disk = _layout(dtype)
    raw = b""
    if path and os.path.exists(path):
        with open(path, "rb") as fh:
            raw = fh.read()
    if not raw.startswith(header):
        return np.zeros(0, dtype), 0
    body = raw[len(header):]
    recs = np.frombuffer(body, disk, count=len(body) // disk.itemsize)
    misplaced = np.flatnonzero(recs["i"] != np.arange(len(recs)))
    valid = int(misplaced[0]) if len(misplaced) else len(recs)
    return recs["p"][:valid], len(header) + valid * disk.itemsize


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has
    one, else the machine's count (1 when unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shares(lo, hi, n):
    """lo..hi-1 cut into n contiguous shares whose sizes differ by at most
    one, each a list of chunks of at most _CHUNK indices."""
    cuts = [lo + (hi - lo) * k // n for k in range(n + 1)]
    return [[range(j, min(j + _CHUNK, b)) for j in range(a, b, _CHUNK)]
            for a, b in zip(cuts, cuts[1:])]


_ended = None  # in a pool process: its Pool's mark, the id of the last scan that ended


def _inherit(ended):
    """Pool process initializer: keep the Pool's mark, shared through fork."""
    global _ended
    _ended = ended


class _RemoteTraceback(Exception):
    """The traceback text of an exception raised in a pool process."""


def _run_share(fn, ctx, chunks, scan):
    """fn(ctx, chunk) for each chunk in order, in a pool process, until one
    raises or the scan has ended: (the batches done, None or (the exception,
    its traceback text))."""
    batches = []
    for idx in chunks:
        if _ended[0] >= scan:
            break
        try:
            batches.append(fn(ctx, idx))
        except Exception as error:
            return batches, (error, traceback.format_exc())
    return batches, None


class Pool:
    """The process pool of one run of `workers` workers, opened on first use.

    processes is the number of pool processes the run started (0 until a
    scan opens the pool): one fewer than a pooled scan's shares, for the
    calling process computes a share too.  Use it as a context manager:
    leaving the block shuts the pool down and cancels what is still queued,
    on every exit path.
    """

    def __init__(self, workers: int = 1):
        self.workers = workers
        self.processes = 0
        self._executor = None
        # anonymous and MAP_SHARED, so fork shares it: the id of the last scan that ended
        self._ended = memoryview(mmap.mmap(-1, 8)).cast("q")
        self._scans = 0

    def _n_shares(self, n_chunks):
        """The shares of a scan of n_chunks chunks, 1 to run it all in this
        process; the first scan that can use more than one process opens the
        executor."""
        if n_chunks < 2:
            return 1
        if self._executor is None:
            size = min(self.workers, _usable_cpus(), n_chunks)
            if size > 1:
                self._executor = ProcessPoolExecutor(
                    max_workers=size - 1, mp_context=multiprocessing.get_context("fork"),
                    initializer=_inherit, initargs=(self._ended,))
                self.processes = size - 1
        return min(self.processes + 1, n_chunks)

    def map(self, fn, ctx, lo, hi):
        """A generator of (chunk, fn(ctx, chunk)) over the chunks of lo..hi-1,
        in order.  The calling process computes the first share; each other
        share is one task of the executor.  Ending the generator, by a failure
        or by closing it, marks the scan ended, so the shares still running
        stop at their next chunk, and cancels those not started."""
        shares = _shares(lo, hi, self._n_shares(-(-(hi - lo) // _CHUNK)))
        self._scans += 1
        scan = self._scans
        futures = [self._executor.submit(_run_share, fn, ctx, chunks, scan)
                   for chunks in shares[1:]]
        try:
            for idx in shares[0]:
                yield idx, fn(ctx, idx)
            for chunks, future in zip(shares[1:], futures):
                batches, failure = future.result()
                yield from zip(chunks, batches)
                if failure is not None:
                    error, trace = failure
                    raise error from _RemoteTraceback(trace)
        finally:
            self._ended[0] = scan
            for future in futures:
                future.cancel()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)


def run_indexed(batch_fn, ctx, dtype, n_samples, pool=None, checkpoint_path=None):
    """The (n_samples,) record array of samples 0..n_samples-1, in order.

    batch_fn(ctx, indices) returns the records of a range of sample indices,
    an array of dtype with one record per index; record i must depend only on
    (ctx, i).  batch_fn must be a module-level function (it crosses process
    boundaries).  The samples after the checkpoint's valid prefix go through
    pool, the run's Pool (None: in this process), which cuts them into
    shares when it has processes.  Each chunk is appended to the checkpoint
    once every chunk before it is: the calling process's own share as it
    computes it, each pool share as its task returns.  The checkpoint is the
    same file byte for byte at every worker count.
    """
    done, end = checkpoint_prefix(checkpoint_path, dtype)
    parts = [done]
    with ExitStack() as stack:
        writer = None
        if checkpoint_path is not None:
            header, disk = _layout(dtype)
            writer = stack.enter_context(open(checkpoint_path, "ab"))
            writer.truncate(end)  # drop everything after the valid prefix
            writer.write(header[end:])  # the header, unless the prefix holds it
        batches = (pool or Pool()).map(batch_fn, ctx, len(done), n_samples)
        stack.callback(batches.close)  # ends the scan: stops and cancels its other shares
        for idx, batch in batches:
            if batch.dtype != dtype or batch.shape != (len(idx),):
                raise ValueError(f"batch_fn gave {batch.shape} of {batch.dtype} for {idx}")
            parts.append(batch)
            if writer is not None:
                rows = np.empty(len(idx), disk)
                rows["i"], rows["p"] = idx, batch
                writer.write(rows.tobytes())
                writer.flush()
    return np.concatenate(parts)[:n_samples]

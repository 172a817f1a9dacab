"""Deterministic indexed Monte Carlo engine.

Samples are pure functions of (context, sample index): the index derives the
random stream, so a sample's record (an entry of a numpy structured array of
the scan's dtype) does not depend on which worker computes it or how the
indices are chunked.  One batch function call computes each range of _CHUNK
indices.  Chunks come back in index order, and each chunk's records are
appended to the checkpoint and flushed as it arrives; a failing chunk
cancels the chunks still pending and leaves every earlier chunk on disk.

A run owns one Pool, which every scan of the run maps its chunks through.
It opens one ProcessPoolExecutor, lazily, at the first scan of more than one
chunk, with min(workers, usable CPUs, that scan's chunks) processes, and
later scans reuse it; a run at 1 worker, or whose scans each fit one chunk,
starts no process.  A scan of one chunk runs in this process.

Only this module reads and writes checkpoints.  Like a .npy file, one is a
header line, the canonical JSON {"dtype": dtype.descr, "format": 1}, then the raw
bytes of (j, record j), j = 0, 1, ..., in the dtype [("i", "<i8"), ("p", dtype)].
A resume keeps the whole records in place after a header equal to the scan's
own, cuts the file there (another format or dtype, a torn, repeated or swapped
record, and all after it, is recomputed) and runs the rest.
"""

from __future__ import annotations

import json
import os
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


class Pool:
    """The process pool of one run of `workers` workers, opened on first use.

    processes is the number of pool processes the run started (0 until a
    scan opens the pool).  Use it as a context manager: leaving the block
    shuts the pool down and cancels what is still queued, on every exit path.
    """

    def __init__(self, workers: int = 1):
        self.workers = workers
        self.processes = 0
        self._executor = None

    def _executor_for(self, n_chunks):
        """The executor of a scan of n_chunks chunks, None to run it in this
        process; the first scan that can use more than one process opens it."""
        if n_chunks < 2:
            return None
        if self._executor is None:
            size = min(self.workers, _usable_cpus(), n_chunks)
            if size > 1:
                self._executor, self.processes = ProcessPoolExecutor(max_workers=size), size
        return self._executor

    def map(self, fn, ctx, chunks):
        """A generator of fn(ctx, chunk) per chunk, in order.  Closing it
        cancels the chunks it submitted that have not started."""
        executor = self._executor_for(len(chunks))
        if executor is None:
            for chunk in chunks:
                yield fn(ctx, chunk)
            return
        futures = [executor.submit(fn, ctx, chunk) for chunk in chunks]
        try:
            for future in futures:
                yield future.result()
        finally:
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
    boundaries).  The chunks map through pool, the run's Pool (None: in this
    process).  The checkpoint is the same file byte for byte at every worker
    count.
    """
    done, end = checkpoint_prefix(checkpoint_path, dtype)
    chunks = [range(j, min(j + _CHUNK, n_samples)) for j in range(len(done), n_samples, _CHUNK)]
    parts = [done]
    with ExitStack() as stack:
        writer = None
        if checkpoint_path is not None:
            header, disk = _layout(dtype)
            writer = stack.enter_context(open(checkpoint_path, "ab"))
            writer.truncate(end)  # drop everything after the valid prefix
            writer.write(header[end:])  # the header, unless the prefix holds it
        batches = (pool or Pool()).map(batch_fn, ctx, chunks)
        stack.callback(batches.close)  # cancels the chunks still pending
        for idx, batch in zip(chunks, batches):
            if batch.dtype != dtype or batch.shape != (len(idx),):
                raise ValueError(f"batch_fn gave {batch.shape} of {batch.dtype} for {idx}")
            parts.append(batch)
            if writer is not None:
                rows = np.empty(len(idx), disk)
                rows["i"], rows["p"] = idx, batch
                writer.write(rows.tobytes())
                writer.flush()
    return np.concatenate(parts)[:n_samples]

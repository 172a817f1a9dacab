"""Deterministic indexed Monte Carlo engine.

Samples are pure functions of (context, sample index): the index derives the
random stream, so a sample's record (an entry of a numpy structured array of
the scan's dtype) does not depend on which worker computes it or how the
indices are chunked.  One batch function call computes each range of _CHUNK
indices.  Chunks come back in index order (from the builtin map without a
pool, from pool.map otherwise), and each chunk's records are appended to the
checkpoint and flushed as it arrives; a failing chunk cancels the chunks
still pending and leaves every earlier chunk on disk.

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
from itertools import repeat

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


def run_indexed(batch_fn, ctx, dtype, n_samples, workers=1, checkpoint_path=None):
    """The (n_samples,) record array of samples 0..n_samples-1, in order.

    batch_fn(ctx, indices) returns the records of a range of sample indices,
    an array of dtype with one record per index; record i must depend only on
    (ctx, i).  batch_fn must be a module-level function (it crosses process
    boundaries).  The checkpoint is the same file byte for byte at every
    worker count.  The pool has no more processes than workers, chunks or
    CPUs, so a run whose remaining samples fit one chunk starts none.
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
        processes = min(workers, len(chunks), os.cpu_count() or 1)
        if processes > 1:
            pool = ProcessPoolExecutor(max_workers=processes)
            stack.callback(pool.shutdown, cancel_futures=True)
            batches = pool.map(batch_fn, repeat(ctx), chunks)
        else:
            batches = map(batch_fn, repeat(ctx), chunks)
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

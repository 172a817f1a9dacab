"""Deterministic indexed Monte Carlo engine.

Samples are pure functions of (context, sample index): the index derives the
random stream, so a sample's record (an entry of a numpy structured array of
the scan's dtype) does not depend on which worker computes it or how the
indices are chunked.  One batch function call computes each range of _CHUNK
indices.  Chunks come back in index order (from the builtin map without a
pool, from pool.map otherwise), and each chunk's records are appended to the
checkpoint and flushed as it arrives; a failing chunk cancels the chunks
still pending and leaves every earlier chunk on disk.

Only this module reads and writes checkpoints: line j is the canonical JSON
{"i": j, "p": {field: value}} of record j.  A resume keeps the longest prefix
of lines that decode into the dtype and re-encode to their own bytes, cuts
the file there (a torn, repeated or swapped line, a missing or extra field or
a misshapen value, and all after it, is recomputed) and runs the rest.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from itertools import repeat

import numpy as np

_CHUNK = 32  # samples per batch_fn call

# compact, key-sorted JSON of checkpoint lines and series cells, from one encoder
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def checkpoint_path(outdir, scan=None):
    """The checkpoint of a run's engine scan in outdir (None without one):
    samples.jsonl, or samples.<scan>.jsonl for a run of several scans."""
    if not outdir:
        return None
    return os.path.join(outdir, "samples.jsonl" if scan is None else f"samples.{scan}.jsonl")


def records(**columns) -> np.ndarray:
    """The records of equal-length columns: a field per column, of its dtype and row shape."""
    arrays = [np.asarray(column) for column in columns.values()]
    recs = np.empty(len(arrays[0]), [(k, a.dtype, a.shape[1:]) for k, a in zip(columns, arrays)])
    for name, a in zip(columns, arrays):
        recs[name] = a
    return recs


def _lines(indices, recs) -> list:
    """The checkpoint lines of records recs, of sample indices indices."""
    names = recs.dtype.names
    return [canonical_json({"i": i, "p": dict(zip(names, values))}) + "\n"
            for i, values in zip(indices, zip(*(recs[name].tolist() for name in names)))]


def checkpoint_prefix(path, dtype):
    """(records, byte length) of the longest valid prefix of a checkpoint of
    records of dtype: line j decodes into a record and re-encodes to itself."""
    lines = []
    if path and os.path.exists(path):
        with open(path, "rb") as fh:
            lines = fh.readlines()
    recs = np.zeros(len(lines), dtype)
    for j, raw in enumerate(lines):
        try:
            payload = json.loads(raw)["p"]
            # by shape, so that an empty field's [] fits it as well
            recs[j] = tuple(np.reshape(payload[name], dtype[name].shape) for name in dtype.names)
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError):
            recs = recs[:j]
            break
    same = [raw == line.encode() for raw, line in zip(lines, _lines(range(len(recs)), recs))]
    valid = same.index(False) if False in same else len(same)
    return recs[:valid], sum(map(len, lines[:valid]))


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
            writer = stack.enter_context(open(checkpoint_path, "a", encoding="utf-8"))
            writer.truncate(end)  # drop everything after the valid prefix
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
                writer.writelines(_lines(idx, batch))
                writer.flush()
    return np.concatenate(parts)[:n_samples]

"""Deterministic indexed Monte Carlo engine.

Samples are pure functions of (context, sample index): the index derives the
random stream, so any subset can be computed anywhere, in any order, by any
number of workers, and the aggregate is reduced in index order afterwards.
Work is handed out in chunks of _CHUNK indices, and one call of the batch
function computes a whole chunk; since every sample depends only on its own
index, the payloads do not depend on how the indices are chunked.
Completed samples are checkpointed as JSON lines (written in index order) and
skipped on resume.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor

_CHUNK = 32  # samples per batch_fn call

# compact, key-sorted JSON of checkpoint lines and series cells, from one encoder
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _run_chunk(batch_fn, ctx, indices):
    return list(zip(indices, batch_fn(ctx, indices), strict=True))


def _scan_checkpoint(path):
    """(done samples, byte offset where valid content ends) of a JSON-lines
    checkpoint, tolerating a torn tail."""
    done = {}
    good_end = 0
    if path is None or not os.path.exists(path):
        return done, good_end
    with open(path, "rb") as fh:
        for raw in fh:
            if not raw.endswith(b"\n"):
                break  # torn final line from an interrupted run
            line = raw.strip()
            if line:
                try:
                    rec = json.loads(line)
                    done[int(rec["i"])] = rec["p"]
                except (json.JSONDecodeError, KeyError, ValueError):
                    break
            good_end += len(raw)
    return done, good_end


def run_indexed(batch_fn, ctx, n_samples, workers=1, checkpoint_path=None):
    """Payloads of samples 0..n_samples-1, in order.

    batch_fn(ctx, indices) returns the payloads of a list of sample indices,
    one per index; payload i must depend only on (ctx, i).  batch_fn must be
    a module-level function (it crosses process boundaries).  Checkpoint
    lines are flushed in index order after each chunk, so the file is
    reproducible byte for byte across worker counts, and a failing chunk
    leaves every earlier chunk checkpointed.
    """
    done, good_end = _scan_checkpoint(checkpoint_path)
    payloads = dict(done)
    todo = [i for i in range(n_samples) if i not in payloads]

    writer = None
    written_upto = 0
    if checkpoint_path is not None:
        if os.path.exists(checkpoint_path) and os.path.getsize(checkpoint_path) > good_end:
            with open(checkpoint_path, "r+b") as fh:
                fh.truncate(good_end)  # drop the torn tail before appending
        writer = open(checkpoint_path, "a", encoding="utf-8")
        while written_upto in done:
            written_upto += 1

    def flush_ready():
        nonlocal written_upto
        if writer is None:
            return
        while written_upto in payloads:
            line = canonical_json({"i": written_upto, "p": payloads[written_upto]})
            if written_upto not in done:
                writer.write(line + "\n")
            written_upto += 1
        writer.flush()

    chunks = [todo[j:j + _CHUNK] for j in range(0, len(todo), _CHUNK)]
    try:
        if workers <= 1 or len(chunks) <= 1:
            for idx in chunks:
                payloads.update(_run_chunk(batch_fn, ctx, idx))
                flush_ready()
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_run_chunk, batch_fn, ctx, idx) for idx in chunks]
                for fut in futures:
                    for i, payload in fut.result():
                        payloads[i] = payload
                    flush_ready()
    finally:
        if writer is not None:
            flush_ready()
            writer.close()

    return [payloads[i] for i in range(n_samples)]

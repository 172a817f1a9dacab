"""Deterministic indexed Monte Carlo engine.

Samples are pure functions of (context, sample index): the index derives the
random stream, so a payload does not depend on which worker computes it or
how the indices are chunked.  The indices are cut into consecutive ranges of
_CHUNK, and one call of the batch function computes a whole range.  Chunks
come back in index order (from the builtin map without a pool, from pool.map
otherwise), and each chunk's payloads are appended to the checkpoint as JSON
lines and flushed as it arrives; a failing chunk cancels the chunks still
pending and leaves every earlier chunk on disk.

So a checkpoint is a prefix of the straight run's: line j is {"i": j, ...}.
A resume keeps the longest valid prefix, cuts the file there (a torn,
unreadable, repeated or swapped line and everything after it is recomputed)
and runs the rest.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from itertools import repeat

_CHUNK = 32  # samples per batch_fn call

# compact, key-sorted JSON of checkpoint lines and series cells, from one encoder
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def checkpoint_prefix(path):
    """(payloads, byte length) of the longest valid prefix of a JSON-lines
    checkpoint, where line j must be a complete JSON line with "i": j."""
    payloads, end = [], 0
    if path is None or not os.path.exists(path):
        return payloads, end
    with open(path, "rb") as fh:
        for raw in fh:
            try:
                rec = json.loads(raw)
                if not raw.endswith(b"\n") or rec["i"] != len(payloads):
                    break
                payloads.append(rec["p"])
            except (ValueError, KeyError, TypeError):
                break
            end += len(raw)
    return payloads, end


def run_indexed(batch_fn, ctx, n_samples, workers=1, checkpoint_path=None):
    """Payloads of samples 0..n_samples-1, in order.

    batch_fn(ctx, indices) returns the payloads of a range of sample indices,
    one per index; payload i must depend only on (ctx, i).  batch_fn must be
    a module-level function (it crosses process boundaries).  The checkpoint
    is the same file byte for byte at every worker count.  The pool has no
    more processes than workers, chunks or CPUs, so a run whose remaining
    samples fit one chunk starts none.
    """
    payloads, end = checkpoint_prefix(checkpoint_path)
    chunks = [range(j, min(j + _CHUNK, n_samples))
              for j in range(len(payloads), n_samples, _CHUNK)]
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
            if len(batch) != len(idx):
                raise ValueError(f"batch_fn gave {len(batch)} payloads for {len(idx)} indices")
            payloads += batch
            if writer is not None:
                writer.writelines(canonical_json({"i": i, "p": p}) + "\n"
                                  for i, p in zip(idx, batch))
                writer.flush()
    return payloads[:n_samples]

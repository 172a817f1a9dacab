"""Command line entry point: fmlab KIND --config C [options], the kind
before or after the options.

Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigurationError, DegenerateFitError, NumericalError
from .plotting import emit_plot
from .runner import KINDS, config_digest, emit_csv, load_config, run, section


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmlab",
        description="Monte Carlo laboratory for fractional-moment localisation experiments",
    )
    parser.add_argument("kind", choices=KINDS, help="the experiment kind; the config must name it")
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override master_seed")
    parser.add_argument("--samples", type=int, default=None, help="override sample count")
    parser.add_argument("--workers", type=int, default=None, help="override worker count")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--plot", action="store_true", help="also emit plot.svg")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if cfg.get("kind") != args.kind:
            raise ConfigurationError(
                f"kind: config says {cfg.get('kind')!r} but the command line says {args.kind!r}"
            )
        if args.seed is not None:
            cfg["master_seed"] = args.seed
        if args.samples is not None:
            cfg.setdefault("estimator", {})
            section(cfg, "estimator")["samples"] = args.samples
        if args.workers is not None:
            cfg["workers"] = args.workers
        outdir = args.out or cfg.get("out") or os.path.join("runs", config_digest(cfg)[:12])
        record = run(cfg, outdir=outdir)
        emit_csv(record, os.path.join(outdir, "series.csv"))
        if args.plot:
            emit_plot(record, os.path.join(outdir, "plot.svg"))
        print(f"{args.kind}: wrote {outdir} (digest {record.config_digest[:12]})")
        return 0
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, DegenerateFitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

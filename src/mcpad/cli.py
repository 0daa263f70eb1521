"""Batch command-line surface.

    mcpad synth|preprocess|extract|train-baseline|train-mccnn|eval|report
          --config <path> [--set key=value]... [command args]

``extract`` alone takes ``--jobs N``, its count of worker processes.
Exit codes: 0 success, 2 validation/configuration error, 1 runtime error.
Every command prints the resolved configuration digest. MCPAD_SEED
overrides the configured seed.
"""

from __future__ import annotations

import argparse
import sys

from .classical import FitError
from .config import ConfigError, config_digest, load_config
from . import pipeline
from .evaluation import MetricError, ProtocolError
from .pipeline import ValidationError


def _positive_int(text: str) -> int:
    """argparse type for counts such as ``--jobs``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="YAML run configuration (defaults apply if omitted)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config entry (dotted path)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mcpad", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("synth", help="generate the synthetic dataset"))
    _add_common(sub.add_parser("preprocess", help="align/normalize raw samples"))

    p = sub.add_parser("extract", help="extract features for one extractor")
    _add_common(p)
    p.add_argument("--extractor", required=True, choices=pipeline.EXTRACTORS)
    p.add_argument("--jobs", type=_positive_int, default=1, help="worker processes for feature extraction")

    p = sub.add_parser("train-baseline", help="train one fusion baseline")
    _add_common(p)
    p.add_argument("--pipeline", required=True, choices=pipeline.PIPELINES)

    _add_common(sub.add_parser("train-mccnn", help="train the multi-channel CNN"))

    p = sub.add_parser("eval", help="metrics from dev+eval score files")
    _add_common(p)
    p.add_argument("--protocol", required=True, help="protocol name for the report")
    p.add_argument("--name", default=None, help="experiment label for the output directory")
    p.add_argument("dev_scores", help="dev-split score file")
    p.add_argument("eval_scores", help="eval-split score file")

    _add_common(sub.add_parser("report", help="consolidate all eval outputs"))
    return parser


def run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, overrides=args.overrides)
    print(f"config digest: {config_digest(cfg)}")
    command = args.command
    if command == "synth":
        manifest = pipeline.cmd_synth(cfg)
        print(f"synth: {len(manifest)} samples -> {pipeline.data_root(cfg)}")
    elif command == "preprocess":
        manifest = pipeline.cmd_preprocess(cfg)
        print(f"preprocess: {len(manifest)} samples -> {pipeline.proc_dir(cfg)}")
    elif command == "extract":
        pipeline.cmd_extract(cfg, args.extractor, jobs=args.jobs)
        print(f"extract[{args.extractor}] -> {pipeline.features_dir(cfg)}")
    elif command == "train-baseline":
        out = pipeline.cmd_train_baseline(cfg, args.pipeline)
        print(f"train-baseline[{args.pipeline}] -> {out}")
    elif command == "train-mccnn":
        out = pipeline.cmd_train_mccnn(cfg)
        print(f"train-mccnn -> {out}")
    elif command == "eval":
        out = pipeline.cmd_eval(cfg, args.protocol, args.dev_scores, args.eval_scores, args.name)
        print(f"eval -> {out}")
    elif command == "report":
        out = pipeline.cmd_report(cfg)
        print(f"report -> {out}")
    else:  # pragma: no cover - argparse enforces choices
        raise ValidationError(f"unknown command {command}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (ConfigError, ValidationError, ProtocolError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MetricError, FitError, ValueError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

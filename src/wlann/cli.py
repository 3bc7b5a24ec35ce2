"""Command-line entry point.

Subcommands: synth, features, train, eval, predict, gradcheck.
Exit codes: 0 success, 1 validation error, 2 I/O error, 3 numeric failure.
Config precedence: built-in defaults < --config file < explicit flags;
the effective config is embedded in every artifact the commands write.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .dataio import (
    format_split_summary,
    generate_synthetic_corpus,
    load_corpus_splits,
    load_wav,
)
from .dataio.events import LABELS
from .dsp.augment import spec_augment
from .errors import NumericError, StorageError, ValidationError, WlannError
from .model.config import WlannConfig
from .model.network import predict_scores
from .model.pipeline import prepare_input
from .scoring import evaluate, write_report
from .train.checkpoint import save_archive
from .train.loop import fit, load_checkpoint
from .verify import format_suite, run_gradient_suite, suite_passed

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with the validation code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wlann", description=__doc__.strip().splitlines()[0])
    parser.add_argument("--version", action="version", version=f"wlann {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    synth = sub.add_parser("synth", parents=[], help="generate a synthetic corpus",
                           description="Write a deterministic 3-class synthetic corpus.")
    synth.add_argument("--out", required=True, help="output corpus directory")
    synth.add_argument("--n-per-class", type=int, default=10, help="events per class")
    synth.add_argument("--seed", type=int, default=0, help="generator seed")

    features = sub.add_parser("features", help="precompute features for one WAV file",
                              description="Write the waveform/log-mel archive for one clip.")
    features.add_argument("--wav", required=True, help="input WAV file")
    features.add_argument("--out", required=True, help="output .tns archive path")
    features.add_argument("--config", help="JSON config file")
    features.add_argument("--augment", action="store_true", help="apply training augmentation")
    # Its own dest, so `_load_config` never mistakes it for the config seed.
    features.add_argument("--seed", dest="augment_seed", metavar="SEED", type=int, default=0,
                          help="augmentation seed")

    train = sub.add_parser("train", help="train a model",
                           description="Train on a corpus directory and write a checkpoint.")
    train.add_argument("--data", required=True, help="corpus directory")
    train.add_argument("--manifest", help="split manifest (default: <data>/manifest.tsv)")
    train.add_argument("--config", help="JSON config file")
    train.add_argument("--epochs", type=int, default=1, help="training epochs")
    train.add_argument("--seed", type=int, help="override config seed")
    train.add_argument("--lr", type=float, help="override learning rate")
    train.add_argument("--batch-size", type=int, help="override batch size")
    train.add_argument("--out", required=True, help="checkpoint output path")

    evl = sub.add_parser("eval", help="evaluate a checkpoint on a split",
                         description="Score a trained model on one corpus split.")
    evl.add_argument("--data", required=True, help="corpus directory")
    evl.add_argument("--manifest", help="split manifest (default: <data>/manifest.tsv)")
    evl.add_argument("--model", required=True, help="checkpoint path")
    evl.add_argument("--split", required=True, choices=["train", "intra", "inter"],
                     help="which split to score")
    evl.add_argument("--report", required=True, help="report output path")
    evl.add_argument("--jobs", type=int, default=1, help="parallel inference workers")

    predict = sub.add_parser("predict", help="classify one WAV file",
                             description="Print the predicted label and per-class scores.")
    predict.add_argument("--wav", required=True, help="input WAV file")
    predict.add_argument("--model", required=True, help="checkpoint path")

    gradcheck = sub.add_parser("gradcheck", help="run the finite-difference suite",
                               description="Verify every operation's gradients numerically.")
    gradcheck.add_argument("--seed", type=int, default=0, help="suite seed")
    gradcheck.add_argument("--e2e-samples", type=int, default=6,
                           help="entries probed per tensor in the end-to-end check")
    return parser


def _load_config(args) -> WlannConfig:
    cfg = WlannConfig() if getattr(args, "config", None) is None else WlannConfig.from_json_file(args.config)
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    opt_overrides = {}
    if getattr(args, "lr", None) is not None:
        opt_overrides["learning_rate"] = args.lr
    if getattr(args, "batch_size", None) is not None:
        opt_overrides["batch_size"] = args.batch_size
    if opt_overrides:
        overrides["optimizer"] = replace(cfg.optimizer, **opt_overrides)
    return replace(cfg, **overrides)


def _cmd_synth(args) -> int:
    train, intra, inter = generate_synthetic_corpus(args.n_per_class, args.seed, args.out)
    manifest = Path(args.out) / "manifest.tsv"
    stamp = f"# generated by `wlann synth`: n_per_class={args.n_per_class} seed={args.seed}\n"
    manifest.write_text(stamp + manifest.read_text())
    print(f"wrote synthetic corpus to {args.out}")
    print(format_split_summary(train, intra, inter))
    return EXIT_OK


def _cmd_features(args) -> int:
    cfg = _load_config(args)
    clip = load_wav(args.wav)
    waveform, spec = prepare_input(clip, cfg)
    if args.augment:
        spec = spec_augment(spec, cfg.augment, args.augment_seed)
    save_archive(
        args.out,
        kind="features",
        config=cfg.to_dict(),
        tensors={"waveform": waveform, "logmel": spec.values},
        metadata={"source": str(args.wav), "augmented": bool(args.augment),
                  "seed": args.augment_seed},
    )
    print(f"wrote features for {args.wav} to {args.out} "
          f"(waveform {waveform.shape}, logmel {spec.values.shape})")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    corpus, train_split, _, _ = load_corpus_splits(args.data, args.manifest)
    state = fit(train_split, corpus, cfg, epochs=args.epochs, out_path=args.out)
    print(f"trained {args.epochs} epoch(s), {state.step} steps; checkpoint at {args.out}")
    if state.loss_history:
        print(f"final mean batch loss: {state.loss_history[-1]:.6f}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    cfg, params, _ = load_checkpoint(args.model)
    corpus, train_split, intra, inter = load_corpus_splits(args.data, args.manifest)
    split = {"train": train_split, "intra": intra, "inter": inter}[args.split]
    report, matrix = evaluate(params, cfg, split, corpus, jobs=args.jobs)
    write_report(args.report, report, matrix, config=cfg.to_dict())
    document = report.to_dict()
    print(f"split {split.name}: "
          f"SN={document['sensitivity']} SP={document['specificity']} "
          f"AS={document['average_score']} HS={document['harmonic_score']} "
          f"TS={document['total_score']}")
    print(f"report written to {args.report}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    cfg, params, _ = load_checkpoint(args.model)
    clip = load_wav(args.wav)
    waveform, spec = prepare_input(clip, cfg)
    scores = predict_scores(waveform, spec, params, cfg)
    predicted = LABELS[int(np.argmax(scores))]
    print(f"prediction: {predicted.value}")
    for label, value in zip(LABELS[: cfg.num_classes], scores):
        print(f"  {label.value:18s} {float(value):.6f}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    results = run_gradient_suite(seed=args.seed, e2e_samples=args.e2e_samples)
    print(format_suite(results))
    return EXIT_OK if suite_passed(results) else EXIT_NUMERIC


_COMMANDS = {
    "synth": _cmd_synth,
    "features": _cmd_features,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
    "gradcheck": _cmd_gradcheck,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stdout)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_VALIDATION
    try:
        return _COMMANDS[args.command](args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except StorageError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValidationError, WlannError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

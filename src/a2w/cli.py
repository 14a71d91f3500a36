"""Command-line surface: synth / train / decode / score / ablate / inspect-ckpt.

Exit status: 0 on success, 1 on usage errors, 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .ablation import VARIANTS, default_aliases, run_ablation
from .alphabet import build_charset
from .checkpoint import load_checkpoint
from .config import DEFAULTS, RULES, TrainConfig, config_from_items, load_config
from .decoder import DECODE_MODES, read_sar_file, read_transcripts, write_sar_file, write_transcripts
from .pipeline import SynthSpec, load_corpus, save_corpus, split_by_id_hash, synth_corpus
from .scoring import EmptyReference, corpus_wer
from .trainer import open_run, run_training


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("config overrides (same names as the config file keys)")
    for key, default in DEFAULTS.items():
        rule = f"{RULES[key][0]} " if key in RULES else ""
        group.add_argument(
            f"--{key}", dest=f"cfg_{key}", metavar=type(default).__name__.upper(), help=f"{rule}(default: {default!r})"
        )


def _resolve_config(args) -> TrainConfig:
    base = load_config(args.config) if args.config else TrainConfig()
    overrides = {key: getattr(args, f"cfg_{key}") for key in DEFAULTS if getattr(args, f"cfg_{key}") is not None}
    return config_from_items(overrides, base)


def _load_train_heldout(args, cfg: TrainConfig):
    utts = load_corpus(args.corpus)
    if args.heldout:
        return utts, load_corpus(args.heldout)
    return split_by_id_hash(utts, cfg.heldout_fraction)


# SynthSpec field -> its `a2w synth` flag; --proto-seed has its own, defaulting to --seed
SYNTH_FLAGS = {f.name: "--" + f.name.replace("_", "-") for f in dataclasses.fields(SynthSpec) if f.name != "proto_seed"}
SYNTH_FLAGS["oov_pool_size"] = "--oov-pool"


def _cmd_synth(args) -> int:
    proto_seed = args.proto_seed if args.proto_seed is not None else args.seed
    spec = SynthSpec(**{name: getattr(args, name) for name in SYNTH_FLAGS}, proto_seed=proto_seed)
    utts = synth_corpus(spec, args.count, args.seed, id_prefix=args.prefix)
    save_corpus(utts, args.out)
    print(f"wrote {len(utts)} utterances to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _resolve_config(args)
    train_utts, heldout = _load_train_heldout(args, cfg)
    run, _ = run_training(cfg, train_utts, heldout, args.out, resume_from=args.resume)
    last = run.records[-1]
    print(
        f"trained {len(run.records)} epochs: train_loss={last.train_loss:.4f} "
        f"heldout_loss={last.heldout_loss:.4f} (best epoch {run.best_heldout_epoch()})"
    )
    print(f"checkpoints and records in {args.out}")
    return 0


def _cmd_decode(args) -> int:
    sar_path = Path(args.out).with_suffix(".sar")
    if args.mode != "word" and sar_path == Path(args.out):
        raise _UsageError(f"--mode {args.mode} writes its annotations to {sar_path}, so --out must not end in .sar")
    rows = open_run(args.run, args.epoch).decode(load_corpus(args.corpus), args.mode)
    write_transcripts(args.out, [(utt_id, words) for utt_id, words, _ in rows])
    annotated = [(utt_id, hyp) for utt_id, _, hyp in rows if hyp is not None]
    if annotated:
        write_sar_file(sar_path, annotated)
        print(f"wrote {len(rows)} hypotheses to {args.out} (annotations in {sar_path})")
    else:
        print(f"wrote {len(rows)} hypotheses to {args.out}")
    return 0


def _cmd_score(args) -> int:
    refs = read_transcripts(args.ref)
    if args.strip_sar:
        hyps = {utt_id: hyp.words for utt_id, hyp in read_sar_file(args.hyp, build_charset("positional")).items()}
    else:
        hyps = read_transcripts(args.hyp)
    if refs.keys() != hyps.keys():
        only_ref, only_hyp = sorted(refs.keys() - hyps.keys())[:3], sorted(hyps.keys() - refs.keys())[:3]
        raise ValueError(f"ids differ: {only_ref} only in {args.ref}, {only_hyp} only in {args.hyp}")
    try:
        report = corpus_wer(refs, hyps)
    except EmptyReference as exc:
        raise EmptyReference(f"{args.ref}: {exc}") from None
    print(report)
    return 0


_SPEC_ALIASES = ", ".join(VARIANTS)


def _cmd_ablate(args) -> int:
    cfg = _resolve_config(args)
    aliases = [s.strip() for s in (args.specs or "").split(",") if s.strip()] or default_aliases(cfg)
    for alias in aliases:
        if alias not in VARIANTS:
            raise _UsageError(f"unknown ablation spec {alias!r}; choose from {_SPEC_ALIASES}")
    train_utts, heldout = _load_train_heldout(args, cfg)
    seeds = [cfg.seed + i for i in range(args.seeds)]
    result = run_ablation(cfg, aliases, train_utts, heldout, args.out, seeds)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    text = result.render_text()
    (out_dir / "table.txt").write_text(text + "\n", encoding="utf-8")
    result.write_csv(out_dir / "table.csv")
    print(text)
    return 0


def _cmd_inspect(args) -> int:
    print(load_checkpoint(args.ckpt).manifest_text(), end="")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="a2w", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic corpus directory")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=200)
    for name, flag in SYNTH_FLAGS.items():
        default = getattr(SynthSpec, name)
        p.add_argument(flag, dest=name, type=type(default), default=default, help=f"(default: {default})")
    p.add_argument("--proto-seed", type=int, default=None, help="prototype seed (defaults to --seed)")
    p.add_argument("--prefix", default="utt")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a model on a corpus directory")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--heldout", default=None, help="heldout corpus directory (default: split by id hash)")
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("decode", help="greedy-decode a corpus with a trained run")
    p.add_argument("--run", required=True, help="training run directory")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="output transcript tsv")
    p.add_argument("--mode", choices=DECODE_MODES, default="word")
    p.add_argument("--epoch", type=int, default=None, help="checkpoint epoch (default: latest)")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("score", help="word error rate between two transcript files")
    p.add_argument("ref")
    p.add_argument("hyp")
    p.add_argument("--strip-sar", action="store_true", help="parse the hypothesis file as SAR annotations")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("ablate", help="train and score one model per recipe variant")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--heldout", default=None)
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--specs", default=None, help=f"comma list from: {_SPEC_ALIASES}")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("inspect-ckpt", help="print a checkpoint manifest")
    p.add_argument("ckpt")
    p.set_defaults(func=_cmd_inspect)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()

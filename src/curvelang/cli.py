"""Command-line interface: train, reconstruct, spectrum, verify, sample, probe."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import harness
from .config import RunConfig, apply_overrides, load_config, parse_value
from .corpus import make_dir, write_file
from .curvemap import (
    DEFAULT_SWEEP_ETA_RATIOS,
    DEFAULT_SWEEP_LENGTHS,
    DEFAULT_SWEEP_N_RATIOS,
    CurveConfig,
    reconstruction_sweep,
    resolve_dims,
)
from .errors import ConfigError, CurvelangError
from .splines import build_pair, importance_ratio
from .verify import SUITES, all_asserted_pass, render_table, run_suite


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for f in dataclasses.fields(RunConfig):
        parser.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name, type=str, default=None, metavar="V")


def _collect_overrides(args: argparse.Namespace) -> dict:
    overrides = {}
    for f in dataclasses.fields(RunConfig):
        raw = getattr(args, f.name, None)
        if raw is not None:
            overrides[f.name] = parse_value(f.name, raw)
    return overrides


def _parse_list(raw: str, kind, flag: str) -> tuple:
    """A comma-separated ``flag`` value as a tuple of ``kind``; ConfigError if one does not parse."""
    try:
        return tuple(kind(x) for x in raw.split(","))
    except ValueError:
        raise ConfigError(f"{flag} needs comma-separated {kind.__name__} values, got {raw!r}") from None


def _json_value(value):  # what json cannot encode itself: numpy arrays and scalars
    return value.tolist()


def cmd_train(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else RunConfig()
    config = apply_overrides(config, _collect_overrides(args))
    result = harness.run_training(config, args.out)
    print(f"trained {config.steps} steps; wrote {result.losses_path} and {result.checkpoint_path}")
    print(f"final record: {json.dumps(result.final, sort_keys=True)}")
    return 0


def cmd_reconstruct(args: argparse.Namespace) -> int:
    table = reconstruction_sweep(
        lengths=_parse_list(args.lengths, int, "--lengths"),
        n_ratios=_parse_list(args.n_ratios, float, "--n-ratios"),
        eta_ratios=_parse_list(args.eta_ratios, float, "--eta-ratios"),
        trials=args.trials,
        seed=args.seed,
        dim=args.dim,
    )
    make_dir(args.out)
    csv_path = os.path.join(args.out, "reconstruction.csv")
    write_file(csv_path, table.to_csv())
    write_file(os.path.join(args.out, "reconstruction.json"), table.to_json())
    print(f"wrote {len(table.rows)} rows to {csv_path}")
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    config = CurveConfig(
        n_ratio=args.n_ratio,
        eta_ratio=None if args.eta_fixed is not None else args.eta_ratio,
        eta_fixed=args.eta_fixed,
        margin=args.margin,
    )
    n_points, eta = resolve_dims(args.length, config)
    pair = build_pair(args.length, n_points, eta, args.margin)
    report = importance_ratio(pair.B_pinv)
    payload = dataclasses.asdict(report)
    payload.update({"L": pair.L, "N": pair.N, "eta": pair.eta, "cond": pair.cond, "basis_rank": pair.rank})
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_value)
    if args.out:
        make_dir(args.out)
        path = os.path.join(args.out, f"spectrum_L{args.length}.json")
        write_file(path, text)
        print(f"wrote {path}")
    else:
        print(text)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    records = run_suite(args.suite, seed=args.seed)
    print(render_table(records))
    if args.out:
        make_dir(args.out)
        path = os.path.join(args.out, f"verify_{args.suite}.json")
        write_file(path, json.dumps([dataclasses.asdict(r) for r in records], indent=2, sort_keys=True, default=_json_value))
        print(f"wrote {path}")
    return 0 if all_asserted_pass(records) else 1


def cmd_sample(args: argparse.Namespace) -> int:
    result = harness.run_sampling(
        ckpt_path=args.checkpoint,
        out_dir=args.out,
        length=args.length,
        n_steps=args.steps,
        n_samples=args.n,
        seed=args.seed,
    )
    print(f"wrote {result.samples_path} plus {len(result.trajectory_paths)} trajectory files")
    return 0


def cmd_probe(args: argparse.Namespace) -> int:
    payload = harness.run_probe(
        ckpt_a=args.checkpoint_a,
        ckpt_b=args.checkpoint_b,
        corpus_spec=args.corpus,
        out_dir=args.out,
        n_eval=args.n_eval,
        n_noise=args.n_noise,
        dropout_p=args.dropout_p,
        noise_scale=args.noise_scale,
        seed=args.seed,
        tokenizer=args.tokenizer,
        max_len=args.max_len,
    )
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="curvelang", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write losses.csv + model.ckpt")
    p_train.add_argument("--config", type=str, default=None, help="key=value config file")
    p_train.add_argument("--out", type=str, required=True, help="output directory")
    _add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_rec = sub.add_parser("reconstruct", help="round-trip reconstruction error sweep")
    p_rec.add_argument("--lengths", type=str, default=",".join(str(x) for x in DEFAULT_SWEEP_LENGTHS))
    p_rec.add_argument("--n-ratios", type=str, default=",".join(str(x) for x in DEFAULT_SWEEP_N_RATIOS))
    p_rec.add_argument("--eta-ratios", type=str, default=",".join(str(x) for x in DEFAULT_SWEEP_ETA_RATIOS))
    p_rec.add_argument("--trials", type=int, default=100)
    p_rec.add_argument("--dim", type=int, default=16)
    p_rec.add_argument("--seed", type=int, default=0)
    p_rec.add_argument("--out", type=str, required=True)
    p_rec.set_defaults(func=cmd_reconstruct)

    p_spec = sub.add_parser("spectrum", help="eigenstructure and importance ratio for one length")
    p_spec.add_argument("--length", type=int, required=True)
    p_spec.add_argument("--n-ratio", type=float, default=2.0)
    p_spec.add_argument("--eta-ratio", type=float, default=0.1)
    p_spec.add_argument("--eta-fixed", type=int, default=None)
    p_spec.add_argument("--margin", type=float, default=0.01)
    p_spec.add_argument("--out", type=str, default=None)
    p_spec.set_defaults(func=cmd_spectrum)

    p_ver = sub.add_parser("verify", help="run the theoretical-claim verification suites")
    p_ver.add_argument("suite", choices=SUITES)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out", type=str, default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_samp = sub.add_parser("sample", help="generate from a checkpoint with trajectory export")
    p_samp.add_argument("checkpoint", type=str)
    p_samp.add_argument("--length", type=int, default=16)
    p_samp.add_argument("--steps", type=int, default=10)
    p_samp.add_argument("--n", type=int, default=8)
    p_samp.add_argument("--seed", type=int, default=0)
    p_samp.add_argument("--out", type=str, required=True)
    p_samp.set_defaults(func=cmd_sample)

    p_probe = sub.add_parser("probe", help="compare logit distance correlations of two checkpoints")
    p_probe.add_argument("checkpoint_a", type=str)
    p_probe.add_argument("checkpoint_b", type=str)
    p_probe.add_argument("--corpus", type=str, default="builtin:multimodal")
    p_probe.add_argument("--tokenizer", type=str, default="char")
    p_probe.add_argument("--max-len", type=int, default=64)
    p_probe.add_argument("--n-eval", type=int, default=8)
    p_probe.add_argument("--n-noise", type=int, default=200)
    p_probe.add_argument("--dropout-p", type=float, default=0.1)
    p_probe.add_argument("--noise-scale", type=float, default=0.1)
    p_probe.add_argument("--seed", type=int, default=0)
    p_probe.add_argument("--out", type=str, required=True)
    p_probe.set_defaults(func=cmd_probe)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (CurvelangError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout has gone; point it at devnull so the flush at exit fails no more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())

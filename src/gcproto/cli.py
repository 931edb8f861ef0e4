"""Command-line interface.

Subcommands: ``gen`` (synthetic data), ``select`` (prototype file),
``train`` (model checkpoint), ``eval`` (report), ``sweep-n`` and
``sweep-alpha`` (both ``harness.sweep``), ``group-eval``.  A run is set
by flags or by ``--config`` with an experiment JSON; flags override the
config field-for-field, and ``--seed`` also fills each ``selector``,
``gcp`` and ``data.synthetic`` seed the file left out.

On failure the process exits nonzero after printing one line to stderr of
the form ``error:<category>: <message>``, where the category is a stable
machine-parsable token (see gcproto.errors).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, GcprotoError
from .harness import (
    PROTOCOL_CHOICES,
    ExperimentConfig,
    experiment_config_from_json_dict,
    group_evaluate,
    run_experiment,
    save_prototypes,
    sweep,
)
from .model import GcpConfig, load_model, save_model, select_gcp, train
from .schema import from_json, read_json_object, to_json, write_json
from .selectors import METHODS, SelectorConfig, run_selector
from .store import load_embedding_set, save_embedding_set
from .synthetic import SyntheticSpec, generate_synthetic, preset_spec


def cmd_gen(args) -> int:
    data = read_json_object(args.config) if args.config is not None else {}
    if data.keys() == {"preset"}:
        spec = preset_spec(data["preset"])
    else:
        spec = from_json(SyntheticSpec, data)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    gallery, queries = generate_synthetic(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_embedding_set(gallery, out / "gallery.csv")
    save_embedding_set(queries, out / "queries.csv")
    write_json(out / "synthetic_spec.json", to_json(spec))
    print(f"wrote {len(gallery)} gallery and {len(queries)} query records to {out}")
    return 0


def cmd_select(args) -> int:
    given = {"n_prototypes": args.n, "alpha": args.alpha, "seed": args.seed}
    cfg = SelectorConfig(method=args.method, **{k: v for k, v in given.items() if v is not None})
    eset = load_embedding_set(args.data)
    if cfg.method == "gcp":
        if args.checkpoint is None:
            raise ConfigError("--method gcp needs --checkpoint")
        pset = select_gcp(eset, load_model(args.checkpoint), n=cfg.n_prototypes)
    else:
        pset = run_selector(eset, cfg)
    save_prototypes(pset, args.out)
    print(
        f"wrote {pset.total_count()} prototypes over {len(pset.class_ids)} classes to {args.out}"
    )
    return 0


def cmd_train(args) -> int:
    eset = load_embedding_set(args.data)
    data = read_json_object(args.config) if args.config is not None else {}
    cfg = from_json(GcpConfig, data, {"dim": eset.dim})
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    model, trace = train(eset, cfg)
    save_model(model, args.out)
    print(
        f"trained {cfg.epochs} epochs, final mean loss "
        f"{trace.epoch_mean_loss[-1]!r}, checkpoint at {args.out}"
    )
    return 0


def _experiment_from_args(args) -> ExperimentConfig:
    if args.config is not None:
        data = read_json_object(args.config)
        experiment_config_from_json_dict(data)  # the file must be valid as written
    else:
        if args.data is None or args.queries is None or args.method is None:
            raise ConfigError("without --config, provide --data, --queries and --method")
        data = {"version": 1, "selector": {"method": args.method}}
    # each flag is set in the JSON object, so a nested section that left
    # out its seed takes --seed through the schema's seed inheritance
    if args.data is not None:
        data["data"] = {"path": args.data}
    if args.queries is not None:
        data["queries"] = {"path": args.queries}
    for key, value in (("method", args.method), ("n", args.n), ("alpha", args.alpha)):
        if value is not None:
            data["selector"][key] = value
    for key, value in (
        ("protocol", args.protocol), ("seed", args.seed), ("checkpoint", args.checkpoint)
    ):
        if value is not None:
            data[key] = value
    return experiment_config_from_json_dict(data)


def cmd_eval(args) -> int:
    cfg = _experiment_from_args(args)
    result = run_experiment(cfg, out_dir=args.out)
    r = result.report
    print(f"queries={r.n_queries} top1={r.top1!r} map={r.map!r}")
    if r.missing_class_query_ids:
        print(f"queries with no own-class prototype: {len(r.missing_class_query_ids)}")
    return 0


def _parse_values(text: str, kind) -> list:
    try:
        return [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"bad --values list {text!r}") from None


def cmd_sweep(args) -> int:
    cfg = _experiment_from_args(args)
    kind = int if args.axis == "n" else float
    values = _parse_values(args.values, kind) if args.values else None
    for row in sweep(cfg, args.axis, values, out_dir=args.out):
        print(f"{args.axis}={row[args.axis]!r} top1={row['top1']!r} map={row['map']!r}")
    return 0


def cmd_group_eval(args) -> int:
    cfg = _experiment_from_args(args)
    buckets = [b.strip() for b in args.buckets.split(",")] if args.buckets else None
    rows = group_evaluate(cfg, buckets, out_dir=args.out)
    for row in rows:
        map_txt = "absent" if row["map"] is None else repr(row["map"])
        print(f"bucket={row['bucket']} count={row['count']} map={map_txt}")
    return 0


def _add_common_eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="gallery file (csv or binary)")
    p.add_argument("--queries", help="query file (csv or binary)")
    p.add_argument("--method", choices=METHODS, help="prototype selector")
    p.add_argument("--n", type=int, help="prototypes per class")
    p.add_argument("--alpha", type=float, help="interpolation factor for alphafps")
    p.add_argument("--protocol", choices=PROTOCOL_CHOICES, help="inference protocol")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--checkpoint", help="trained model checkpoint for --method gcp")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--out", help="artifact output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcproto",
        description="Class-prototype selection and prototype-based retrieval",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic gallery/query pair")
    p.add_argument("--config", help="synthetic spec JSON, or {\"preset\": name}")
    p.add_argument("--seed", type=int, help="override the spec seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("select", help="build a prototype file from a gallery")
    p.add_argument("--data", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--n", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--checkpoint", help="model checkpoint (gcp method)")
    p.add_argument("--out", required=True, help="prototype JSON path")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("train", help="train the learned generator")
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="GcpConfig fields as JSON")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="select, rank and evaluate")
    _add_common_eval_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-n", help="evaluate across prototype counts")
    _add_common_eval_flags(p)
    p.add_argument("--values", help="comma-separated N values, e.g. 1,2,3,6")
    p.set_defaults(func=cmd_sweep, axis="n")

    p = sub.add_parser("sweep-alpha", help="evaluate across alpha values")
    _add_common_eval_flags(p)
    p.add_argument("--values", help="comma-separated alpha values")
    p.set_defaults(func=cmd_sweep, axis="alpha")

    p = sub.add_parser("group-eval", help="per-bucket mAP by gallery size")
    _add_common_eval_flags(p)
    p.add_argument("--buckets", help="comma-separated buckets, e.g. 1-15,16-30,31+")
    p.set_defaults(func=cmd_group_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GcprotoError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: ``gen`` (synthetic data), ``select`` (prototype file),
``train`` (model checkpoint), ``eval`` (report), ``sweep-n`` and
``sweep-alpha`` (both ``harness.sweep``), ``group-eval``.  A run is set by
flags or by ``--config`` with a JSON file.  Each flag is the config key it
names, read with the file by the one schema reader, so flags take the
file's rules and spellings and override it field-for-field; ``--seed``
also fills each ``selector``, ``gcp`` and ``data.synthetic`` seed the
file left out.  A list flag is a config key too: ``--buckets`` sets
``group_buckets``, and ``--values`` sets ``sweep.values`` under the sweep
subcommand's ``sweep.axis``.  Every failure, a flag the parser refuses
included, exits with status 1 after one stderr line
``error:<category>: <message>``, the category a stable machine-parsable
token (see gcproto.errors); ``--help`` exits 0.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, GcprotoError
from .harness import (
    PROTOCOL_CHOICES,
    ExperimentConfig,
    group_evaluate,
    run_experiment,
    save_prototypes,
    select_prototypes,
    sweep,
)
from .model import GcpConfig, load_model, save_model, train
from .schema import from_json, read_json_object, to_json, write_json
from .selectors import SelectorConfig
from .store import METHODS, load_embedding_set, save_embedding_set
from .synthetic import SyntheticSpec, generate_synthetic, preset_spec


class _Parser(argparse.ArgumentParser):
    """Raises ``ConfigError`` where argparse would print usage and exit 2."""

    def error(self, message):
        raise ConfigError(message)


def _given(args, *names) -> dict:
    """The flags ``names`` that were given (a subcommand may lack some), keyed by name."""
    return {k: getattr(args, k) for k in names if getattr(args, k, None) is not None}


def _list_of(kind):
    """An argparse type: comma-separated items, none dropped, each read by
    ``kind`` as a flag of that type reads its value."""

    def read(text: str) -> list:
        return [kind(item) for item in text.split(",")]

    read.__name__ = f"{kind.__name__} list"  # argparse names the type in its error
    return read


def _read_config(args) -> dict:
    return read_json_object(args.config) if args.config is not None else {}


def cmd_gen(args) -> int:
    data = _read_config(args)
    if data.keys() == {"preset"}:
        data = to_json(preset_spec(data["preset"]))
    spec = from_json(SyntheticSpec, {**data, **_given(args, "seed")})
    gallery, queries = generate_synthetic(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_embedding_set(gallery, out / "gallery.csv")
    save_embedding_set(queries, out / "queries.csv")
    write_json(out / "synthetic_spec.json", to_json(spec))
    print(f"wrote {len(gallery)} gallery and {len(queries)} query records to {out}")
    return 0


def cmd_select(args) -> int:
    cfg = from_json(SelectorConfig, _given(args, "method", "n", "alpha", "seed"))
    eset = load_embedding_set(args.data)
    if cfg.method == "gcp" and args.checkpoint is None:
        raise ConfigError("--method gcp needs --checkpoint")
    model = load_model(args.checkpoint) if cfg.method == "gcp" else None
    pset = select_prototypes(cfg, eset, model)
    save_prototypes(pset, args.out)
    print(
        f"wrote {pset.total_count()} prototypes over {len(pset.class_ids)} classes to {args.out}"
    )
    return 0


def cmd_train(args) -> int:
    eset = load_embedding_set(args.data)
    cfg = from_json(GcpConfig, {**_read_config(args), **_given(args, "seed")}, {"dim": eset.dim})
    model, trace = train(eset, cfg)
    save_model(model, args.out)
    print(
        f"trained {cfg.epochs} epochs, final mean loss "
        f"{trace.epoch_mean_loss[-1]!r}, checkpoint at {args.out}"
    )
    return 0


def _experiment_from_args(args) -> ExperimentConfig:
    data = _read_config(args)
    if args.config is not None:
        from_json(ExperimentConfig, data)  # the file must be valid as written
    # each flag is set in the JSON object, so a nested section that left
    # out its seed takes --seed through the schema's seed inheritance, and
    # a missing piece is refused by the config's own rules
    for key, path in _given(args, "data", "queries").items():
        data[key] = {"path": path}
    data["selector"] = {**data.get("selector", {}), **_given(args, "method", "n", "alpha")}
    data.update(_given(args, "protocol", "seed", "checkpoint", "group_buckets"))
    if "axis" in args:
        # the subcommand names the axis; the file's values serve only that axis
        section = data.get("sweep") or {}
        section = section if section.get("axis") == args.axis else {}
        data["sweep"] = {**section, "axis": args.axis, **_given(args, "values")}
    return from_json(ExperimentConfig, data)


def cmd_eval(args) -> int:
    cfg = _experiment_from_args(args)
    result = run_experiment(cfg, out_dir=args.out)
    r = result.report
    print(f"queries={r.n_queries} top1={r.top1!r} map={r.map!r}")
    if r.missing_class_query_ids:
        print(f"queries with no own-class prototype: {len(r.missing_class_query_ids)}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _experiment_from_args(args)
    for row in sweep(cfg, out_dir=args.out):
        print(f"{args.axis}={row[args.axis]!r} top1={row['top1']!r} map={row['map']!r}")
    return 0


def cmd_group_eval(args) -> int:
    cfg = _experiment_from_args(args)
    for row in group_evaluate(cfg, out_dir=args.out):
        map_txt = "absent" if row["map"] is None else repr(row["map"])
        print(f"bucket={row['bucket']} count={row['count']} map={map_txt}")
    return 0


METHOD_HELP = f"prototype selector, one of {', '.join(METHODS)}"


def _add_common_eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="gallery file (csv or binary)")
    p.add_argument("--queries", help="query file (csv or binary)")
    p.add_argument("--method", help=METHOD_HELP)
    p.add_argument("--n", type=int, help="prototypes per class")
    p.add_argument("--alpha", type=float, help="interpolation factor for alphafps")
    p.add_argument("--protocol", help=f"inference protocol, one of {', '.join(PROTOCOL_CHOICES)}")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--checkpoint", help="trained model checkpoint for --method gcp")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--out", help="artifact output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gcproto",
        description="Class-prototype selection and prototype-based retrieval",
        epilog=METHOD_HELP,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic gallery/query pair")
    p.add_argument("--config", help="synthetic spec JSON, or {\"preset\": name}")
    p.add_argument("--seed", type=int, help="override the spec seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("select", help="build a prototype file from a gallery")
    p.add_argument("--data", required=True)
    p.add_argument("--method", help=METHOD_HELP)
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
    p.add_argument("--values", type=_list_of(int), help="comma-separated N values, e.g. 1,2,3,6")
    p.set_defaults(func=cmd_sweep, axis="n")

    p = sub.add_parser("sweep-alpha", help="evaluate across alpha values")
    _add_common_eval_flags(p)
    p.add_argument("--values", type=_list_of(float), help="comma-separated alpha values")
    p.set_defaults(func=cmd_sweep, axis="alpha")

    p = sub.add_parser("group-eval", help="per-bucket mAP by gallery size")
    _add_common_eval_flags(p)
    p.add_argument(
        "--buckets", dest="group_buckets", type=_list_of(str),
        help="comma-separated buckets, e.g. 1-15,16-30,31+",
    )
    p.set_defaults(func=cmd_group_eval)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (GcprotoError, OSError) as exc:
        category = exc.category if isinstance(exc, GcprotoError) else "io"
        message = " ".join(str(exc).splitlines())  # a quoted value may hold a line break
        print(f"error:{category}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Experiment orchestration: configs, end-to-end pipelines, sweeps, artifacts.

A run is described by one JSON document (versioned, schema below), resolved
into an ``ExperimentConfig``.  Pipelines share the same building blocks:
resolve data (file, synthetic spec, or named preset), build prototypes with
the configured selector, evaluate, and write artifacts (report JSON/CSV,
prototype sets, checkpoints, resolved config).  Every written artifact
reloads to the in-memory values bit-exactly.

Config schema (top-level keys; ``gcproto.schema`` reads and writes it)::

    version          1
    seed             master seed; a nested section's absent "seed" takes it
    data             {"path": csv-or-binary} | {"synthetic": {...}} | {"preset": name}
    queries          {"path": ...}      required when data is a file
    selector         {"method": ..., "n": ..., "alpha": ..., ...}
    gcp              GcpConfig fields   required for method "gcp" without checkpoint
    checkpoint       path to a trained model to reuse
    protocol         "plain" (default) | "camera-filter"
    sweep            {"axis": "n"|"alpha", "values": [...]}
    group_buckets    e.g. ["1-15", "16-30", "31+"]
    max_rank         CMC depth, default 25
    ap_mode          "per_prototype" (default) | "per_identity"
    per_query_ap     include per-query AP in the report, default false
    out_dir          artifact directory

Nested sections take the field names of ``SelectorConfig`` (with ``"n"``
for ``n_prototypes``), ``SyntheticSpec`` and ``GcpConfig``; an absent key
takes the dataclass default, and unknown keys are an error.  Ranges and
lists are JSON lists: ``"instances_per_class": [4, 9]``,
``"elongation_scale": [0.5, 2.0]``.  Sweep values for axis ``n`` are
positive integers.  ``ExperimentConfig.to_json_dict`` writes this layout,
and the ``resolved_config.json`` it writes is itself a valid config.

Under the camera-filter protocol the query class's prototypes are rebuilt
per distinct (class, camera) query group with that camera's records
excluded; other classes keep their full-gallery prototypes.  The rebuild
takes the base run's own per-class path: ``selectors.class_prototypes`` on
the kept gallery rows, or ``build_memory`` without the camera plus
``generate_prototypes`` for the learned generator.  Groups whose every
class record comes from the query camera fall back to the unfiltered class
and are flagged in the report.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataFormatError
from .model import (
    GcpConfig,
    GcpModel,
    build_memory,
    generate_prototypes,
    load_model,
    save_model,
    select_gcp,
    train,
)
from .retrieval import (
    DEFAULT_MAX_RANK,
    AP_MODES,
    EvalReport,
    evaluate,
    parse_buckets,
    report_to_csv,
    report_to_json,
)
from .schema import check_field_types, from_json, read_json_object, to_json
from .selectors import SelectorConfig, class_prototypes, run_selector
from .store import EmbeddingSet, PrototypeSet, align_labels, load_embedding_set
from .synthetic import SyntheticSpec, generate_synthetic, preset_spec

PROTOCOL_CHOICES = ("plain", "camera-filter")


@dataclass
class ExperimentConfig:
    JSON_VERSION = 1

    selector: SelectorConfig
    data_path: str | None = field(default=None, metadata={"json": "data.path"})
    queries_path: str | None = field(default=None, metadata={"json": "queries.path"})
    synthetic: SyntheticSpec | None = field(default=None, metadata={"json": "data.synthetic"})
    preset: str | None = field(default=None, metadata={"json": "data.preset"})
    gcp: GcpConfig | None = None
    checkpoint: str | None = None
    protocol: str = "plain"
    sweep_axis: str | None = field(default=None, metadata={"json": "sweep.axis"})
    sweep_values: list[int | float] | None = field(default=None, metadata={"json": "sweep.values"})
    group_buckets: list[str] | None = None
    max_rank: int = DEFAULT_MAX_RANK
    ap_mode: str = "per_prototype"
    per_query_ap: bool = False
    out_dir: str | None = None
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        sources = [
            self.data_path is not None,
            self.synthetic is not None,
            self.preset is not None,
        ]
        if sum(sources) != 1:
            raise ConfigError(
                "exactly one data source required: data path, synthetic spec, or preset"
            )
        if self.data_path is not None and self.queries_path is None:
            raise ConfigError("a file data source needs a queries file")
        if self.preset is not None:
            preset_spec(self.preset)
        if self.protocol not in PROTOCOL_CHOICES:
            raise ConfigError(
                f"unknown protocol {self.protocol!r} (choose from {PROTOCOL_CHOICES})"
            )
        if self.sweep_axis is not None or self.sweep_values is not None:
            if self.sweep_axis not in ("n", "alpha"):
                raise ConfigError(f"sweep axis must be 'n' or 'alpha', got {self.sweep_axis!r}")
            if not self.sweep_values:
                raise ConfigError("sweep values must be a non-empty list")
            if self.sweep_axis == "n":
                _n_values(self.sweep_values)
        if self.group_buckets is not None:
            parse_buckets(self.group_buckets)
        if self.max_rank < 1:
            raise ConfigError("max_rank must be positive")
        if self.ap_mode not in AP_MODES:
            raise ConfigError(f"unknown ap_mode {self.ap_mode!r}")
        if self.selector.method == "gcp" and self.gcp is None and self.checkpoint is None:
            raise ConfigError(
                "selector 'gcp' needs a gcp training config or a checkpoint"
            )

    def to_json_dict(self) -> dict:
        return to_json(self)


def experiment_config_from_json_dict(data: dict) -> ExperimentConfig:
    return from_json(ExperimentConfig, data)


def load_experiment_config(path) -> ExperimentConfig:
    return experiment_config_from_json_dict(read_json_object(path))


# -- prototype file IO ---------------------------------------------------

PROTO_FORMAT = "gcproto-prototypes"
PROTO_VERSION = 1


def save_prototypes(pset: PrototypeSet, path) -> None:
    data = {
        "format": PROTO_FORMAT,
        "version": PROTO_VERSION,
        "selector": pset.selector_tag,
        "params_echo": pset.params_echo,
        "classes": {str(c): pset.per_class[c].tolist() for c in pset.class_ids},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_prototypes(path) -> PrototypeSet:
    data = read_json_object(path)
    if data.get("format") != PROTO_FORMAT:
        raise DataFormatError(f"{path}: not a prototype file")
    if data.get("version") != PROTO_VERSION:
        raise DataFormatError(f"{path}: unsupported version {data.get('version')}")
    if "selector" not in data or not isinstance(data.get("classes"), dict):
        raise DataFormatError(f"{path}: needs a 'selector' and a 'classes' object")
    if not isinstance(data.get("params_echo", {}), dict):
        raise DataFormatError(f"{path}: 'params_echo' must be an object")
    try:
        per_class = {
            int(c): np.array(rows, dtype=np.float64)
            for c, rows in data["classes"].items()
        }
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad class id or prototype rows ({exc})") from None
    return PrototypeSet(per_class, data["selector"], data.get("params_echo", {}))


# -- pipeline building blocks -------------------------------------------


def resolve_data(cfg: ExperimentConfig) -> tuple[EmbeddingSet, EmbeddingSet]:
    """Load or generate (gallery, queries) per the config's data source."""
    if cfg.data_path is not None:
        gallery = load_embedding_set(cfg.data_path)
        # Dense ids are assigned per file; re-index the queries against the
        # gallery's labels so class joins and camera filtering line up.
        queries = align_labels(gallery, load_embedding_set(cfg.queries_path))
        return gallery, queries
    spec = cfg.synthetic if cfg.synthetic is not None else preset_spec(cfg.preset)
    return generate_synthetic(spec)


def obtain_model(
    cfg: ExperimentConfig, gallery: EmbeddingSet
) -> tuple[GcpModel, bool]:
    """Load the configured checkpoint or train fresh; returns (model, trained_here)."""
    if cfg.checkpoint is not None:
        return load_model(cfg.checkpoint), False
    model, _ = train(gallery, cfg.gcp)
    return model, True


def _select_base(
    cfg: ExperimentConfig, gallery: EmbeddingSet, model: GcpModel | None, n: int
) -> PrototypeSet:
    if cfg.selector.method == "gcp":
        return select_gcp(gallery, model, n=n)
    return run_selector(gallery, replace(cfg.selector, n_prototypes=n))


def _regen_class(
    cfg: ExperimentConfig,
    gallery: EmbeddingSet,
    model: GcpModel | None,
    class_id: int,
    camera: int,
    n: int,
) -> tuple[np.ndarray, bool]:
    """Rebuild one class's prototypes with one camera excluded.

    Returns (prototype rows, fell_back).  Falls back to the unfiltered class
    when every record of the class comes from that camera.
    """
    kept = [i for i in gallery.class_index[class_id] if gallery.records[i].camera_id != camera]
    fell_back = not kept
    if cfg.selector.method == "gcp":
        excluded = None if fell_back else camera
        memory = build_memory(gallery, model, class_id, excluded_camera=excluded)
        n_c = min(n, memory.tokens.shape[0])
        return np.vstack(generate_prototypes(model, memory, n_c)), fell_back
    points = gallery.class_matrix(class_id) if fell_back else gallery.features[kept]
    protos, _ = class_prototypes(points, class_id, replace(cfg.selector, n_prototypes=n))
    return protos, fell_back


def build_protocol_prototypes(
    cfg: ExperimentConfig,
    gallery: EmbeddingSet,
    queries: EmbeddingSet,
    model: GcpModel | None,
    n: int,
):
    """Prototypes per the configured protocol.

    Returns (base PrototypeSet, prototypes argument for evaluate, list of
    camera-filter group descriptors).  Under the plain protocol the second
    element is the base set itself; under camera-filter it maps each query
    id to a set whose own class was rebuilt without the query's camera.
    Per-(class, camera) results are cached and shared between queries.
    """
    base = _select_base(cfg, gallery, model, n)
    if cfg.protocol == "plain":
        return base, base, []
    group_psets: dict[tuple[int, int], PrototypeSet] = {}
    group_info: list[dict] = []
    mapping: dict[str, PrototypeSet] = {}
    class_index = gallery.class_index
    for rec in queries.records:
        key = (rec.class_id, rec.camera_id)
        if key not in group_psets:
            if rec.class_id not in class_index:
                # no gallery evidence at all; evaluation will flag the query
                group_psets[key] = base
                group_info.append(
                    {"class": key[0], "camera": key[1], "fallback": False, "absent": True}
                )
            else:
                protos, fell_back = _regen_class(
                    cfg, gallery, model, rec.class_id, rec.camera_id, n
                )
                group_psets[key] = base.replace_class(rec.class_id, protos)
                group_info.append(
                    {"class": key[0], "camera": key[1], "fallback": fell_back}
                )
        mapping[rec.id] = group_psets[key]
    return base, mapping, group_info


@dataclass
class ExperimentResult:
    report: EvalReport
    prototypes: PrototypeSet
    model: GcpModel | None = None
    camera_groups: list[dict] = field(default_factory=list)
    artifacts: dict[str, str] = field(default_factory=dict)


def _gallery_sizes(gallery: EmbeddingSet) -> dict[int, int]:
    return {c: gallery.class_size(c) for c in gallery.class_ids}


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> ExperimentResult:
    """Select, rank, evaluate, and (optionally) write artifacts."""
    gallery, queries = resolve_data(cfg)
    model = None
    trained_here = False
    if cfg.selector.method == "gcp":
        model, trained_here = obtain_model(cfg, gallery)
    base, proto_arg, groups = build_protocol_prototypes(
        cfg, gallery, queries, model, cfg.selector.n_prototypes
    )
    echo = cfg.to_json_dict()
    if groups:
        echo["camera_filter_groups"] = groups
    report = evaluate(
        queries,
        proto_arg,
        max_rank=cfg.max_rank,
        ap_mode=cfg.ap_mode,
        group_buckets=cfg.group_buckets,
        gallery_sizes=_gallery_sizes(gallery) if cfg.group_buckets else None,
        config_echo=echo,
        include_per_query_ap=cfg.per_query_ap,
    )
    result = ExperimentResult(
        report=report, prototypes=base, model=model, camera_groups=groups
    )
    target = out_dir if out_dir is not None else cfg.out_dir
    if target is not None:
        result.artifacts = _write_artifacts(result, cfg, Path(target), trained_here)
    return result


def _write_artifacts(
    result: ExperimentResult,
    cfg: ExperimentConfig,
    out: Path,
    trained_here: bool,
) -> dict[str, str]:
    out.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, str] = {}

    def write_text(name: str, text: str) -> None:
        path = out / name
        path.write_text(text, encoding="utf-8")
        artifacts[name] = str(path)

    write_text("report.json", report_to_json(result.report) + "\n")
    write_text("report.csv", report_to_csv(result.report))
    save_prototypes(result.prototypes, out / "prototypes.json")
    artifacts["prototypes.json"] = str(out / "prototypes.json")
    write_text(
        "resolved_config.json",
        json.dumps(cfg.to_json_dict(), sort_keys=True, indent=2) + "\n",
    )
    if result.camera_groups:
        write_text(
            "camera_filter_groups.json",
            json.dumps(result.camera_groups, sort_keys=True, indent=2) + "\n",
        )
    if result.model is not None and trained_here:
        save_model(result.model, out / "model.gcpm")
        artifacts["model.gcpm"] = str(out / "model.gcpm")
    return artifacts


# -- sweeps and grouped evaluation --------------------------------------


def _eval_once(
    cfg: ExperimentConfig,
    gallery: EmbeddingSet,
    queries: EmbeddingSet,
    model: GcpModel | None,
    n: int,
) -> EvalReport:
    _, proto_arg, _ = build_protocol_prototypes(cfg, gallery, queries, model, n)
    return evaluate(
        queries, proto_arg, max_rank=cfg.max_rank, ap_mode=cfg.ap_mode
    )


def _n_values(values: Sequence) -> list[int]:
    if not values:
        raise ConfigError("sweep-n needs a non-empty list of N values")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 1:
            raise ConfigError(f"sweep-n values must be positive integers, got {v!r}")
    return [int(v) for v in values]


def _sweep_values(cfg: ExperimentConfig, axis: str, given: Sequence | None) -> Sequence:
    """The values passed in, else the config's sweep values for ``axis``."""
    if given is None and cfg.sweep_axis != axis:
        raise ConfigError(f"sweep-{axis} needs values, or a config sweep with axis {axis!r}")
    return cfg.sweep_values if given is None else given


def sweep_n(
    cfg: ExperimentConfig, n_list: Sequence[int] | None = None, out_dir=None
) -> list[dict]:
    """Evaluate the configured pipeline at each prototype count.

    With the gcp selector one model serves every sweep point: prototype
    generation is autoregressive with an exact prefix property, so the
    first k of a longer generation equal a length-k generation bit for
    bit, and the sweep varies only how many prototypes are generated.
    Non-learned selectors rerun selection at each N.
    """
    values = _n_values(_sweep_values(cfg, "n", n_list))
    gallery, queries = resolve_data(cfg)
    model = None
    if cfg.selector.method == "gcp":
        model, _ = obtain_model(cfg, gallery)
    rows = []
    for n in values:
        report = _eval_once(cfg, gallery, queries, model, n)
        rows.append({"n": n, "top1": report.top1, "map": report.map})
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["n,top1,map"]
        lines += [f"{r['n']},{r['top1']!r},{r['map']!r}" for r in rows]
        (out / "sweep_n.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rows


def sweep_alpha(
    cfg: ExperimentConfig, alpha_list: Sequence[float] | None = None, out_dir=None
) -> list[dict]:
    """Evaluate the interpolated farthest-point selector at each alpha."""
    values = [float(v) for v in _sweep_values(cfg, "alpha", alpha_list)]
    if not values:
        raise ConfigError("sweep-alpha needs a non-empty list of alpha values")
    if cfg.selector.method != "alphafps":
        raise ConfigError("sweep-alpha requires selector method 'alphafps'")
    gallery, queries = resolve_data(cfg)
    rows = []
    for alpha in values:
        acfg = replace(cfg, selector=replace(cfg.selector, alpha=alpha))
        report = _eval_once(acfg, gallery, queries, None, cfg.selector.n_prototypes)
        rows.append({"alpha": alpha, "top1": report.top1, "map": report.map})
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["alpha,top1,map"]
        lines += [f"{r['alpha']!r},{r['top1']!r},{r['map']!r}" for r in rows]
        (out / "sweep_alpha.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rows


def group_evaluate(
    cfg: ExperimentConfig, buckets: Sequence[str] | None = None, out_dir=None
) -> list[dict]:
    """Per-bucket mAP keyed on the query class's gallery size.

    Buckets must partition the positive integers; empty buckets produce a
    row with count 0 and no mAP value.
    """
    labels = list(buckets) if buckets is not None else cfg.group_buckets
    if not labels:
        raise ConfigError("group-eval needs bucket labels")
    parse_buckets(labels)
    gallery, queries = resolve_data(cfg)
    model = None
    if cfg.selector.method == "gcp":
        model, _ = obtain_model(cfg, gallery)
    _, proto_arg, _ = build_protocol_prototypes(
        cfg, gallery, queries, model, cfg.selector.n_prototypes
    )
    report = evaluate(
        queries,
        proto_arg,
        max_rank=cfg.max_rank,
        ap_mode=cfg.ap_mode,
        group_buckets=labels,
        gallery_sizes=_gallery_sizes(gallery),
    )
    rows = [
        {
            "bucket": label,
            "count": report.per_group[label]["count"],
            "map": report.per_group[label]["map"],
        }
        for label in labels
    ]
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["bucket,count,map"]
        for r in rows:
            map_txt = "" if r["map"] is None else repr(r["map"])
            lines.append(f"{r['bucket']},{r['count']},{map_txt}")
        (out / "group_eval.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rows

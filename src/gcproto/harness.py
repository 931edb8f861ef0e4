"""Experiment orchestration: configs, end-to-end pipelines, sweeps, artifacts.

A run is described by one JSON document (versioned, schema below), resolved
into an ``ExperimentConfig``.  Pipelines share the same building blocks:
resolve data (file, synthetic spec, or named preset), build prototypes with
the configured selector, evaluate, and write artifacts (report JSON/CSV,
prototype sets, checkpoints, resolved config).  Every float a written
artifact holds is the in-memory value bit for bit: ``json.loads`` of
``report.json`` equals ``asdict(report)``, each entry of
``prototypes.json``'s ``"classes"`` equals its class's prototype rows, and
the config and checkpoint reload through their readers to equal values.

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
takes the dataclass default, and unknown keys are an error.  Lists are
JSON lists: ``"values": [1, 2, 3, 6]``.
``ExperimentConfig.to_json_dict`` writes this layout, and the
``resolved_config.json`` it writes is itself a valid config.

A sweep sets one ``SelectorConfig`` field per value: axis ``"n"`` sets
``n_prototypes``, axis ``"alpha"`` sets ``alpha``.  Each value is checked at
load by building the selector config it sets; that an alpha sweep needs
selector ``alphafps`` is checked when :func:`sweep` runs.  :func:`sweep`
and :func:`group_evaluate` read their settings from the config alone; like
:func:`run_experiment`, an ``out_dir`` argument (keyword-only for them)
replaces ``cfg.out_dir``.

Under the camera-filter protocol the query class's prototypes are rebuilt
once per distinct (class, camera) query group, in order of first
appearance; other classes keep their full-gallery prototypes.  A rebuild
starts from the class's gallery rows without the query's camera, or from
all of them when every row comes from that camera (the group is then
flagged as a fallback); a camera the class lacks excludes nothing.  Both
selector families build from those same rows: ``selectors.class_prototypes``
on their features, or ``generate_prototypes`` on their ``build_memory``.
Each group's set is ``base.replace_class``: it overlays the rebuilt class
on the base's class mapping and validates and copies only the rebuilt rows,
and the evaluator ranks the group's queries, the only ones it takes for
that set, against the base's packed matrix with those rows in place of the
base's rows of the class.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field, replace
from pathlib import Path

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
    check_max_rank,
    evaluate,
    parse_buckets,
    report_to_csv,
    report_to_json,
)
from .schema import check_field_types, csv_text, to_json, write_json
from .selectors import SelectorConfig, class_prototypes, run_selector
from .store import EmbeddingSet, PrototypeSet, align_labels, load_embedding_set
from .synthetic import PRESETS, SyntheticSpec, generate_synthetic, preset_spec

PROTOCOL_CHOICES = ("plain", "camera-filter")


@dataclass
class ExperimentConfig:
    JSON_VERSION = 1

    selector: SelectorConfig
    data_path: str | None = field(default=None, metadata={"json": "data.path"})
    queries_path: str | None = field(default=None, metadata={"json": "queries.path"})
    synthetic: SyntheticSpec | None = field(default=None, metadata={"json": "data.synthetic"})
    preset: str | None = field(
        default=None, metadata={"json": "data.preset", "choices": tuple(PRESETS)}
    )
    gcp: GcpConfig | None = None
    checkpoint: str | None = None
    protocol: str = field(default="plain", metadata={"choices": PROTOCOL_CHOICES})
    sweep_axis: str | None = field(default=None, metadata={"json": "sweep.axis"})
    sweep_values: list[int | float] | None = field(default=None, metadata={"json": "sweep.values"})
    group_buckets: list[str] | None = None
    max_rank: int = DEFAULT_MAX_RANK
    ap_mode: str = field(default="per_prototype", metadata={"choices": AP_MODES})
    per_query_ap: bool = False
    out_dir: str | None = None
    seed: int = field(default=0, metadata={"ge": 0})

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
            raise ConfigError("a file data source (data_path) needs a queries file (queries_path)")
        if self.sweep_axis is not None or self.sweep_values is not None:
            _selectors_at(self.selector, self.sweep_axis, self.sweep_values)
        if self.group_buckets is not None:
            parse_buckets(self.group_buckets)
        check_max_rank(self.max_rank)
        if self.selector.method == "gcp" and self.gcp is None and self.checkpoint is None:
            raise ConfigError(
                "selector 'gcp' needs a gcp training config or a checkpoint"
            )

    def to_json_dict(self) -> dict:
        return to_json(self)


# -- prototype file IO ---------------------------------------------------

PROTO_FORMAT = "gcproto-prototypes"
PROTO_VERSION = 1


def save_prototypes(pset: PrototypeSet, path) -> None:
    """Write ``pset`` as JSON, each class's rows under its id as a list of
    lists of floats; raises before writing when a class has no rows, whose
    empty list would lose the rows' width."""
    empty = [c for c in pset.class_ids if not len(pset.per_class[c])]
    if empty:
        raise DataFormatError(f"class {empty[0]} has no prototypes; cannot write it")
    data = {
        "format": PROTO_FORMAT,
        "version": PROTO_VERSION,
        "selector": pset.selector_tag,
        "params_echo": pset.params_echo,
        "classes": {str(c): pset.per_class[c].tolist() for c in pset.class_ids},
    }
    write_json(path, data)


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


def select_prototypes(
    selector: SelectorConfig, gallery: EmbeddingSet, model: GcpModel | None
) -> PrototypeSet:
    """``gallery``'s prototype set under ``selector``; ``model`` serves the
    gcp method and is ignored by the others."""
    if selector.method == "gcp":
        return select_gcp(gallery, model, n=selector.n_prototypes)
    return run_selector(gallery, selector)


def _regen_class(
    selector: SelectorConfig,
    gallery: EmbeddingSet,
    model: GcpModel | None,
    class_id: int,
    camera: int,
) -> tuple[np.ndarray, bool]:
    """Rebuild one class's prototypes from its gallery rows off ``camera``.

    Returns (prototype rows, fell_back).  Falls back to all of the class's
    rows when every one of them comes from that camera.
    """
    rows = np.array(gallery.class_index[class_id])
    kept = rows[gallery.row_cameras[rows] != camera]
    fell_back = not len(kept)
    rows = rows if fell_back else kept
    if selector.method == "gcp":
        memory = build_memory(gallery, model, rows)
        return generate_prototypes(model, memory, min(selector.n_prototypes, len(rows))), fell_back
    protos, _ = class_prototypes(gallery.features[rows], class_id, selector)
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
    Each (class, camera) group is built once, in order of first appearance,
    and its set is shared by the group's queries.  The selector config for
    ``n`` is built once and serves every group.
    """
    selector = replace(cfg.selector, n_prototypes=n)
    base = select_prototypes(selector, gallery, model)
    if cfg.protocol == "plain":
        return base, base, []
    keys = list(zip(queries.row_classes.tolist(), queries.row_cameras.tolist()))
    group_psets: dict[tuple[int, int], PrototypeSet] = {}
    group_info: list[dict] = []
    class_index = gallery.class_index
    for class_id, camera in dict.fromkeys(keys):
        info = {"class": class_id, "camera": camera, "fallback": False}
        if class_id not in class_index:
            # no gallery evidence at all; evaluation will flag the query
            group_psets[class_id, camera] = base
            info["absent"] = True
        else:
            protos, info["fallback"] = _regen_class(selector, gallery, model, class_id, camera)
            group_psets[class_id, camera] = base.replace_class(class_id, protos)
        group_info.append(info)
    mapping = {query_id: group_psets[key] for query_id, key in zip(queries.ids, keys)}
    return base, mapping, group_info


@dataclass
class ExperimentResult:
    report: EvalReport
    prototypes: PrototypeSet
    model: GcpModel | None = None
    camera_groups: list[dict] = field(default_factory=list)
    artifacts: dict[str, str] = field(default_factory=dict)


def _prepare(cfg: ExperimentConfig):
    """(gallery, queries, model or None, trained_here) for ``cfg``."""
    gallery, queries = resolve_data(cfg)
    model = obtain_model(cfg, gallery) if cfg.selector.method == "gcp" else (None, False)
    return gallery, queries, *model


def _evaluate(
    cfg: ExperimentConfig, gallery: EmbeddingSet, queries: EmbeddingSet, model: GcpModel | None
) -> ExperimentResult:
    """Build the protocol's prototypes and evaluate the queries against them."""
    base, proto_arg, groups = build_protocol_prototypes(
        cfg, gallery, queries, model, cfg.selector.n_prototypes
    )
    sizes = {c: gallery.class_size(c) for c in gallery.class_ids} if cfg.group_buckets else None
    echo = cfg.to_json_dict()
    if groups:
        echo["camera_filter_groups"] = groups
    report = evaluate(
        queries,
        proto_arg,
        max_rank=cfg.max_rank,
        ap_mode=cfg.ap_mode,
        group_buckets=cfg.group_buckets,
        gallery_sizes=sizes,
        config_echo=echo,
        include_per_query_ap=cfg.per_query_ap,
    )
    return ExperimentResult(report=report, prototypes=base, model=model, camera_groups=groups)


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> ExperimentResult:
    """Select, rank, evaluate, and (optionally) write artifacts."""
    gallery, queries, model, trained_here = _prepare(cfg)
    result = _evaluate(cfg, gallery, queries, model)
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

    def written(name: str) -> Path:
        artifacts[name] = str(out / name)
        return out / name

    written("report.json").write_text(report_to_json(result.report), encoding="utf-8")
    written("report.csv").write_text(report_to_csv(result.report), encoding="utf-8")
    save_prototypes(result.prototypes, written("prototypes.json"))
    write_json(written("resolved_config.json"), cfg.to_json_dict())
    if result.camera_groups:
        write_json(written("camera_filter_groups.json"), result.camera_groups)
    if result.model is not None and trained_here:
        save_model(result.model, written("model.gcpm"))
    return artifacts


# -- sweeps and grouped evaluation --------------------------------------

# The SelectorConfig field that each sweep axis sets.
SWEEP_FIELDS = {"n": "n_prototypes", "alpha": "alpha"}


def _selectors_at(selector: SelectorConfig, axis: str, values) -> list[SelectorConfig]:
    """``selector`` with the axis's field set to each value, cast to the
    field's type (alpha 0 is 0.0); a value the field refuses is a ConfigError."""
    if axis not in SWEEP_FIELDS:
        raise ConfigError(f"sweep axis must be 'n' or 'alpha', got {axis!r}")
    if not values:
        raise ConfigError(f"sweep axis {axis!r} needs a non-empty list of values")
    name = SWEEP_FIELDS[axis]
    cast = typing.get_type_hints(SelectorConfig)[name]
    try:  # check each value as given, then store it cast
        return [replace(replace(selector, **{name: v}), **{name: cast(v)}) for v in values]
    except ConfigError as exc:
        raise ConfigError(f"sweep {axis} values {list(values)!r}: {exc}") from None


def sweep(cfg: ExperimentConfig, *, out_dir=None) -> list[dict]:
    """Evaluate the configured pipeline at each value of the config's sweep.

    The axis ``cfg.sweep_axis`` is ``"n"`` (prototypes per class) or
    ``"alpha"`` (alphafps only); ``cfg.sweep_values`` are its values.
    Data and, with the gcp selector, the model are made once.  One model
    serves every N: generation is autoregressive with an exact prefix
    property, so the first k of a longer generation equal a length-k
    generation bit for bit.  Non-learned selectors rerun selection at each
    value.  Writes ``sweep_<axis>.csv`` under ``out_dir``, or else under
    ``cfg.out_dir``.
    """
    axis = cfg.sweep_axis
    selectors = _selectors_at(cfg.selector, axis, cfg.sweep_values)
    if axis == "alpha" and cfg.selector.method != "alphafps":
        raise ConfigError("sweep-alpha requires selector method 'alphafps'")
    gallery, queries, model, _ = _prepare(cfg)
    rows = []
    for sel in selectors:
        report = _evaluate(replace(cfg, selector=sel), gallery, queries, model).report
        value = getattr(sel, SWEEP_FIELDS[axis])
        rows.append({axis: value, "top1": report.top1, "map": report.map})
    _write_csv(cfg, out_dir, f"sweep_{axis}.csv", rows)
    return rows


def group_evaluate(cfg: ExperimentConfig, *, out_dir=None) -> list[dict]:
    """Per-bucket mAP keyed on the query class's gallery size, one row per
    label of ``cfg.group_buckets``.

    Buckets must partition the positive integers; empty buckets produce a
    row with count 0 and no mAP value.  Writes ``group_eval.csv`` under
    ``out_dir``, or else under ``cfg.out_dir``.
    """
    if not cfg.group_buckets:
        raise ConfigError("group-eval needs bucket labels")
    gallery, queries, model, _ = _prepare(cfg)
    per_group = _evaluate(cfg, gallery, queries, model).report.per_group
    rows = [
        {"bucket": b, "count": per_group[b]["count"], "map": per_group[b]["map"]}
        for b in cfg.group_buckets
    ]
    _write_csv(cfg, out_dir, "group_eval.csv", rows)
    return rows


def _write_csv(cfg: ExperimentConfig, out_dir, name: str, rows: list[dict]) -> None:
    """Write ``rows`` to ``name`` under ``out_dir``, or else ``cfg.out_dir``;
    with neither set, write nothing."""
    target = out_dir if out_dir is not None else cfg.out_dir
    if target is None:
        return
    out = Path(target)
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(csv_text(rows), encoding="utf-8")

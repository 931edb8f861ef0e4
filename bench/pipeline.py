"""Workloads, one pipeline iteration, and the correctness gate.

Each workload mirrors ``gcproto.harness.run_experiment`` without writing
artifacts: ``harness.resolve_data`` once (set-up), ``harness.obtain_model``
for the learned generator, then per iteration
``harness.build_protocol_prototypes`` and ``retrieval.evaluate``.  Every
call is looked up on its module at call time, so the tracer's wrappers
(``spans.py``) see it when they are installed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gcproto import harness, retrieval
from gcproto.harness import ExperimentConfig
from gcproto.model import GcpConfig
from gcproto.retrieval import EvalReport
from gcproto.selectors import SelectorConfig
from gcproto.store import EmbeddingSet, PrototypeSet
from gcproto.synthetic import SyntheticSpec

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 0
# Queries re-ranked by brute force after every iteration, evenly spaced:
# every 20th of the 500 queries at 250 classes.
GATE_QUERIES = 25
# Prototype checksums may drift by reordered sums (up to 1e-12 per
# element); a corrupted row moves the checksum by far more.
CHECKSUM_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    method: str
    protocol: str
    n_classes: int = 250
    instances_per_class: int = 20

    def config(self, seed: int) -> ExperimentConfig:
        spec = SyntheticSpec(
            n_classes=self.n_classes,
            instances_per_class=self.instances_per_class,
            dim=self.dim,
            n_cameras=4,
            # far below the generator's default of 10, which makes every
            # workload score a trivial mAP of 1.0
            class_center_scale=0.5,
            within_class_noise=1.0,
            camera_offset_scale=0.5,
            queries_per_class=2,
            seed=seed,
        )
        gcp = None
        if self.method == "gcp":
            gcp = GcpConfig(dim=self.dim, epochs=1, seed=seed)
        selector = SelectorConfig(method=self.method, n_prototypes=3, alpha=0.5, seed=seed)
        return ExperimentConfig(
            selector=selector, synthetic=spec, gcp=gcp, protocol=self.protocol, seed=seed
        )


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("eval-5k", dim=512, method="instance", protocol="plain"),
        Workload("camfilter-5k", dim=512, method="alphafps", protocol="camera-filter"),
        Workload("gcp-64", dim=32, method="gcp", protocol="camera-filter", n_classes=64),
    )
}


@dataclass
class Iteration:
    report: EvalReport
    base: PrototypeSet
    proto_arg: PrototypeSet | dict[str, PrototypeSet]
    groups: list[dict]


def run_iteration(cfg: ExperimentConfig, gallery, queries, model) -> Iteration:
    """Select, apply the protocol, and evaluate, as ``run_experiment`` does.

    Per-query AP is kept in the report for the correctness gate.
    """
    base, proto_arg, groups = harness.build_protocol_prototypes(
        cfg, gallery, queries, model, cfg.selector.n_prototypes
    )
    echo = cfg.to_json_dict()
    if groups:
        echo["camera_filter_groups"] = groups
    report = retrieval.evaluate(
        queries,
        proto_arg,
        max_rank=cfg.max_rank,
        ap_mode=cfg.ap_mode,
        config_echo=echo,
        include_per_query_ap=True,
    )
    return Iteration(report, base, proto_arg, groups)


# -- correctness gate ----------------------------------------------------


def _pset_for(it: Iteration, query_id: str) -> PrototypeSet:
    if isinstance(it.proto_arg, PrototypeSet):
        return it.proto_arg
    return it.proto_arg[query_id]


def prototype_checksum(it: Iteration, queries: EmbeddingSet) -> float:
    """L1 mass of the base prototypes plus every camera-filter group's
    regenerated own-class rows, summed in a fixed order."""
    total = 0.0
    for c in sorted(it.base.per_class):
        total += float(np.abs(it.base.per_class[c]).sum())
    seen = set()
    for rec in queries.records:
        key = (rec.class_id, rec.camera_id)
        if isinstance(it.proto_arg, PrototypeSet) or key in seen:
            continue
        seen.add(key)
        rows = it.proto_arg[rec.id].per_class.get(rec.class_id)
        if rows is not None:
            total += float(np.abs(rows).sum())
    return total


def fingerprint(it: Iteration, queries: EmbeddingSet) -> dict:
    """The outputs that must repeat across iterations and match the
    committed reference at the reference seed."""
    return {
        "map": it.report.map,
        "top1": it.report.top1,
        "cmc": list(it.report.cmc),
        "groups": len(it.groups),
        "checksum": prototype_checksum(it, queries),
    }


def gate_indices(n_queries: int) -> list[int]:
    step = max(1, n_queries // GATE_QUERIES)
    return list(range(0, n_queries, step))[:GATE_QUERIES]


def _flatten(pset: PrototypeSet):
    # written out here rather than calling PrototypeSet.flattened, so the
    # gate shares no ranking code with the evaluator
    ids = sorted(pset.per_class)
    mat = np.vstack([pset.per_class[c] for c in ids])
    cls = np.concatenate([np.full(len(pset.per_class[c]), c) for c in ids])
    idx = np.concatenate([np.arange(len(pset.per_class[c])) for c in ids])
    return mat, cls, idx


def brute_force(rec, flat) -> tuple[float, int]:
    """(AP over every own-class prototype, first own-class rank) with
    ``np.linalg.norm`` distances and ties broken by (class, prototype index)."""
    mat, cls, idx = flat
    dists = np.linalg.norm(mat - rec.vector, axis=1)
    order = np.lexsort((idx, cls, dists))
    ranks = np.nonzero(cls[order] == rec.class_id)[0] + 1
    if len(ranks) == 0:
        return 0.0, 0
    total = 0.0
    for i, r in enumerate(ranks, start=1):
        total += i / int(r)
    return total / len(ranks), int(ranks[0])


def check_iteration(
    it: Iteration,
    queries: EmbeddingSet,
    first: dict | None,
    reference: dict | None,
) -> tuple[list[str], dict]:
    """(failures, fingerprint) of one iteration; no failures when its
    outputs are correct.

    ``first`` is the run's first fingerprint (None for the first iteration
    itself); ``reference`` the committed one, or None off the reference seed.
    """
    failures = []
    report = it.report
    ap_of = dict(report.per_query_ap)
    total = 0.0
    for ap in ap_of.values():
        total += ap
    if total / len(ap_of) != report.map:
        failures.append("mAP is not the mean of the per-query AP")
    if report.top1 != report.cmc[0]:
        failures.append("top1 differs from CMC rank 1")

    picked = [queries.records[i] for i in gate_indices(len(queries.records))]
    # the evaluator's first hit: AP in per-identity mode is 1 / first hit
    first_hit_report = retrieval.evaluate(
        EmbeddingSet(picked),
        {rec.id: _pset_for(it, rec.id) for rec in picked},
        max_rank=1,
        ap_mode="per_identity",
        include_per_query_ap=True,
    )
    first_hit_of = {
        qid: (round(1.0 / ap) if ap > 0 else 0)
        for qid, ap in first_hit_report.per_query_ap
    }
    pset = flat = None
    for rec in picked:
        if _pset_for(it, rec.id) is not pset:
            flat = None  # drop the previous copy first: one is held at a time
            pset = _pset_for(it, rec.id)
            flat = _flatten(pset)
        ap, hit = brute_force(rec, flat)
        if ap != ap_of[rec.id]:
            failures.append(f"query {rec.id}: AP {ap_of[rec.id]!r}, brute force {ap!r}")
        if hit != first_hit_of[rec.id]:
            failures.append(
                f"query {rec.id}: first hit {first_hit_of[rec.id]}, brute force {hit}"
            )

    got = fingerprint(it, queries)
    for label, want in (("first iteration", first), ("reference", reference)):
        if want is not None:
            failures += [f"{f} differs from the {label}" for f in _diff(got, want)]
    return failures, got


def _diff(got: dict, want: dict) -> list[str]:
    out = [k for k in ("map", "top1", "cmc", "groups") if got[k] != want[k]]
    if abs(got["checksum"] - want["checksum"]) > CHECKSUM_RTOL * abs(want["checksum"]):
        out.append("prototype checksum")
    return out


def load_reference(workload: Workload, seed: int) -> dict | None:
    """The committed fingerprint, when the run is at the reference seed."""
    if seed != REFERENCE_SEED:
        return None
    data = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return data["workloads"].get(workload.name)

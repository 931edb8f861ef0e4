"""Acceptance gates for the whole package.

Each test prints one ``[criterion NN] name: PASS/FAIL (...)`` line (visible
under ``pytest -s``) and enforces its runtime budget.  The gates cover:
hand-constructed two-class layouts with exact precision values, the
interpolated farthest-point hand trace, exact agreement of the evaluator
with brute-force re-derivations, maximin optimality of farthest-point
prefixes, finite-difference gradient agreement through the full decoder,
decoder permutation/prefix invariants, the prototype-count tradeoff and
baseline ordering on the shipped synthetic preset, the anti-collapse
effect of the diversity term, and a selection + evaluation throughput
floor.  A last test pins the artifacts of every selector under both
protocols: the non-learned ones on the shipped preset, the learned
generator (checkpoint included) on a small synthetic set."""

import hashlib
import time

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

from gcproto.harness import ExperimentConfig, run_experiment, sweep
from gcproto.model import (
    ClassBatch,
    GcpConfig,
    GcpModel,
    Memory,
    generate_prototypes,
    init_params,
    loss_and_grads,
    mine_negative_distances,
    select_gcp,
    train,
)
from gcproto.retrieval import evaluate
from gcproto.seeding import substream
from gcproto.selectors import (
    SelectorConfig,
    alpha_fps_points,
    maximin_selection,
    run_selector,
)
from gcproto.store import PrototypeSet, build_set
from gcproto.synthetic import (
    SyntheticSpec,
    generate_synthetic,
    tradeoff_spec,
    tradeoff_training,
)

from ranking_oracle import rank_query


def _finish(num, name, ok, detail, elapsed, budget=None):
    within = budget is None or elapsed < budget
    status = "PASS" if (ok and within) else "FAIL"
    suffix = f"; {elapsed:.2f}s" + (f" of {budget:.0f}s budget" if budget else "")
    line = f"[criterion {num:02d}] {name}: {status} ({detail}{suffix})"
    print(line)
    assert ok and within, line


# Two collinear classes, query between them.  Distances from the query at
# (0.2, 0): own class 0.8/1.8/2.8/3.8/4.8, rival 1.2/2.2/3.2/4.2/5.2, so
# the five nearest gallery vectors are 3 own + 2 rival.  Class means sit at
# (3, 0) and (-3, 0): the own mean is nearer (2.8 < 3.2).
SPREAD_OWN = [[float(x), 0.0] for x in (1, 2, 3, 4, 5)]
SPREAD_RIVAL = [[float(-x), 0.0] for x in (1, 2, 3, 4, 5)]
SPREAD_QUERY = [0.2, 0.0]

# Rival mass leaning into the gap: six points hugging the boundary plus one
# far straggler pull the rival mean to (-15.3/7, 0) ~ (-2.186, 0), which
# beats the own mean at (2, 0) for the query at (-0.4, 0) (1.786 < 2.4).
# With two prototypes per class (mean + one interpolated far pick at
# alpha = 0.25) the own class gains (0.5, 0), distance 0.9, and wins again.
LEAN_OWN = [[float(x), 0.0] for x in (0, 1, 2, 3, 4)]
LEAN_RIVAL = [
    [-1.5, 0.8], [-1.5, -0.8], [-1.6, 0.4], [-1.6, -0.4],
    [-1.7, 0.0], [-1.4, 0.0], [-6.0, 0.0],
]
LEAN_QUERY = [-0.4, 0.0]


def _precision_at(query_vec, pset, k, own_class):
    record = build_set(np.array([query_vec]), [own_class], [0], id_prefix="q").records[0]
    entries = rank_query(record, pset).entries[:k]
    return sum(1 for cls, _, _ in entries if cls == own_class) / k


def test_criterion_01_two_class_layout_goldens():
    t0 = time.perf_counter()
    spread = build_set(
        np.array(SPREAD_OWN + SPREAD_RIVAL), [0] * 5 + [1] * 5, [0] * 10
    )
    centroid = SelectorConfig(method="centroid")
    p5 = _precision_at(SPREAD_QUERY, run_selector(spread, SelectorConfig(method="instance")), 5, 0)
    p1 = _precision_at(SPREAD_QUERY, run_selector(spread, centroid), 1, 0)

    lean = build_set(
        np.array(LEAN_OWN + LEAN_RIVAL), [0] * 5 + [1] * 7, [0] * 12
    )
    p1_mean = _precision_at(LEAN_QUERY, run_selector(lean, centroid), 1, 0)
    two_proto = run_selector(
        lean, SelectorConfig(method="alphafps", n_prototypes=1, alpha=0.25)
    )
    assert all(v == 2 for v in two_proto.counts_by_class().values())
    p1_two = _precision_at(LEAN_QUERY, two_proto, 1, 0)

    ok = p5 == 0.6 and p1 == 1.0 and p1_mean == 0.0 and p1_two == 1.0
    _finish(
        1, "two-class layout goldens", ok,
        f"instance P@5={p5}, mean P@1={p1}; leaning layout: mean P@1={p1_mean}, "
        f"two-prototype P@1={p1_two}",
        time.perf_counter() - t0, budget=1.0,
    )


def test_criterion_02_interpolated_fps_hand_trace():
    t0 = time.perf_counter()
    pts = np.array([[0.0], [1.0], [10.0]])
    got = alpha_fps_points(pts, 2, 0.25).ravel()
    want = np.array([11.0 / 3.0, 101.0 / 12.0, 11.0 / 12.0])
    trace_ok = bool(np.all(np.abs(got - want) <= 1e-4))
    raw = alpha_fps_points(pts, 2, 0.0).ravel()
    raw_ok = np.array_equal(raw, [11.0 / 3.0, 10.0, 0.0])
    dup = alpha_fps_points(pts, 2, 1.0).ravel()
    dup_ok = np.array_equal(dup, [11.0 / 3.0] * 3)
    _finish(
        2, "interpolated farthest-point hand trace", trace_ok and raw_ok and dup_ok,
        f"alpha=0.25 -> {np.round(got, 4).tolist()}, alpha=0 raw points {raw_ok}, "
        f"alpha=1 duplicates {dup_ok}",
        time.perf_counter() - t0,
    )


def _brute_force_report(queries, pset, max_rank):
    """Plain-Python evaluation: rank every prototype by distance (ties by
    class then prototype index), AP over all relevant ranks, CMC from the
    first relevant rank.  Mirrors the documented scoring contract without
    sharing any code with the evaluator."""
    flat = []
    for c in sorted(pset.per_class):
        for j, row in enumerate(pset.per_class[c]):
            flat.append((c, j, row))
    aps, first_hits = [], []
    for rec in queries.records:
        scored = sorted(
            ((float(np.linalg.norm(rec.vector - row)), c, j) for c, j, row in flat),
        )
        ranks = [i + 1 for i, (_, c, _) in enumerate(scored) if c == rec.class_id]
        total = 0.0
        for i, r in enumerate(ranks, start=1):
            total += i / r
        aps.append(total / len(ranks))
        first_hits.append(ranks[0])
    total = 0.0
    for ap in aps:
        total += ap
    mean_ap = total / len(aps)
    cmc = [
        sum(1 for r in first_hits if r <= k) / len(first_hits)
        for k in range(1, max_rank + 1)
    ]
    return mean_ap, cmc


def test_criterion_03_evaluator_matches_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    trials = 0
    nn_checked = 0
    for _ in range(100):
        n_classes = int(rng.integers(2, 11))
        dim = int(rng.integers(2, 9))
        sizes = rng.integers(1, 1 + 64 // n_classes, size=n_classes)
        vecs, cls = [], []
        for c, s in enumerate(sizes):
            vecs.append(rng.normal(size=(s, dim)))
            cls += [c] * int(s)
        gallery = build_set(np.vstack(vecs), cls, [0] * len(cls))
        queries = build_set(
            rng.normal(size=(5, dim)), rng.integers(n_classes, size=5), [0] * 5,
            id_prefix="q",
        )
        pset = PrototypeSet(
            per_class={
                c: rng.normal(size=(int(rng.integers(1, 9)), dim))
                for c in range(n_classes)
            },
            selector_tag="instance",  # tag is irrelevant to the scoring math
            params_echo={},
        )
        max_rank = int(rng.integers(1, 12))
        report = evaluate(queries, pset, max_rank=max_rank)
        want_map, want_cmc = _brute_force_report(queries, pset, max_rank)
        assert report.map == want_map
        assert report.cmc == want_cmc
        trials += 1

        # instance prototypes must reproduce the nearest-neighbor ranking
        inst = run_selector(gallery, SelectorConfig(method="instance"))
        rec = queries.records[0]
        entries = rank_query(rec, inst).entries
        d = [float(np.linalg.norm(rec.vector - g.vector)) for g in gallery.records]
        order = sorted(
            range(len(d)),
            key=lambda i: (d[i], gallery.records[i].class_id),
        )
        got_pairs = [(c, round(dist, 12)) for c, _, dist in entries]
        want_pairs = [
            (gallery.records[i].class_id, round(d[i], 12)) for i in order
        ]
        assert got_pairs == want_pairs
        nn_checked += 1
    _finish(
        3, "evaluator matches brute force", trials == 100 and nn_checked == 100,
        f"{trials} random instances, exact mAP/CMC equality, "
        f"{nn_checked} nearest-neighbor ranking checks",
        time.perf_counter() - t0, budget=30.0,
    )


def test_criterion_04_farthest_point_prefixes_are_maximin():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    checked = 0
    for _ in range(100):
        pts = rng.normal(size=(int(rng.integers(4, 41)), int(rng.integers(2, 9))))
        start = int(rng.integers(len(pts)))
        chosen = maximin_selection(pts, min(8, len(pts)), start)
        for t in range(1, len(chosen)):
            md = cdist(pts, pts[chosen[:t]]).min(axis=1)
            assert md[chosen[t]] == md.max()
        checked += 1
    _finish(
        4, "farthest-point prefixes are maximin", checked == 100,
        f"{checked} random classes, every prefix verified by exhaustive scan",
        time.perf_counter() - t0, budget=10.0,
    )


def _gradcheck_batches(cfg, rng):
    feats = [rng.normal(0, 2, size=(6, cfg.dim)) for _ in range(3)]
    neg = mine_negative_distances(feats)
    return [
        ClassBatch(
            class_id=c,
            anchors=feats[c],
            negative_distances=neg[c],
            memory_features=feats[c][:5],
            memory_cameras=rng.integers(cfg.n_cameras, size=5),
            n_prototypes=cfg.n_prototypes,
        )
        for c in range(3)
    ]


def _kink_clearance(model, batches):
    cfg = model.config
    clearance = np.inf
    for cb in batches:
        tokens = cb.memory_features + model.params["camera_embeddings"][
            cb.memory_cameras
        ]
        mem = Memory(tokens=tokens, class_id=cb.class_id, source_record_ids=())
        P = np.vstack(generate_prototypes(model, mem, cb.n_prototypes))
        d = np.sort(cdist(cb.anchors, P), axis=1)
        if d.shape[1] > 1:
            clearance = min(clearance, float((d[:, 1] - d[:, 0]).min()))
        clearance = min(
            clearance,
            float(np.abs(d[:, 0] - cb.negative_distances + cfg.margin).min()),
        )
        if cb.n_prototypes >= 2:
            dpp = cdist(P, P)[~np.eye(len(P), dtype=bool)]
            clearance = min(clearance, float(np.abs(cfg.margin - dpp).min()))
    return clearance


def test_criterion_05_gradients_match_finite_differences():
    # full-size decoder (2 blocks, 4 heads, width 32), three random
    # parameter/input draws checked coordinate-by-coordinate on a sample of
    # every parameter tensor.  Draws near a hinge or nearest-prototype
    # boundary are skipped (the loss is piecewise smooth there and central
    # differences measure a slope average); the tolerance has an absolute
    # floor because softmax key biases have exactly-zero gradients.
    t0 = time.perf_counter()
    cfg = GcpConfig(dim=32, n_blocks=2, n_heads=4, ffn_dim=64, dropout_rate=0.0,
                    n_prototypes=3, n_cameras=4)
    eps = 1e-5
    draws = 0
    worst = 0.0
    for seed in range(40):
        model = GcpModel(config=cfg, params=init_params(cfg, substream(seed, "init")))
        batches = _gradcheck_batches(cfg, np.random.default_rng(7000 + seed))
        if _kink_clearance(model, batches) < 1e-2:
            continue
        _, grads = loss_and_grads(model.params, cfg, batches)
        pick = np.random.default_rng(seed)
        for name in sorted(model.params):
            flat = model.params[name].reshape(-1)
            for i in pick.choice(flat.size, size=min(2, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + eps
                up, _ = loss_and_grads(model.params, cfg, batches)
                flat[i] = orig - eps
                dn, _ = loss_and_grads(model.params, cfg, batches)
                flat[i] = orig
                fd = (up - dn) / (2 * eps)
                an = grads[name].reshape(-1)[i]
                denom = max(abs(fd), abs(an))
                assert abs(fd - an) <= 1e-7 + 1e-4 * denom, (
                    f"seed {seed} {name}[{i}]: fd={fd} analytic={an}"
                )
                if denom > 1e-3:
                    worst = max(worst, abs(fd - an) / denom)
        draws += 1
        if draws >= 5:
            break
    _finish(
        5, "gradients match finite differences", draws >= 5,
        f"{draws} clean draws, worst relative error {worst:.2e} (<= 1e-4)",
        time.perf_counter() - t0, budget=120.0,
    )


def test_criterion_06_decoder_permutation_and_prefix_invariants():
    t0 = time.perf_counter()
    cfg = GcpConfig(dim=16, n_blocks=2, n_heads=4, ffn_dim=32, dropout_rate=0.0,
                    n_prototypes=3, n_cameras=4)
    worst_drift = 0.0
    for seed in range(20):
        model = GcpModel(config=cfg, params=init_params(cfg, substream(seed, "init")))
        rng = np.random.default_rng(6000 + seed)
        feats = rng.normal(size=(7, cfg.dim))
        cams = rng.integers(cfg.n_cameras, size=7)
        tokens = feats + model.params["camera_embeddings"][cams]
        mem = Memory(tokens=tokens, class_id=0, source_record_ids=())
        perm = rng.permutation(7)
        shuffled = Memory(tokens=tokens[perm], class_id=0, source_record_ids=())
        a = np.vstack(generate_prototypes(model, mem, 4))
        b = np.vstack(generate_prototypes(model, shuffled, 4))
        worst_drift = max(worst_drift, float(np.abs(a - b).max()))
        assert np.abs(a - b).max() <= 1e-9
        short = np.vstack(generate_prototypes(model, mem, 2))
        np.testing.assert_array_equal(short, a[:2])
    _finish(
        6, "decoder permutation and prefix invariants", True,
        f"20 seeds, worst permutation drift {worst_drift:.2e} (<= 1e-9), "
        "prefixes bit-exact",
        time.perf_counter() - t0, budget=30.0,
    )


def test_criterion_07_prototype_count_tradeoff_direction():
    # more generated prototypes must trade mAP for rank-1 on the shipped
    # preset under the camera-filter protocol: one trained model, prototype
    # counts 1/2/3/6 via the exact prefix property
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        selector=SelectorConfig(method="gcp", n_prototypes=3, seed=0),
        preset="tradeoff", protocol="camera-filter",
        gcp=tradeoff_training(),
        sweep_axis="n", sweep_values=[1, 2, 3, 6],
    )
    rows = {r["n"]: r for r in sweep(cfg, "n")}
    r1_gain = rows[6]["top1"] - rows[1]["top1"]
    map_drop = rows[1]["map"] - rows[6]["map"]
    ok = r1_gain >= 0.0 and map_drop >= 0.0
    _finish(
        7, "prototype-count tradeoff direction", ok,
        f"R-1: {rows[1]['top1']:.4f} -> {rows[6]['top1']:.4f} (gain {r1_gain:+.4f}), "
        f"mAP: {rows[1]['map']:.4f} -> {rows[6]['map']:.4f} (drop {map_drop:+.4f})",
        time.perf_counter() - t0, budget=600.0,
    )


def test_criterion_08_learned_selector_beats_baselines():
    # trained generator with three prototypes vs the plain-mean and
    # every-vector baselines on the shipped preset, camera-filter protocol
    t0 = time.perf_counter()
    base = dict(preset="tradeoff", protocol="camera-filter")
    maps = {}
    for method in ("centroid", "instance"):
        cfg = ExperimentConfig(selector=SelectorConfig(method=method, seed=0), **base)
        maps[method] = run_experiment(cfg).report.map
    cfg = ExperimentConfig(
        selector=SelectorConfig(method="gcp", n_prototypes=3, seed=0),
        gcp=tradeoff_training(), **base,
    )
    maps["gcp"] = run_experiment(cfg).report.map
    ok = maps["gcp"] >= maps["centroid"] and maps["gcp"] >= maps["instance"]
    _finish(
        8, "learned selector beats baselines", ok,
        f"mAP: gcp={maps['gcp']:.4f} vs centroid={maps['centroid']:.4f}, "
        f"instance={maps['instance']:.4f}",
        time.perf_counter() - t0, budget=600.0,
    )


def test_criterion_09_diversity_term_prevents_collapse():
    t0 = time.perf_counter()
    spec = SyntheticSpec(
        n_classes=4, instances_per_class=12, dim=8, n_cameras=2,
        class_center_scale=5.0, within_class_noise=0.5, camera_offset_scale=0.2,
        queries_per_class=1, seed=11,
    )
    gallery, _ = generate_synthetic(spec)
    spacing = {}
    for lam in (1.0, 0.0):
        cfg = GcpConfig(
            dim=8, n_blocks=1, n_heads=2, ffn_dim=16, dropout_rate=0.0,
            n_prototypes=3, n_cameras=2, batch_classes=4, instances_per_class=6,
            epochs=60, lam=lam, seed=3,
        )
        model, _ = train(gallery, cfg)
        pset = select_gcp(gallery, model, n=3)
        spacing[lam] = min(
            float(pdist(pset.per_class[c]).min()) for c in pset.class_ids
        )
    ok = spacing[1.0] > spacing[0.0]
    _finish(
        9, "diversity term prevents collapse", ok,
        f"min intra-class prototype spacing: lam=1 {spacing[1.0]:.4f} > "
        f"lam=0 {spacing[0.0]:.4f}",
        time.perf_counter() - t0,
    )


def test_criterion_10_selection_and_evaluation_throughput():
    spec = SyntheticSpec(
        n_classes=500, instances_per_class=20, dim=512, n_cameras=4,
        class_center_scale=10.0, within_class_noise=1.0, camera_offset_scale=0.5,
        queries_per_class=2, seed=1,
    )
    gallery, queries = generate_synthetic(spec)
    assert len(gallery) == 10_000 and gallery.dim == 512 and len(queries) == 1_000
    t0 = time.perf_counter()
    pset = run_selector(
        gallery, SelectorConfig(method="alphafps", n_prototypes=3, alpha=0.5)
    )
    report = evaluate(queries, pset, max_rank=25)
    elapsed = time.perf_counter() - t0
    _finish(
        10, "selection and evaluation throughput", True,
        f"10k records, 512 dims, 500 classes, 1000 queries; "
        f"{pset.total_count()} prototypes, mAP {report.map:.3f}",
        elapsed, budget=10.0,
    )


# sha256 over model.gcpm, report.json, prototypes.json and
# camera_filter_groups.json (when written), each preceded by its name, as
# first recorded.  The learned generator trains a small model on its own
# synthetic set; every other method runs the tradeoff preset.
ARTIFACT_DIGESTS = {
    ("instance", "plain"):
        "ed718805a4818b30da2b279950631d0b5e289a6f3ee94f1ee1288d97ad4b4e87",
    ("instance", "camera-filter"):
        "f8e4a5352cf23b172d93c84be99a2312a9a30f452e5b8bdd4809f967a10ad7f1",
    ("centroid", "plain"):
        "ff761f5de0dc31994432b4a4ea1e0a6d9a6f629780bdfe6011432ca27e9e194b",
    ("centroid", "camera-filter"):
        "0ecc51d164ec8d3c9e0dce06c5c4ea46b122e64d304655e3143a7d13314c0753",
    ("kcentroid", "plain"):
        "c5ea19e6755f74c55ae3d30acd0e4b54073aca06f506678ace1a19a963b3aeba",
    ("kcentroid", "camera-filter"):
        "f0f27e30308e2c3f654733b0fb2bcd0183be7695a7eab29a7710b0df59d261eb",
    ("fps", "plain"):
        "2e28c27ec6ddc8deeff33871d682a7a89666312e031971aaafd6c0b08ab76e42",
    ("fps", "camera-filter"):
        "61f3ce210337f72ab134c2ed5e156d50361cd1488890494a8df8c45e2740656c",
    ("alphafps", "plain"):
        "fb74b886f02a3a752f6a364d3cc1ba3c565c07f82a16b47fb992ff83554c9bd1",
    ("alphafps", "camera-filter"):
        "1f72b95e60aec474f0e9a3ff2943dd3979252efb2d468abb3bf2b75af8ff2cbb",
    ("gcp", "plain"):
        "e66f6c065fe6ea7265fa3573a5edb6c7060faf40eacc45c4dfc5061dbaf4debf",
    ("gcp", "camera-filter"):
        "8ce774f2cd41fc219dfc92f7fdf7bc901d49e254b850c74cd1db3838731e7721",
}


@pytest.mark.parametrize("method, protocol", sorted(ARTIFACT_DIGESTS))
def test_preset_artifacts_are_pinned(method, protocol, tmp_path):
    if method == "gcp":
        data = dict(
            synthetic=SyntheticSpec(n_classes=24, instances_per_class=10, dim=32, seed=3),
            gcp=GcpConfig(dim=32, epochs=2, seed=3),
        )
    else:
        data = dict(preset="tradeoff")
    cfg = ExperimentConfig(
        selector=SelectorConfig(method=method),
        protocol=protocol,
        per_query_ap=True,
        **data,
    )
    run_experiment(cfg, out_dir=tmp_path)
    h = hashlib.sha256()
    for name in ("model.gcpm", "report.json", "prototypes.json", "camera_filter_groups.json"):
        path = tmp_path / name
        if path.exists():
            h.update(name.encode())
            h.update(path.read_bytes())
    assert h.hexdigest() == ARTIFACT_DIGESTS[(method, protocol)]

"""Experiment harness: config parsing and validation, artifact round trips,
the camera-filter protocol, sweeps, grouped evaluation, power-of-two
scaling, query-order permutation and order-preserving relabelling of whole
runs, and that no run loads scipy."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gcproto import retrieval
from gcproto.errors import ConfigError, DataFormatError
from gcproto.harness import (
    PROTOCOL_CHOICES,
    PROTO_FORMAT,
    PROTO_VERSION,
    ExperimentConfig,
    _regen_class,
    build_protocol_prototypes,
    group_evaluate,
    resolve_data,
    run_experiment,
    save_prototypes,
    sweep,
)
from gcproto.model import (
    GcpConfig,
    GcpModel,
    build_memory,
    generate_prototypes,
    init_params,
    load_model,
)
from gcproto.retrieval import report_to_json
from gcproto.schema import from_json, read_json_object
from gcproto.seeding import substream
from gcproto.selectors import SelectorConfig, run_selector
from gcproto.store import METHODS, EmbeddingSet, PrototypeSet, build_set, save_embedding_set
from gcproto.synthetic import SyntheticSpec, generate_synthetic, tradeoff_spec

SMALL = SyntheticSpec(
    n_classes=4, instances_per_class=6, dim=6, n_cameras=3,
    class_center_scale=6.0, within_class_noise=0.5, camera_offset_scale=0.3,
    queries_per_class=3, seed=9,
)

TINY_GCP = GcpConfig(
    dim=6, n_blocks=1, n_heads=2, ffn_dim=8, dropout_rate=0.0,
    n_prototypes=2, n_cameras=3, batch_classes=4, instances_per_class=4,
    epochs=2,
)


def cfg_for(method="centroid", **kw):
    kw.setdefault("synthetic", SMALL)
    sel_kw = {}
    if "n_prototypes" in kw:
        sel_kw["n_prototypes"] = kw.pop("n_prototypes")
    return ExperimentConfig(selector=SelectorConfig(method=method, **sel_kw), **kw)


def fallback_data():
    """Gallery and queries with one fallback group: class 0 was seen only by
    camera 0, and its first query comes from camera 0."""
    rng = np.random.default_rng(5)
    cameras = [0, 0, 0, 0, 1, 2, 0, 1, 2, 1, 2, 2, 0]
    classes = [0] * 4 + [1] * 5 + [2] * 4
    vecs = rng.normal(size=(13, 6)) + np.array(classes, dtype=float)[:, None]
    gallery = build_set(vecs, classes, cameras)
    queries = build_set(
        rng.normal(size=(6, 6)), [0, 0, 1, 1, 2, 2], [0, 1, 0, 2, 1, 1], id_prefix="q"
    )
    return gallery, queries

class TestConfigValidation:
    def test_exactly_one_data_source(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(selector=SelectorConfig(method="centroid"))
        with pytest.raises(ConfigError):
            ExperimentConfig(
                selector=SelectorConfig(method="centroid"),
                synthetic=SMALL, preset="tradeoff",
            )

    def test_file_source_needs_queries(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                selector=SelectorConfig(method="centroid"), data_path="g.csv"
            )

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            cfg_for(preset="mystery", synthetic=None)

    def test_unknown_protocol(self):
        with pytest.raises(ConfigError):
            cfg_for(protocol="teleport")

    def test_sweep_axis_and_values(self):
        with pytest.raises(ConfigError):
            cfg_for(sweep_axis="gamma", sweep_values=[1])
        with pytest.raises(ConfigError):
            cfg_for(sweep_axis="n", sweep_values=[])

    def test_gcp_needs_training_config_or_checkpoint(self):
        with pytest.raises(ConfigError):
            cfg_for(method="gcp")
        cfg_for(method="gcp", gcp=TINY_GCP)  # fine
        cfg_for(method="gcp", checkpoint="model.gcpm")  # fine

    def test_misc_field_validation(self):
        with pytest.raises(ConfigError):
            cfg_for(max_rank=0)
        with pytest.raises(ConfigError, match="2\\*\\*20"):
            cfg_for(max_rank=2**63)
        with pytest.raises(ConfigError):
            cfg_for(ap_mode="harmonic")
        with pytest.raises(ConfigError):
            cfg_for(group_buckets=["nonsense"])


class TestConfigJson:
    def test_round_trip(self):
        cfg = cfg_for(
            method="alphafps", n_prototypes=4, protocol="camera-filter",
            group_buckets=["1-10", "11+"], per_query_ap=True, seed=3,
        )
        back = from_json(ExperimentConfig, cfg.to_json_dict())
        assert back == cfg

    def test_round_trip_with_gcp(self):
        cfg = cfg_for(method="gcp", gcp=TINY_GCP, sweep_axis="n", sweep_values=[1, 3])
        back = from_json(ExperimentConfig, cfg.to_json_dict())
        assert back == cfg

    def test_unknown_top_level_key(self):
        data = cfg_for().to_json_dict()
        data["extra"] = 1
        with pytest.raises(ConfigError):
            from_json(ExperimentConfig, data)

    def test_unsupported_version(self):
        data = cfg_for().to_json_dict()
        data["version"] = 99
        with pytest.raises(ConfigError):
            from_json(ExperimentConfig, data)

    def test_selector_requires_method(self):
        data = cfg_for().to_json_dict()
        del data["selector"]["method"]
        with pytest.raises(ConfigError):
            from_json(ExperimentConfig, data)

    def test_alpha_fps_spelling_accepted(self):
        data = cfg_for().to_json_dict()
        data["selector"]["method"] = "alpha_fps"
        cfg = from_json(ExperimentConfig, data)
        assert cfg.selector.method == "alphafps"

    def test_master_seed_fills_unset_sub_seeds(self):
        data = {
            "version": 1,
            "seed": 7,
            "data": {"synthetic": {"n_classes": 3, "dim": 4}},
            "selector": {"method": "kcentroid"},
        }
        cfg = from_json(ExperimentConfig, data)
        assert cfg.selector.seed == 7
        assert cfg.synthetic.seed == 7

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("selector", "n", "abc"),
            ("selector", "seed", 1.5),
            ("sweep", "values", 5),
            ("sweep", "values", ["a"]),
            ("synthetic", "n_classes", "4"),
            ("synthetic", "instances_per_class", [2, "9"]),
            ("gcp", "dim", "8"),
            ("top", "max_rank", "abc"),
        ],
    )
    def test_wrong_typed_field_is_config_error(self, section, key, value):
        data = cfg_for(method="gcp", gcp=TINY_GCP, sweep_axis="n", sweep_values=[1]).to_json_dict()
        target = {
            "top": data, "synthetic": data["data"]["synthetic"],
        }.get(section, data.get(section))
        target[key] = value
        with pytest.raises(ConfigError):
            from_json(ExperimentConfig, data)

    def test_class_size_range_is_config_error(self):
        # A class size is one number; a [lo, hi] range is refused, not read.
        data = cfg_for(method="gcp", gcp=TINY_GCP, sweep_axis="n", sweep_values=[1]).to_json_dict()
        data["data"]["synthetic"]["instances_per_class"] = [4, 9]
        with pytest.raises(ConfigError, match="instances_per_class"):
            from_json(ExperimentConfig, data)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(per_query_ap="no"),
            lambda d: d.update(group_buckets=5),
            lambda d: d.update(gcp=[]),
            lambda d: d.update(gcp=[["dim", 8]]),
            lambda d: d["data"].update(synthetic=[]),
            lambda d: d.update(sweep={"values": [1, 2]}),
        ],
        ids=["per-query-ap-string", "group-buckets-int", "gcp-empty-list",
             "gcp-pair-list", "synthetic-empty-list", "sweep-without-axis"],
    )
    def test_malformed_section_is_config_error(self, edit):
        data = cfg_for().to_json_dict()
        edit(data)
        with pytest.raises(ConfigError):
            from_json(ExperimentConfig, data)

    def test_integer_in_float_field_echoes_as_float_in_every_section(self):
        data = cfg_for(method="gcp", gcp=TINY_GCP).to_json_dict()
        data["selector"]["alpha"] = 1
        data["gcp"]["margin"] = 2
        data["data"]["synthetic"]["class_center_scale"] = 6
        echo = from_json(ExperimentConfig, data).to_json_dict()
        for value in (
            echo["selector"]["alpha"], echo["gcp"]["margin"],
            echo["data"]["synthetic"]["class_center_scale"],
        ):
            assert type(value) is float
        assert json.dumps(echo["gcp"]["margin"]) == "2.0"

    def test_unknown_nested_keys_are_named(self):
        data = cfg_for().to_json_dict()
        data["data"]["synthetic"]["n_class"] = 3
        with pytest.raises(ConfigError, match="n_class"):
            from_json(ExperimentConfig, data)

    def test_integer_floats_keep_their_float_echo(self):
        data = cfg_for(method="alphafps").to_json_dict()
        data["selector"]["alpha"] = 1
        cfg = from_json(ExperimentConfig, data)
        assert cfg.selector.alpha == 1.0 and isinstance(cfg.selector.alpha, float)

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DataFormatError):
            from_json(ExperimentConfig, read_json_object(path))


def same_rows(entry, rows: np.ndarray) -> bool:
    """Whether a written ``"classes"`` entry holds ``rows`` bit for bit."""
    got = np.array(entry, dtype=np.float64)
    return got.shape == rows.shape and np.array_equal(got.view(np.uint64), rows.view(np.uint64))


class TestPrototypeFiles:
    def test_round_trip_bitwise(self, tmp_path):
        gallery, _ = generate_synthetic(SMALL)
        pset = run_selector(gallery, SelectorConfig(method="fps", n_prototypes=3))
        path = tmp_path / "protos.json"
        save_prototypes(pset, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert (doc["format"], doc["version"]) == (PROTO_FORMAT, PROTO_VERSION)
        assert doc["selector"] == "fps"
        assert doc["classes"].keys() == {str(c) for c in pset.class_ids}
        assert all(same_rows(doc["classes"][str(c)], pset.per_class[c]) for c in pset.class_ids)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.dictionaries(
            st.integers(-(2**63), 2**63 - 1),
            st.integers(0, 3),
            min_size=1,
            max_size=4,
        ),
        dim=st.integers(1, 3),
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=12),
        tag=st.sampled_from(METHODS),
        echo=st.dictionaries(st.text(max_size=4), st.integers() | st.text(max_size=4), max_size=2),
    )
    def test_every_accepted_set_reloads(self, tmp_path_factory, rows, dim, values, tag, echo):
        # classes with zero rows are real inputs, and those the writer refuses
        per_class = {
            c: np.array(values[: k * dim], dtype=np.float64).reshape(k, dim)
            for c, k in rows.items()
        }
        pset = PrototypeSet(per_class, tag, echo)
        path = tmp_path_factory.mktemp("protos") / "protos.json"
        if not all(rows.values()):
            with pytest.raises(DataFormatError, match="no prototypes"):
                save_prototypes(pset, path)
            assert not path.exists()
            return
        save_prototypes(pset, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert (doc["selector"], doc["params_echo"]) == (tag, echo)
        assert doc["classes"].keys() == {str(c) for c in pset.class_ids}
        assert all(same_rows(doc["classes"][str(c)], pset.per_class[c]) for c in pset.class_ids)


class TestRunExperiment:
    def test_instance_top1_matches_nn_oracle(self):
        result = run_experiment(cfg_for(method="instance"))
        gallery, queries = generate_synthetic(SMALL)
        d = np.linalg.norm(
            queries.features[:, None, :] - gallery.features[None, :, :], axis=2
        )
        nn_class = np.array([gallery.records[i].class_id for i in d.argmin(axis=1)])
        q_class = np.array([r.class_id for r in queries.records])
        assert result.report.top1 == np.mean(nn_class == q_class)

    def test_centroid_equals_kcentroid_n1(self):
        # identical metrics; the config echoes keep their own selector names
        a = run_experiment(cfg_for(method="centroid")).report
        b = run_experiment(cfg_for(method="kcentroid", n_prototypes=1)).report
        assert (a.cmc, a.top1, a.map, a.n_queries) == (b.cmc, b.top1, b.map, b.n_queries)

    def test_deterministic_end_to_end(self):
        cfg = cfg_for(method="gcp", gcp=TINY_GCP, protocol="camera-filter")
        a = run_experiment(cfg).report
        b = run_experiment(cfg).report
        assert report_to_json(a) == report_to_json(b)

    def test_artifacts_reload_bit_exactly(self, tmp_path):
        cfg = cfg_for(method="gcp", gcp=TINY_GCP, protocol="camera-filter",
                      group_buckets=["1-5", "6+"])
        result = run_experiment(cfg, out_dir=tmp_path)
        text = (tmp_path / "report.json").read_text(encoding="utf-8")
        assert text == report_to_json(result.report)
        assert json.loads(text) == asdict(result.report)
        classes = json.loads((tmp_path / "prototypes.json").read_text(encoding="utf-8"))["classes"]
        assert classes.keys() == {str(c) for c in result.prototypes.class_ids}
        for c in result.prototypes.class_ids:
            assert same_rows(classes[str(c)], result.prototypes.per_class[c])
        cfg2 = from_json(ExperimentConfig, read_json_object(tmp_path / "resolved_config.json"))
        assert cfg2 == cfg
        model2 = load_model(tmp_path / "model.gcpm")
        for name in result.model.params:
            np.testing.assert_array_equal(
                model2.params[name], result.model.params[name]
            )
        groups = json.loads((tmp_path / "camera_filter_groups.json").read_text())
        assert groups == result.camera_groups

    def test_report_echoes_resolved_config(self):
        result = run_experiment(cfg_for())
        assert result.report.config_echo["selector"]["method"] == "centroid"

    def test_file_data_source(self, tmp_path):
        gallery, queries = generate_synthetic(SMALL)
        gpath, qpath = tmp_path / "g.csv", tmp_path / "q.csv"
        save_embedding_set(gallery, gpath)
        save_embedding_set(queries, qpath)
        from_files = run_experiment(
            ExperimentConfig(
                selector=SelectorConfig(method="centroid"),
                data_path=str(gpath), queries_path=str(qpath),
            )
        ).report
        from_spec = run_experiment(cfg_for()).report
        assert from_files.top1 == from_spec.top1
        assert from_files.map == from_spec.map

    def test_file_data_source_camera_filter(self, tmp_path):
        # Regression: each CSV renumbers camera labels in its own first-seen
        # order, so without re-alignment the filtered protocol excludes the
        # wrong camera for most queries. The preset's scrambled camera order
        # makes any mismatch show up in the metrics.
        gallery, queries = generate_synthetic(tradeoff_spec())
        gpath, qpath = tmp_path / "g.csv", tmp_path / "q.csv"
        save_embedding_set(gallery, gpath)
        save_embedding_set(queries, qpath)
        from_files = run_experiment(
            ExperimentConfig(
                selector=SelectorConfig(method="centroid"), protocol="camera-filter",
                data_path=str(gpath), queries_path=str(qpath),
            )
        ).report
        from_spec = run_experiment(
            ExperimentConfig(
                selector=SelectorConfig(method="centroid"), protocol="camera-filter",
                preset="tradeoff",
            )
        ).report
        assert from_files.top1 == from_spec.top1
        assert from_files.map == from_spec.map
        assert from_files.cmc == from_spec.cmc


class TestCameraFilter:
    def test_same_group_queries_share_prototype_set(self):
        cfg = cfg_for(protocol="camera-filter")
        gallery, queries = resolve_data(cfg)
        _, mapping, _ = build_protocol_prototypes(cfg, gallery, queries, None, 1)
        by_group = {}
        for rec in queries.records:
            key = (rec.class_id, rec.camera_id)
            if key in by_group:
                assert mapping[rec.id] is by_group[key]
            by_group[key] = mapping[rec.id]

    def test_rival_classes_keep_base_prototypes(self):
        cfg = cfg_for(protocol="camera-filter")
        gallery, queries = resolve_data(cfg)
        base, mapping, _ = build_protocol_prototypes(cfg, gallery, queries, None, 1)
        rec = queries.records[0]
        pset = mapping[rec.id]
        for c in pset.class_ids:
            same = np.array_equal(pset.per_class[c], base.per_class[c])
            if c == rec.class_id:
                assert not same
            else:
                assert same

    def test_own_class_prototypes_exclude_query_camera(self):
        cfg = cfg_for(protocol="camera-filter")
        gallery, queries = resolve_data(cfg)
        _, mapping, _ = build_protocol_prototypes(cfg, gallery, queries, None, 1)
        rec = queries.records[0]
        rows = [
            r.vector for r in gallery.records
            if r.class_id == rec.class_id and r.camera_id != rec.camera_id
        ]
        want = np.mean(rows, axis=0)
        np.testing.assert_allclose(
            mapping[rec.id].per_class[rec.class_id][0], want, atol=1e-12
        )

    @pytest.mark.parametrize("method", ["instance", "centroid", "kcentroid", "fps", "alphafps"])
    def test_rebuilt_rows_equal_a_selector_run_without_the_camera(self, method):
        cfg = cfg_for(method, protocol="camera-filter", n_prototypes=2)
        gallery, queries = fallback_data()
        base, mapping, groups = build_protocol_prototypes(cfg, gallery, queries, None, 2)
        assert sum(g["fallback"] for g in groups) == 1
        for rec in queries.records:
            c = rec.class_id
            kept = [
                r for r in gallery.records if r.class_id == c and r.camera_id != rec.camera_id
            ]
            if kept:
                want = run_selector(EmbeddingSet(kept), cfg.selector).per_class[c]
            else:
                want = base.per_class[c]
            assert np.array_equal(mapping[rec.id].per_class[c], want)

    @settings(max_examples=40, deadline=None)
    @given(
        labels=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=12),
        camera=st.integers(0, 3),
    )
    @example(labels=[(1, 0), (0, 1), (1, 1), (0, 1)], camera=1)
    def test_kept_rows_equal_the_set_based_selection(self, labels, camera):
        # rows in any class order, so a class's rows need not be adjacent;
        # a class seen only by ``camera`` falls back to all of its rows
        classes, cameras = zip(*labels)
        vecs = np.arange(len(labels) * 2, dtype=float).reshape(-1, 2)
        gallery = build_set(vecs, classes, cameras)
        instance = SelectorConfig(method="instance")
        for c in gallery.class_ids:
            kept = [i for i in gallery.class_index[c] if gallery.row_cameras[i] != camera]
            want = gallery.features[kept] if kept else gallery.class_matrix(c)
            rows, fell_back = _regen_class(instance, gallery, None, c, camera)
            assert fell_back == (not kept)
            np.testing.assert_array_equal(rows, want)

    def test_gcp_rebuild_drops_the_camera_or_falls_back(self):
        cfg = cfg_for("gcp", gcp=TINY_GCP, protocol="camera-filter")
        model = GcpModel(config=TINY_GCP, params=init_params(TINY_GCP, substream(0, "init")))
        gallery, queries = fallback_data()
        base, mapping, groups = build_protocol_prototypes(cfg, gallery, queries, model, 2)
        flags = {(g["class"], g["camera"]): g["fallback"] for g in groups}
        assert flags == {
            (0, 0): True, (0, 1): False, (1, 0): False, (1, 2): False, (2, 1): False,
        }
        for rec in queries.records:
            c, cam = rec.class_id, rec.camera_id
            rows = mapping[rec.id].per_class[c]
            if flags[(c, cam)]:
                np.testing.assert_array_equal(rows, base.per_class[c])
                continue
            kept = [
                i for i, r in enumerate(gallery.records) if r.class_id == c and r.camera_id != cam
            ]
            want = generate_prototypes(model, build_memory(gallery, model, kept), 2)
            np.testing.assert_array_equal(rows, want)
            if cam in gallery.row_cameras[gallery.row_classes == c]:
                assert not np.array_equal(rows, base.per_class[c])

    def test_each_query_takes_one_rank_scan_and_evaluate_one_packing(self, monkeypatch):
        # a query of a rebuilt class ranks against its base's rows and the
        # rebuilt rows in one scan; only the base set is ever flattened
        calls = {"certified": 0, "flattened": 0}
        real_certified, real_flattened = retrieval._certified, PrototypeSet.flattened

        def certified(*args):
            calls["certified"] += 1
            return real_certified(*args)

        def flattened(self):
            calls["flattened"] += 1
            return real_flattened(self)

        monkeypatch.setattr(retrieval, "_certified", certified)
        monkeypatch.setattr(PrototypeSet, "flattened", flattened)
        result = run_experiment(cfg_for("alphafps", protocol="camera-filter", n_prototypes=2))
        assert result.camera_groups and not result.report.missing_class_query_ids
        assert calls == {"certified": result.report.n_queries, "flattened": 1}

    def test_group_descriptors_cover_distinct_groups(self):
        cfg = cfg_for(protocol="camera-filter")
        result = run_experiment(cfg)
        _, queries = resolve_data(cfg)
        distinct = {(r.class_id, r.camera_id) for r in queries.records}
        assert len(result.camera_groups) == len(distinct)

    def test_single_camera_class_falls_back(self, tmp_path):
        # class 0 exists only on camera 0, so excluding it must fall back
        # to the unfiltered class instead of erasing it
        vecs = np.vstack([np.zeros((3, 4)), np.ones((3, 4)) * 8])
        gallery = build_set(vecs, [0, 0, 0, 1, 1, 1], [0, 0, 0, 0, 1, 2])
        queries = build_set(
            np.array([[0.1, 0, 0, 0], [7.9, 8, 8, 8]]), [0, 1], [0, 1], id_prefix="q"
        )
        gpath, qpath = tmp_path / "g.csv", tmp_path / "q.csv"
        save_embedding_set(gallery, gpath)
        save_embedding_set(queries, qpath)
        cfg = ExperimentConfig(
            selector=SelectorConfig(method="centroid"),
            data_path=str(gpath), queries_path=str(qpath),
            protocol="camera-filter",
        )
        result = run_experiment(cfg)
        flags = {(g["class"], g["camera"]): g["fallback"] for g in result.camera_groups}
        assert flags[(0, 0)] is True
        assert flags[(1, 1)] is False
        assert result.report.top1 == 1.0

    def test_query_class_absent_from_gallery(self, tmp_path):
        # class 2 has two queries and no gallery row: its group keeps the
        # base set, both queries are listed, and no size bucket counts them
        vecs = np.vstack([np.zeros((3, 4)), np.ones((3, 4)) * 8])
        gallery = build_set(vecs, [0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 1, 2])
        queries = build_set(
            np.array([[0.1, 0, 0, 0], [7.9, 8, 8, 8], [4, 4, 4, 4], [5, 5, 5, 5]]),
            [0, 1, 2, 2], [0, 1, 1, 1], id_prefix="q",
        )
        gpath, qpath = tmp_path / "g.csv", tmp_path / "q.csv"
        save_embedding_set(gallery, gpath)
        save_embedding_set(queries, qpath)
        cfg = ExperimentConfig(
            selector=SelectorConfig(method="alphafps", n_prototypes=2),
            data_path=str(gpath), queries_path=str(qpath),
            protocol="camera-filter", group_buckets=["1-3", "4+"],
        )
        result = run_experiment(cfg)
        absent = [g for g in result.camera_groups if g.get("absent")]
        assert absent == [{"class": 2, "camera": 1, "fallback": False, "absent": True}]
        assert len(result.camera_groups) == 3
        report = result.report
        assert report.missing_class_query_ids == ["q2", "q3"]
        assert report.n_queries == 4
        assert report.per_group == {
            "1-3": {"count": 2, "map": 1.0}, "4+": {"count": 0, "map": None},
        }
        assert report.map == 0.5

    def test_filter_changes_report_when_offsets_matter(self):
        strong = SyntheticSpec(
            **{**SMALL.__dict__, "camera_offset_scale": 3.0}
        )
        plain = run_experiment(cfg_for(synthetic=strong)).report
        filt = run_experiment(
            cfg_for(synthetic=strong, protocol="camera-filter")
        ).report
        assert report_to_json(plain) != report_to_json(filt)


class TestSweeps:
    def test_single_value_equals_direct_run(self):
        cfg = cfg_for(method="kcentroid", n_prototypes=2, sweep_axis="n", sweep_values=[2])
        rows = sweep(cfg)
        direct = run_experiment(cfg).report
        assert rows == [{"n": 2, "top1": direct.top1, "map": direct.map}]

    def test_gcp_sweep_matches_direct_runs(self):
        rows = sweep(
            cfg_for(method="gcp", gcp=TINY_GCP, protocol="camera-filter",
                    sweep_axis="n", sweep_values=[1, 2])
        )
        for n, row in zip((1, 2), rows):
            direct = run_experiment(
                cfg_for(method="gcp", gcp=TINY_GCP, protocol="camera-filter",
                        n_prototypes=n)
            ).report
            assert (row["top1"], row["map"]) == (direct.top1, direct.map)

    def test_sweep_values_from_config(self):
        cfg = cfg_for(method="fps", sweep_axis="n", sweep_values=[1, 3])
        rows = sweep(cfg)
        assert [r["n"] for r in rows] == [1, 3]

    def test_sweep_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            cfg_for(sweep_axis="n", sweep_values=[])
        with pytest.raises(ConfigError):
            cfg_for(sweep_axis="n", sweep_values=[0])

    def test_sweep_n_refuses_non_integer_values(self):
        data = cfg_for(sweep_axis="n", sweep_values=[1]).to_json_dict()
        data["sweep"]["values"] = [2.5, 2.9]
        with pytest.raises(ConfigError):
            from_json(ExperimentConfig, data)
        with pytest.raises(ConfigError):
            cfg_for(sweep_axis="n", sweep_values=[2.5, 2.9])
        with pytest.raises(ConfigError):
            cfg_for(sweep_axis="n", sweep_values=[2.0])

    def test_alpha_values_checked_at_load(self):
        data = cfg_for(method="alphafps", sweep_axis="alpha", sweep_values=[0.5]).to_json_dict()
        data["sweep"]["values"] = [2.0]
        with pytest.raises(ConfigError, match="alpha"):
            from_json(ExperimentConfig, data)
        # the alphafps requirement waits for the sweep itself
        cfg = cfg_for(method="centroid", sweep_axis="alpha", sweep_values=[0, 1])
        with pytest.raises(ConfigError, match="alphafps"):
            sweep(cfg)

    def test_sweep_without_axis_is_refused(self):
        with pytest.raises(ConfigError):
            cfg_for(sweep_values=[1, 2])

    def test_config_without_a_sweep_is_refused(self):
        with pytest.raises(ConfigError, match="sweep axis"):
            sweep(cfg_for())

    def test_sweep_csv_artifact(self, tmp_path):
        sweep(cfg_for(method="centroid", sweep_axis="n", sweep_values=[1, 2]), out_dir=tmp_path)
        lines = (tmp_path / "sweep_n.csv").read_text().strip().splitlines()
        assert lines[0] == "n,top1,map"
        assert len(lines) == 3

    def test_sweep_alpha_requires_alphafps(self):
        with pytest.raises(ConfigError):
            sweep(cfg_for(method="centroid", sweep_axis="alpha", sweep_values=[0.5]))

    def test_sweep_alpha_rows(self):
        rows = sweep(
            cfg_for(method="alphafps", n_prototypes=2, sweep_axis="alpha", sweep_values=[0.0, 0.5])
        )
        assert [r["alpha"] for r in rows] == [0.0, 0.5]
        for r in rows:
            assert 0.0 <= r["map"] <= 1.0


class TestOutDir:
    # each run writes under its out_dir argument, or else the config's out_dir
    RUNS = {
        "run_experiment": (run_experiment, {}, "report.json"),
        "sweep": (sweep, {"sweep_axis": "n", "sweep_values": [1]}, "sweep_n.csv"),
        "group_evaluate": (group_evaluate, {"group_buckets": ["1+"]}, "group_eval.csv"),
    }

    @pytest.mark.parametrize("name", RUNS)
    def test_config_out_dir_is_used_without_an_argument(self, tmp_path, name):
        run, settings, written = self.RUNS[name]
        run(cfg_for(out_dir=str(tmp_path / "cfg"), **settings))
        names = [p.name for p in (tmp_path / "cfg").iterdir()]
        # a sweep or bucket run writes its table, not a run's artifacts
        assert written in names and (name == "run_experiment" or len(names) == 1)

    @pytest.mark.parametrize("name", RUNS)
    def test_argument_overrides_config_out_dir(self, tmp_path, name):
        run, settings, written = self.RUNS[name]
        run(cfg_for(out_dir=str(tmp_path / "cfg"), **settings), out_dir=tmp_path / "arg")
        assert (tmp_path / "arg" / written).is_file()
        assert not (tmp_path / "cfg").exists()


class TestGroupEvaluate:
    def test_single_bucket_equals_overall(self):
        cfg = cfg_for(group_buckets=["1+"])
        rows = group_evaluate(cfg)
        overall = run_experiment(cfg).report
        assert rows[0]["count"] == overall.n_queries
        assert rows[0]["map"] == overall.map

    def test_counts_sum_to_total(self):
        rows = group_evaluate(cfg_for(group_buckets=["1-5", "6-7", "8+"]))
        total = sum(r["count"] for r in rows)
        assert total == SMALL.n_classes * SMALL.queries_per_class

    def test_empty_bucket_marked_absent(self):
        # every class has 6 gallery records, so the >= 100 bucket is empty
        rows = group_evaluate(cfg_for(group_buckets=["1-99", "100+"]))
        assert rows[1] == {"bucket": "100+", "count": 0, "map": None}

    def test_csv_artifact(self, tmp_path):
        group_evaluate(cfg_for(group_buckets=["1-99", "100+"]), out_dir=tmp_path)
        lines = (tmp_path / "group_eval.csv").read_text().strip().splitlines()
        assert lines[0] == "bucket,count,map"
        assert lines[2].startswith("100+,0,")

    def test_config_without_buckets_is_refused(self):
        with pytest.raises(ConfigError, match="bucket labels"):
            group_evaluate(cfg_for())

    @pytest.mark.parametrize("label", ["1-99\n", " 1-99", "01-99", "1-099", "1\n-99"])
    def test_label_in_another_spelling_refused(self, label):
        # labels are written out as given; a line break would split a row
        with pytest.raises(ConfigError, match="write it as '1-99'"):
            cfg_for(group_buckets=[label, "100+"])


class TestPowerOfTwoScaling:
    """A power-of-two scale is exact in float64 through every +, -, x, /
    and square root that the non-learned selectors and the evaluator use,
    away from overflow and subnormals, so a run over scaled data answers as
    the unscaled run does.  That holds for k-means too: it stops once the
    centroid shift is at most ``kmeans_tol`` times the class's spread, and
    the two scale alike.  Down to k = -60 the data's squares stay far above
    the subnormals."""

    @staticmethod
    def files(tmp, gallery, queries, factor):
        paths = []
        for name, eset in (("gallery", gallery), ("queries", queries)):
            path = Path(tmp) / f"{name}_{factor!r}.gcpe"
            save_embedding_set(
                build_set(eset.features * factor, eset.row_classes, eset.row_cameras, name), path
            )
            paths.append(str(path))
        return paths

    @staticmethod
    def report_without_paths(result):
        report = json.loads(report_to_json(result.report))
        del report["config_echo"]["data"], report["config_echo"]["queries"]
        return report

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(-60, 300))
    @example(seed=9, k=-20)
    @example(seed=9, k=-60)
    @example(seed=2, k=-30)
    @example(seed=9, k=7)
    @example(seed=9, k=300)
    def test_reports_identical_and_prototypes_scaled_exactly(self, tmp_path_factory, seed, k):
        gallery, queries = generate_synthetic(replace(SMALL, seed=seed))
        tmp = tmp_path_factory.mktemp("scaled")
        sources = [self.files(tmp, gallery, queries, f) for f in (1.0, 2.0**k)]
        for method in (m for m in METHODS if m != "gcp"):
            for protocol in PROTOCOL_CHOICES:
                base, scaled = (
                    run_experiment(ExperimentConfig(
                        selector=SelectorConfig(method=method), data_path=g, queries_path=q,
                        protocol=protocol, per_query_ap=True,
                    ))
                    for g, q in sources
                )
                assert self.report_without_paths(scaled) == self.report_without_paths(base)
                assert scaled.prototypes.class_ids == base.prototypes.class_ids
                for c in base.prototypes.class_ids:
                    want = base.prototypes.per_class[c] * 2.0**k
                    assert scaled.prototypes.per_class[c].tobytes() == want.tobytes()


class TestQueryPermutation:
    """Each query is ranked on its own, and a camera-filter group's rebuild
    depends on its (class, camera) alone, so permuting the query file's rows
    permutes the per-query AP and leaves the CMC, integer counts over n,
    unchanged.  The mAP is a sequential sum in query order: it equals the
    unpermuted run's APs summed in the permuted order."""

    # overlapping classes, so the queries' APs differ and their sum's order
    # shows in the mAP's last bits
    SPEC = replace(SMALL, class_center_scale=0.5, within_class_noise=1.0)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @example(seed=9, data=None)
    def test_per_query_ap_follows_its_query(self, tmp_path_factory, seed, data):
        gallery, queries = generate_synthetic(replace(self.SPEC, seed=seed))
        n = len(queries)
        order = list(range(n))[::-1] if data is None else data.draw(st.permutations(range(n)))
        tmp = tmp_path_factory.mktemp("permuted")
        paths = [str(tmp / name) for name in ("gallery.gcpe", "queries.gcpe", "permuted.gcpe")]
        save_embedding_set(gallery, paths[0])
        save_embedding_set(queries, paths[1])
        save_embedding_set(EmbeddingSet([queries.records[i] for i in order]), paths[2])
        for method in (m for m in METHODS if m != "gcp"):
            for protocol in PROTOCOL_CHOICES:
                base, permuted = (
                    run_experiment(ExperimentConfig(
                        selector=SelectorConfig(method=method), data_path=paths[0],
                        queries_path=q, protocol=protocol, per_query_ap=True,
                    )).report
                    for q in paths[1:]
                )
                assert [qid for qid, _ in permuted.per_query_ap] == [
                    queries.ids[i] for i in order
                ]
                ap_of = dict(base.per_query_ap)
                assert dict(permuted.per_query_ap) == ap_of
                assert permuted.cmc == base.cmc and permuted.top1 == base.top1
                total = 0.0
                for qid, _ in permuted.per_query_ap:
                    total += ap_of[qid]
                assert permuted.map == total / n


class TestOrderPreservingRelabelling:
    """Class ids order ties and camera ids only select rows, so a run over
    data whose class and camera ids are renamed by c -> 2c + 1, which keeps
    their order, reports what the original run reports and selects the same
    rows; only the ids in the config echo's camera-filter groups change.
    ``kcentroid`` is left out: its k-means seed is drawn from a substream
    named by the class id.  So is ``gcp``: its camera embeddings are indexed
    by camera id."""

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=9)
    def test_reports_identical_and_prototypes_unchanged(self, tmp_path_factory, seed):
        gallery, queries = generate_synthetic(replace(TestQueryPermutation.SPEC, seed=seed))
        # one row of each class copied into the next class: exact cross-class
        # ties, which the tie rule orders by class id
        rows = [gallery.class_index[c][0] for c in gallery.class_ids]
        gallery = build_set(
            np.vstack([gallery.features, gallery.features[rows]]),
            np.concatenate([gallery.row_classes, np.roll(gallery.row_classes[rows], -1)]),
            np.concatenate([gallery.row_cameras, gallery.row_cameras[rows]]),
        )
        tmp = tmp_path_factory.mktemp("relabelled")
        sources = []
        for tag, rename in (("base", lambda ids: ids), ("odd", lambda ids: 2 * ids + 1)):
            paths = []
            for name, eset in (("gallery", gallery), ("queries", queries)):
                path = tmp / f"{tag}_{name}.gcpe"
                save_embedding_set(
                    build_set(eset.features, rename(eset.row_classes), rename(eset.row_cameras),
                              name),
                    path,
                )
                paths.append(str(path))
            sources.append(paths)
        for method in ("instance", "centroid", "fps", "alphafps"):
            for protocol in PROTOCOL_CHOICES:
                base, odd = (
                    run_experiment(ExperimentConfig(
                        selector=SelectorConfig(method=method, n_prototypes=2), data_path=g,
                        queries_path=q, protocol=protocol, group_buckets=["1-5", "6+"],
                        per_query_ap=True,
                    ))
                    for g, q in sources
                )
                want = TestPowerOfTwoScaling.report_without_paths(base)
                got = TestPowerOfTwoScaling.report_without_paths(odd)
                for group in want["config_echo"].get("camera_filter_groups", ()):
                    group["class"] = 2 * group["class"] + 1
                    group["camera"] = 2 * group["camera"] + 1
                assert got == want
                assert odd.prototypes.class_ids == [2 * c + 1 for c in base.prototypes.class_ids]
                for c in base.prototypes.class_ids:
                    assert odd.prototypes.per_class[2 * c + 1].tobytes() == (
                        base.prototypes.per_class[c].tobytes()
                    )


class TestImportBoundary:
    # run in a child interpreter: the test modules import scipy themselves
    SCRIPT = textwrap.dedent(
        """
        import sys
        import tempfile
        from pathlib import Path

        import gcproto.cli
        from gcproto.harness import PROTOCOL_CHOICES, ExperimentConfig, run_experiment
        from gcproto.model import GcpConfig, GcpModel, init_params, save_model, train
        from gcproto.seeding import substream
        from gcproto.selectors import SelectorConfig
        from gcproto.store import METHODS
        from gcproto.synthetic import SyntheticSpec, generate_synthetic

        spec = SyntheticSpec(
            n_classes=4, instances_per_class=6, dim=6, n_cameras=3, queries_per_class=3, seed=9
        )
        gcp = GcpConfig(
            dim=6, n_blocks=1, n_heads=2, ffn_dim=8, n_prototypes=2, n_cameras=3,
            batch_classes=4, instances_per_class=4, epochs=1,
        )

        def run(method, protocol, **kw):
            cfg = ExperimentConfig(
                selector=SelectorConfig(method=method), synthetic=spec, protocol=protocol, **kw
            )
            return run_experiment(cfg)

        with tempfile.TemporaryDirectory() as tmp:
            checkpoint = str(Path(tmp) / "model.gcpm")
            save_model(GcpModel(config=gcp, params=init_params(gcp, substream(0, "init"))), checkpoint)
            for protocol in PROTOCOL_CHOICES:
                for method in METHODS:
                    if method == "kcentroid":
                        continue
                    if method == "gcp":
                        run(method, protocol, checkpoint=checkpoint)
                        run(method, protocol, gcp=gcp)  # trains a fresh model
                    else:
                        run(method, protocol)

        def scipy_loaded():
            return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

        assert not scipy_loaded(), ("loaded by ranking, generation or gcp runs", scipy_loaded())
        if sys.argv[1] == "kcentroid":
            for protocol in PROTOCOL_CHOICES:
                run("kcentroid", protocol)
        else:  # four classes in batches of four: one step
            train(generate_synthetic(spec)[0], gcp)
        assert not scipy_loaded(), ("loaded by " + sys.argv[1], scipy_loaded())
        """
    )

    # k-means and training were once the only runs that loaded scipy; now neither
    # does, so each case checks that its former loader also leaves scipy out
    @pytest.mark.parametrize("loader", ["kcentroid", "train"])
    def test_scipy_loads_only_for_kmeans_and_training(self, loader):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, loader], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    @staticmethod
    def src_nodes():
        """(module name, node) for every AST node of every src module."""
        package = Path(__file__).resolve().parents[1] / "src" / "gcproto"
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                yield path.stem, node

    def test_no_src_module_imports_scipy(self):
        found = []
        for stem, node in self.src_nodes():
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(stem, name) for name in names if name.split(".")[0] == "scipy"]
        assert found == []

    def test_only_synthetic_calls_linalg_norm(self):
        # selectors.row_dists is the one kernel for row distances; synthetic
        # normalises its drawn directions with the norm
        found = []
        for stem, node in self.src_nodes():
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                uses = node.module == "numpy.linalg" and "norm" in {a.name for a in node.names}
            elif isinstance(node, ast.Attribute):
                uses = node.attr == "norm" and ast.unparse(node.value).endswith("linalg")
            else:
                continue
            if uses and stem != "synthetic":
                found.append((stem, node.lineno))
        assert found == []

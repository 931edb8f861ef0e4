"""Command-line interface: full gen/train/select/eval flows in a temp
directory, exit codes, and the single-line stderr error contract."""

import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

import gcproto
from gcproto.cli import main
from gcproto.harness import load_prototypes
from gcproto.model import load_model
from gcproto.selectors import SelectorConfig
from gcproto.store import load_embedding_set, save_embedding_set

TINY_GCP = {
    "dim": 6, "n_blocks": 1, "n_heads": 2, "ffn_dim": 8, "dropout_rate": 0.0,
    "n_prototypes": 2, "n_cameras": 3, "batch_classes": 4,
    "instances_per_class": 4, "epochs": 2,
}

SMALL_SPEC = {
    "n_classes": 4, "instances_per_class": 6, "dim": 6, "n_cameras": 3,
    "class_center_scale": 6.0, "within_class_noise": 0.5,
    "camera_offset_scale": 0.3, "queries_per_class": 3, "seed": 9,
}


@pytest.fixture
def datadir(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SMALL_SPEC), encoding="utf-8")
    rc = main(["gen", "--config", str(spec_path), "--out", str(tmp_path / "data")])
    assert rc == 0
    return tmp_path


def err_line(capsys):
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1, f"expected exactly one stderr line, got: {lines!r}"
    return lines[0]


class TestGen:
    def test_writes_gallery_queries_and_spec_echo(self, datadir):
        out = datadir / "data"
        assert (out / "gallery.csv").exists()
        assert (out / "queries.csv").exists()
        echo = json.loads((out / "synthetic_spec.json").read_text())
        assert echo["n_classes"] == 4

    def test_preset_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "tradeoff"}), encoding="utf-8")
        rc = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert rc == 0
        assert (tmp_path / "d" / "gallery.csv").exists()

    def test_unknown_preset_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "mystery"}), encoding="utf-8")
        rc = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert rc == 1
        assert err_line(capsys).startswith("error:config: ")

    def test_seed_override_changes_data(self, tmp_path):
        for seed, name in ((1, "a"), (2, "b")):
            rc = main(["gen", "--seed", str(seed), "--out", str(tmp_path / name)])
            assert rc == 0
        a = (tmp_path / "a" / "gallery.csv").read_text()
        b = (tmp_path / "b" / "gallery.csv").read_text()
        assert a != b


class TestSelect:
    def test_centroid_prototype_file(self, datadir):
        out = datadir / "protos.json"
        rc = main([
            "select", "--data", str(datadir / "data" / "gallery.csv"),
            "--method", "centroid", "--out", str(out),
        ])
        assert rc == 0
        pset = load_prototypes(out)
        assert {c: len(rows) for c, rows in pset.per_class.items()} == {c: 1 for c in range(4)}

    def test_omitted_flags_keep_selector_config_defaults(self, datadir):
        out = datadir / "protos.json"
        rc = main([
            "select", "--data", str(datadir / "data" / "gallery.csv"),
            "--method", "alphafps", "--n", "2", "--out", str(out),
        ])
        assert rc == 0
        default = SelectorConfig()
        assert load_prototypes(out).params_echo == {
            "method": "alpha_fps", "n": 2, "alpha": default.alpha,
        }

    def test_gcp_without_checkpoint_fails(self, datadir, capsys):
        rc = main([
            "select", "--data", str(datadir / "data" / "gallery.csv"),
            "--method", "gcp", "--out", str(datadir / "p.json"),
        ])
        assert rc == 1
        assert err_line(capsys).startswith("error:config: ")

    def test_missing_data_file_is_io_error(self, tmp_path, capsys):
        rc = main([
            "select", "--data", str(tmp_path / "absent.csv"),
            "--method", "centroid", "--out", str(tmp_path / "p.json"),
        ])
        assert rc == 1
        line = err_line(capsys)
        assert re.match(r"^error:[a-z-]+: ", line)


class TestTrainAndGcpFlow:
    def test_train_select_eval_round_trip(self, datadir, capsys):
        gallery = str(datadir / "data" / "gallery.csv")
        queries = str(datadir / "data" / "queries.csv")
        gcp_cfg = datadir / "gcp.json"
        gcp_cfg.write_text(json.dumps(TINY_GCP), encoding="utf-8")
        ckpt = str(datadir / "model.gcpm")

        rc = main(["train", "--data", gallery, "--config", str(gcp_cfg),
                   "--out", ckpt])
        assert rc == 0
        model = load_model(ckpt)
        assert model.config.epochs == 2

        rc = main(["select", "--data", gallery, "--method", "gcp",
                   "--checkpoint", ckpt, "--n", "2",
                   "--out", str(datadir / "gp.json")])
        assert rc == 0
        pset = load_prototypes(datadir / "gp.json")
        assert all(len(rows) == 2 for rows in pset.per_class.values())

        rc = main(["eval", "--data", gallery, "--queries", queries,
                   "--method", "gcp", "--checkpoint", ckpt,
                   "--protocol", "camera-filter",
                   "--out", str(datadir / "run")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "top1=" in out and "map=" in out
        report = json.loads((datadir / "run" / "report.json").read_text())
        assert report["n_queries"] == 12

    def test_select_and_eval_default_to_one_count(self, datadir):
        # the checkpoint's n_prototypes (2) is a training setting; without
        # --n both commands take SelectorConfig's default
        gallery = str(datadir / "data" / "gallery.csv")
        gcp_cfg = datadir / "gcp.json"
        gcp_cfg.write_text(json.dumps(TINY_GCP), encoding="utf-8")
        ckpt = str(datadir / "model.gcpm")
        assert main(["train", "--data", gallery, "--config", str(gcp_cfg), "--out", ckpt]) == 0
        assert main(["select", "--data", gallery, "--method", "gcp", "--checkpoint", ckpt,
                     "--out", str(datadir / "gp.json")]) == 0
        assert main(["eval", "--data", gallery, "--queries", str(datadir / "data" / "queries.csv"),
                     "--method", "gcp", "--checkpoint", ckpt, "--out", str(datadir / "run")]) == 0
        selected = load_prototypes(datadir / "gp.json")
        evaluated = load_prototypes(datadir / "run" / "prototypes.json")
        counts = {c: len(rows) for c, rows in selected.per_class.items()}
        assert counts == {c: len(rows) for c, rows in evaluated.per_class.items()}
        assert counts == {c: SelectorConfig().n_prototypes for c in range(4)}

    @pytest.mark.parametrize("method", ["centroid", "gcp"])
    def test_select_refuses_n_zero_alike(self, datadir, capsys, method):
        rc = main(["select", "--data", str(datadir / "data" / "gallery.csv"),
                   "--method", method, "--checkpoint", str(datadir / "absent.gcpm"),
                   "--n", "0", "--out", str(datadir / "p.json")])
        assert rc == 1
        assert err_line(capsys) == "error:config: n_prototypes must be >= 1, got 0"


class TestUnseenQueryCamera:
    """A query camera the gallery lacks excludes nothing under camera-filter,
    for the learned generator as for the heuristic selectors."""

    def relabelled(self, datadir) -> str:
        # the first query's camera becomes a label no gallery record carries;
        # aligned to the gallery it is camera 3, past the model's 3 cameras
        path = datadir / "data" / "queries.csv"
        header, first, *rest = path.read_text(encoding="utf-8").splitlines()
        qid, cls, _, coords = first.split(",", 3)
        out = datadir / "queries_cam9.csv"
        out.write_text("\n".join([header, f"{qid},{cls},9,{coords}", *rest]) + "\n", "utf-8")
        return str(out)

    def run_eval(self, datadir, capsys, queries, *flags):
        rc = main(["eval", "--data", str(datadir / "data" / "gallery.csv"), "--queries", queries,
                   "--protocol", "camera-filter", *flags])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        return captured.out

    def test_gcp_and_centroid_run(self, datadir, capsys):
        queries = self.relabelled(datadir)
        gcp_cfg = datadir / "gcp.json"
        gcp_cfg.write_text(json.dumps(TINY_GCP), encoding="utf-8")
        ckpt = str(datadir / "model.gcpm")
        assert main(["train", "--data", str(datadir / "data" / "gallery.csv"),
                     "--config", str(gcp_cfg), "--out", ckpt]) == 0
        capsys.readouterr()
        self.run_eval(datadir, capsys, queries, "--method", "gcp", "--checkpoint", ckpt,
                      "--out", str(datadir / "run"))
        # the report the centroid run printed before the camera rule moved
        out = self.run_eval(datadir, capsys, queries, "--method", "centroid",
                            "--out", str(datadir / "run_c"))
        assert out == "queries=12 top1=1.0 map=1.0\n"
        # one exclusion rule: both families form and flag the same groups
        groups, centroid_groups = (
            json.loads((datadir / run / "camera_filter_groups.json").read_text())
            for run in ("run", "run_c")
        )
        assert groups[0] == {"class": 0, "camera": 3, "fallback": False}
        assert groups == centroid_groups


class TestEval:
    def test_flag_only_run(self, datadir, capsys):
        rc = main([
            "eval", "--data", str(datadir / "data" / "gallery.csv"),
            "--queries", str(datadir / "data" / "queries.csv"),
            "--method", "centroid",
        ])
        assert rc == 0
        assert "queries=12" in capsys.readouterr().out

    def test_incomplete_flags_fail(self, datadir, capsys):
        rc = main(["eval", "--data", str(datadir / "data" / "gallery.csv")])
        assert rc == 1
        assert err_line(capsys).startswith("error:config: ")

    def test_config_file_run(self, datadir, capsys):
        cfg = {
            "version": 1,
            "data": {"path": str(datadir / "data" / "gallery.csv")},
            "queries": {"path": str(datadir / "data" / "queries.csv")},
            "selector": {"method": "alphafps", "n": 2, "alpha": 0.25},
        }
        path = datadir / "exp.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        rc = main(["eval", "--config", str(path)])
        assert rc == 0
        assert "top1=" in capsys.readouterr().out

    def test_flags_override_config(self, datadir, capsys):
        cfg = {
            "version": 1,
            "data": {"path": str(datadir / "data" / "gallery.csv")},
            "queries": {"path": str(datadir / "data" / "queries.csv")},
            "selector": {"method": "centroid"},
        }
        path = datadir / "exp.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        rc = main(["eval", "--config", str(path), "--method", "instance",
                   "--out", str(datadir / "o")])
        assert rc == 0
        resolved = json.loads((datadir / "o" / "resolved_config.json").read_text())
        assert resolved["selector"]["method"] == "instance"

    @pytest.mark.parametrize(
        "edit",
        [
            lambda c: c["selector"].update(n="abc"),
            lambda c: c.update(sweep={"axis": "n", "values": 5}),
            lambda c: c.update(data={"synthetic": {**SMALL_SPEC, "n_classes": "4"}}),
            lambda c: c.update(selector={"method": "gcp"}, gcp={**TINY_GCP, "dim": "8"}),
            lambda c: c.update(per_query_ap="no"),
            lambda c: c.update(selector={"method": "gcp"}, gcp=[]),
            lambda c: c.update(sweep={"values": [1, 2]}),
            lambda c: c.update(max_rank=2**63),
            lambda c: c.update(max_rank=2**62),
        ],
        ids=["selector-n", "sweep-values", "synthetic-n-classes", "gcp-dim",
             "per-query-ap-string", "gcp-empty-list", "sweep-without-axis",
             "max-rank-past-int64", "max-rank-past-cmc"],
    )
    def test_wrong_typed_field_prints_one_error_line(self, datadir, capsys, edit):
        cfg = {
            "version": 1,
            "data": {"path": str(datadir / "data" / "gallery.csv")},
            "queries": {"path": str(datadir / "data" / "queries.csv")},
            "selector": {"method": "centroid"},
        }
        edit(cfg)
        path = datadir / "exp.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        rc = main(["eval", "--config", str(path)])
        assert rc == 1
        assert err_line(capsys).startswith("error:config: ")

    def test_data_not_utf8_prints_one_error_line(self, datadir, capsys):
        gallery = datadir / "data" / "gallery.csv"
        header, first, rest = gallery.read_bytes().split(b"\n", 2)
        rec_id, label, tail = first.split(b",", 2)
        first = b",".join([rec_id, label + b"\xff\xfe", tail])
        gallery.write_bytes(b"\n".join([header, first, rest]))
        rc = main([
            "eval", "--data", str(gallery),
            "--queries", str(datadir / "data" / "queries.csv"),
            "--method", "centroid",
        ])
        assert rc == 1
        line = err_line(capsys)
        assert line.startswith("error:format: ") and "not UTF-8" in line

    @pytest.mark.parametrize("damaged", ["data", "checkpoint"])
    def test_trailing_bytes_print_one_error_line(self, datadir, capsys, damaged):
        gallery = datadir / "data" / "gallery.gcpe"
        save_embedding_set(load_embedding_set(datadir / "data" / "gallery.csv"), gallery)
        args = ["eval", "--data", str(gallery),
                "--queries", str(datadir / "data" / "queries.csv")]
        if damaged == "checkpoint":
            gcp_cfg = datadir / "gcp.json"
            gcp_cfg.write_text(json.dumps(TINY_GCP), encoding="utf-8")
            target = datadir / "model.gcpm"
            assert main(["train", "--data", str(gallery), "--config", str(gcp_cfg),
                         "--out", str(target)]) == 0
            args += ["--method", "gcp", "--checkpoint", str(target)]
        else:
            target = gallery
            args += ["--method", "centroid"]
        assert main(args) == 0
        capsys.readouterr()
        target.write_bytes(target.read_bytes() + bytes(8))
        assert main(args) == 1
        line = err_line(capsys)
        assert line.startswith("error:format: ") and "8 extra bytes" in line

    def test_invalid_config_json(self, datadir, capsys):
        path = datadir / "broken.json"
        path.write_text("{oops", encoding="utf-8")
        rc = main(["eval", "--config", str(path)])
        assert rc == 1
        assert err_line(capsys).startswith("error:format: ")


class TestSweepAndGroup:
    def test_sweep_n(self, datadir, capsys):
        rc = main([
            "sweep-n", "--data", str(datadir / "data" / "gallery.csv"),
            "--queries", str(datadir / "data" / "queries.csv"),
            "--method", "kcentroid", "--values", "1,2",
            "--out", str(datadir / "sw"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("n=") == 2
        csv = (datadir / "sw" / "sweep_n.csv").read_text().splitlines()
        assert csv[0] == "n,top1,map"

    def test_sweep_n_bad_values(self, datadir, capsys):
        rc = main([
            "sweep-n", "--data", str(datadir / "data" / "gallery.csv"),
            "--queries", str(datadir / "data" / "queries.csv"),
            "--method", "kcentroid", "--values", "1,zebra",
        ])
        assert rc == 1
        assert err_line(capsys).startswith("error:config: ")

    def test_sweep_alpha(self, datadir, capsys):
        rc = main([
            "sweep-alpha", "--data", str(datadir / "data" / "gallery.csv"),
            "--queries", str(datadir / "data" / "queries.csv"),
            "--method", "alphafps", "--values", "0.0,0.5,1.0",
        ])
        assert rc == 0
        assert capsys.readouterr().out.count("alpha=") == 3

    def test_group_eval(self, datadir, capsys):
        rc = main([
            "group-eval", "--data", str(datadir / "data" / "gallery.csv"),
            "--queries", str(datadir / "data" / "queries.csv"),
            "--method", "centroid", "--buckets", "1-99,100+",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bucket=1-99 count=12" in out
        assert "bucket=100+ count=0 map=absent" in out


class TestEntryPoints:
    def test_script_imports_and_package_names_resolve(self):
        # the suite runs neither the script nor every export, so a renamed
        # function would otherwise break them without a failing test
        path = Path(__file__).resolve().parent.parent / "scripts" / "run_tradeoff_experiment.py"
        spec = importlib.util.spec_from_file_location("run_tradeoff_experiment", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert callable(script.main)
        for name in gcproto.__all__:
            assert getattr(gcproto, name) is not None, name

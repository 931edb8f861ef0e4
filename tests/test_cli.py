"""Command-line interface: full gen/train/select/eval flows in a temp
directory, exit codes, and the single-line stderr error contract, named
and fuzzed over drawn command lines."""

import importlib.util
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_schema import assert_clean_exit, cli, same_files

import gcproto
from gcproto.cli import main
from gcproto.errors import ConfigError
from gcproto.harness import PROTOCOL_CHOICES, ExperimentConfig
from gcproto.model import GcpConfig, load_model, save_model, train
from gcproto.schema import from_json, read_json_object, to_json
from gcproto.selectors import SelectorConfig
from gcproto.store import METHODS, save_embedding_set
from gcproto.synthetic import SyntheticSpec, generate_synthetic, tradeoff_spec

TINY_GCP = {
    "dim": 6, "n_blocks": 1, "n_heads": 2, "ffn_dim": 8, "dropout_rate": 0.0,
    "n_prototypes": 2, "n_cameras": 3, "batch_classes": 4,
    "instances_per_class": 4, "epochs": 2,
}

README = Path(__file__).resolve().parent.parent / "README.md"

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

    @pytest.mark.parametrize("command", ["gen", "eval"])
    @pytest.mark.parametrize("key", ["ring_spacing", "tail_fraction", "tail_angle_deg"])
    def test_removed_synthetic_key_is_one_config_line(self, tmp_path, command, key):
        # an older config holding a setting the generator no longer has
        spec = {**SMALL_SPEC, key: 0.0}
        if command == "eval":
            spec = {"data": {"synthetic": spec}, "selector": {"method": "centroid"}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        rc, err = cli([command, "--config", path, "--out", tmp_path / "out"])
        assert (rc, err.count("\n")) == (1, 1), err
        assert err.startswith("error:config: unknown ") and repr(key) in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["gen", "eval"])
    def test_ranged_class_size_is_one_config_line(self, tmp_path, command):
        # an older config holding an (lo, hi) class-size range
        spec = {**SMALL_SPEC, "instances_per_class": [4, 9]}
        if command == "eval":
            spec = {"data": {"synthetic": spec}, "selector": {"method": "centroid"}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        rc, err = cli([command, "--config", path, "--out", tmp_path / "out"])
        assert (rc, err.count("\n")) == (1, 1), err
        assert err.startswith("error:config: ") and "instances_per_class" in err, err
        assert not (tmp_path / "out").exists()

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
        classes = read_json_object(out)["classes"]
        assert {c: len(rows) for c, rows in classes.items()} == {str(c): 1 for c in range(4)}

    def test_omitted_flags_keep_selector_config_defaults(self, datadir):
        out = datadir / "protos.json"
        rc = main([
            "select", "--data", str(datadir / "data" / "gallery.csv"),
            "--method", "alphafps", "--n", "2", "--out", str(out),
        ])
        assert rc == 0
        default = SelectorConfig()
        assert read_json_object(out)["params_echo"] == {
            "method": "alphafps", "n": 2, "alpha": default.alpha,
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
        classes = read_json_object(datadir / "gp.json")["classes"]
        assert all(len(rows) == 2 for rows in classes.values())

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
        selected = read_json_object(datadir / "gp.json")["classes"]
        evaluated = read_json_object(datadir / "run" / "prototypes.json")["classes"]
        counts = {c: len(rows) for c, rows in selected.items()}
        assert counts == {c: len(rows) for c, rows in evaluated.items()}
        assert counts == {str(c): SelectorConfig().n_prototypes for c in range(4)}

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
        # the config's own rule refuses the first missing piece
        rc = main(["eval", "--data", str(datadir / "data" / "gallery.csv")])
        assert rc == 1
        assert err_line(capsys) == "error:config: missing required key 'selector.method'"

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
        # the generated gallery, whose labels are its ids: the CSV file names
        # cameras in order of appearance, which .gcpe cannot store
        gallery = datadir / "data" / "gallery.gcpe"
        save_embedding_set(generate_synthetic(SyntheticSpec(**SMALL_SPEC))[0], gallery)
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

    def write_config(self, datadir, **extra):
        cfg = {
            "version": 1,
            "data": {"path": str(datadir / "data" / "gallery.csv")},
            "queries": {"path": str(datadir / "data" / "queries.csv")},
            "selector": {"method": "alphafps"},
            **extra,
        }
        path = datadir / "exp.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path

    def test_sweep_n_refuses_alpha_axis_config(self, datadir):
        # [1] would be a valid N, but a file's values serve only its own axis
        path = self.write_config(datadir, sweep={"axis": "alpha", "values": [1]})
        rc, err = cli(["sweep-n", "--config", path])
        assert (rc, err.count("\n")) == (1, 1), err
        assert err.startswith("error:config: ") and "axis 'n'" in err, err
        rc, err = cli(["sweep-n", "--config", path, "--values", "1,2"])
        assert (rc, err) == (0, "")

    def test_sweep_alpha_refuses_n_axis_config(self, datadir):
        path = self.write_config(datadir, sweep={"axis": "n", "values": [1]})
        rc, err = cli(["sweep-alpha", "--config", path])
        assert (rc, err.count("\n")) == (1, 1), err
        assert err.startswith("error:config: ") and "axis 'alpha'" in err, err

    @pytest.mark.parametrize(
        "command,written",
        [("eval", "report.json"), ("sweep-n", "sweep_n.csv"), ("group-eval", "group_eval.csv")],
    )
    def test_config_out_dir_without_out_flag(self, datadir, command, written):
        out = datadir / "from_config"
        path = self.write_config(
            datadir, sweep={"axis": "n", "values": [1]}, group_buckets=["1+"], out_dir=str(out)
        )
        assert cli([command, "--config", path]) == (0, "")
        assert (out / written).is_file()


# command lines refused before any file is read: (argv, message)
REFUSALS = [
    (["select", "--data", "g.csv", "--method", "bogus", "--out", "p.json"],
     "unknown method 'bogus' (choose from "),
    (["select", "--data", "g.csv", "--method", "centroid", "--n", "abc", "--out", "p.json"],
     "argument --n: invalid int value: 'abc'"),
    (["eval", "--data", "g.csv", "--queries", "q.csv", "--method", "centroid",
      "--protocol", "bogus"], "unknown protocol 'bogus' (choose from "),
    (["select", "--data", "g.csv", "--method", "centroid"],
     "the following arguments are required: --out"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    (["eval", "--bogus"], "unrecognized arguments: --bogus"),
    (["eval", "--bogus", "a\nb"], "unrecognized arguments: --bogus a b"),
    # each --values item is read as --n reads its value; none is dropped
    (["sweep-n", "--values", "1,,2"], "argument --values: invalid int list value: '1,,2'"),
    (["sweep-n", "--values", ""], "argument --values: invalid int list value: ''"),
]


class TestFlagsAreConfigKeys:
    @pytest.mark.parametrize(
        "argv,message", REFUSALS,
        ids=["method", "n-not-int", "protocol", "missing-out", "subcommand", "unknown-flag",
             "line-break-in-value", "values-empty-item", "values-empty"],
    )
    def test_refusal_is_one_config_line(self, argv, message):
        rc, err = cli(argv)
        assert (rc, err.count("\n")) == (1, 1), err
        assert err.startswith("error:config: ") and message in err, err

    @pytest.mark.parametrize("command", ["select", "eval"])
    def test_method_flag_reads_the_older_spelling(self, datadir, command):
        data = datadir / "data"
        argv = [command, "--data", data / "gallery.csv", "--method", "alpha_fps"]
        if command == "select":
            argv += ["--out", datadir / "protos.json"]
            written = datadir / "protos.json"
        else:
            argv += ["--queries", data / "queries.csv", "--out", datadir / "run"]
            written = datadir / "run" / "prototypes.json"
        assert cli(argv) == (0, "")
        assert read_json_object(written)["selector"] == "alphafps"

    def test_gen_seed_flag_on_a_preset_is_that_spec_with_the_seed(self, tmp_path):
        (tmp_path / "preset.json").write_text(json.dumps({"preset": "tradeoff"}), "utf-8")
        spec = {**to_json(tradeoff_spec()), "seed": 7}
        (tmp_path / "spec.json").write_text(json.dumps(spec), "utf-8")
        argv = ["gen", "--config", tmp_path / "preset.json", "--seed", 7, "--out", tmp_path / "a"]
        assert cli(argv) == (0, "")
        assert cli(["gen", "--config", tmp_path / "spec.json", "--out", tmp_path / "b"]) == (0, "")
        assert same_files(
            tmp_path / "a", tmp_path / "b", ["gallery.csv", "queries.csv", "synthetic_spec.json"]
        )
        assert read_json_object(tmp_path / "a" / "synthetic_spec.json") == spec

    def test_train_seed_flag_overrides_the_config_seed(self, datadir):
        gallery = datadir / "data" / "gallery.csv"
        for seed in (1, 2):
            path = datadir / f"seed{seed}.json"
            path.write_text(json.dumps({**TINY_GCP, "epochs": 1, "seed": seed}), "utf-8")
        argv = ["train", "--data", gallery, "--config", datadir / "seed1.json", "--seed", 2]
        assert cli([*argv, "--out", datadir / "flag.gcpm"]) == (0, "")
        argv = ["train", "--data", gallery, "--config", datadir / "seed2.json"]
        assert cli([*argv, "--out", datadir / "file.gcpm"]) == (0, "")
        assert load_model(datadir / "flag.gcpm").config.seed == 2
        assert (datadir / "flag.gcpm").read_bytes() == (datadir / "file.gcpm").read_bytes()

    @pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"]], ids=" ".join)
    def test_help_exits_zero_and_lists_the_methods(self, capsys, argv):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 0
        assert ", ".join(METHODS) in " ".join(capsys.readouterr().out.split())


# -- fuzzing the command line --------------------------------------------

EVAL_FLAGS = ("--data", "--queries", "--method", "--n", "--alpha", "--protocol", "--seed",
              "--checkpoint", "--config", "--out")
COMMAND_FLAGS = {
    "gen": ("--config", "--seed", "--out"),
    "select": ("--data", "--method", "--n", "--alpha", "--seed", "--checkpoint", "--out"),
    "train": ("--data", "--config", "--seed", "--out"),
    "eval": EVAL_FLAGS,
    "sweep-n": (*EVAL_FLAGS, "--values"),
    "sweep-alpha": (*EVAL_FLAGS, "--values"),
    "group-eval": (*EVAL_FLAGS, "--buckets"),
}
# the files every path flag draws from: valid inputs of each kind, broken
# JSON of three shapes, and a path that does not exist
FUZZ_FILES = ["gallery.csv", "queries.csv", "model.gcpm", "experiment.json", "spec.json",
              "train.json", "invalid.json", "array.json", "empty.json", "absent.json"]
CONFIG_FILES = {"gen": "spec.json", "train": "train.json"}  # else experiment.json
junk = st.text(st.characters(exclude_characters="\x00"), max_size=6)  # argv holds no NUL
# (valid, invalid) values of each flag that takes neither a path nor --values
FLAG_VALUES = {
    "--method": ([*METHODS, "alpha_fps"], ["bogus", "alpha-fps"]),
    "--n": (["1", "2"], ["0", "-1", "1.5", "abc"]),
    "--alpha": (["0", "0.5", "1"], ["1.5", "-0.5", "nan", "abc"]),
    "--seed": (["0", "7"], ["-1", "abc"]),
    "--protocol": (PROTOCOL_CHOICES, ["bogus"]),
    "--buckets": (["1-5,6+", "1+"], ["1-5, 6+", "6+", "bogus", ""]),
}


def flag_values(flag, command, files, out):
    """The (valid, invalid) value strategies of ``flag`` under ``command``."""
    if flag in FLAG_VALUES:
        valid, invalid = FLAG_VALUES[flag]
        return st.sampled_from(valid), st.sampled_from(invalid) | junk
    if flag == "--values":
        valid = "1,2" if command == "sweep-n" else "0.5,1"
        return st.just(valid), st.sampled_from(["2.5", "0", "abc", "", "1,,2"]) | junk
    if flag == "--out":  # a new path, or one below a file
        return st.just(out / "out"), st.just(files / "gallery.csv" / "out")
    valid = {"--data": "gallery.csv", "--queries": "queries.csv", "--checkpoint": "model.gcpm",
             "--config": CONFIG_FILES.get(command, "experiment.json")}[flag]
    return st.just(files / valid), st.sampled_from(FUZZ_FILES).map(files.joinpath)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """The ``FUZZ_FILES`` the command-line fuzz draws from."""
    root = tmp_path_factory.mktemp("fuzz")
    gallery, queries = generate_synthetic(from_json(SyntheticSpec, SMALL_SPEC))
    save_embedding_set(gallery, root / "gallery.csv")
    save_embedding_set(queries, root / "queries.csv")
    gcp = {**TINY_GCP, "epochs": 1}
    save_model(train(gallery, from_json(GcpConfig, gcp))[0], root / "model.gcpm")
    experiment = {
        "version": 1,
        "data": {"path": str(root / "gallery.csv")},
        "queries": {"path": str(root / "queries.csv")},
        "selector": {"method": "centroid"},
    }
    texts = {
        "experiment.json": json.dumps(experiment), "spec.json": json.dumps(SMALL_SPEC),
        "train.json": json.dumps(gcp), "invalid.json": "{oops", "array.json": "[1, 2]",
        "empty.json": "",
    }
    for name, text in texts.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_every_command_line_exits_0_or_1_with_one_line(fuzz_files, tmp_path_factory, data):
    # each flag of the drawn subcommand is valid, invalid or missing, most
    # often valid, so that the runs reach the files and the pipeline
    out = tmp_path_factory.mktemp("out")
    command = data.draw(st.sampled_from([*COMMAND_FLAGS, "bogus"]), label="command")
    argv = [command]
    for flag in COMMAND_FLAGS.get(command, ()):
        valid, invalid = flag_values(flag, command, fuzz_files, out)
        kind = data.draw(st.sampled_from(["valid"] * 4 + ["invalid", "missing"]), label=flag)
        if kind != "missing":
            argv += [flag, data.draw(valid if kind == "valid" else invalid, label=flag)]
    if data.draw(st.integers(0, 9), label="unknown flag") == 0:
        argv += ["--bogus", data.draw(junk, label="--bogus")]
    assert_clean_exit(*cli(argv))


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


def readme_blocks(lang):
    """The README's fenced code blocks of language ``lang``, in order."""
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


def transcript(block):
    """[command, printed output] pairs of a console block: a ``$ `` line
    with its ``\\`` continuations, then the non-blank lines up to the next
    command."""
    steps, lines = [], iter(block.splitlines())
    for line in lines:
        if line.startswith("$ "):
            cmd = line[2:]
            while cmd.endswith("\\"):
                cmd = cmd[:-1] + next(lines)
            steps.append([cmd, ""])
        elif line:
            steps[-1][1] += line + "\n"
    return steps


class TestReadme:
    # the README's examples, run as written, so its numbers cannot drift;
    # the 250-epoch training runs are left out for time

    def test_library_quick_start_prints_its_comment(self, capsys):
        code = readme_blocks("python")[0]
        exec(compile(code, str(README), "exec"), {})
        printed = [line[2:] for line in code.splitlines() if line.startswith("# ")]
        assert printed
        assert capsys.readouterr().out.splitlines() == printed

    def test_command_line_transcript_before_training(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        steps = transcript(readme_blocks("console")[0])
        heads = [shlex.split(cmd)[:2] for cmd, _ in steps]
        steps = steps[: heads.index(["gcproto", "train"])]
        assert heads[: len(steps)] == [
            ["echo", '{"preset": "tradeoff"}'], ["gcproto", "gen"], ["gcproto", "eval"],
        ]
        assert "--method centroid" in steps[2][0]
        for cmd, printed in steps:
            args = shlex.split(cmd)
            if args[0] == "echo":  # echo TEXT > FILE
                Path(args[3]).write_text(args[1] + "\n", encoding="utf-8")
                continue
            capsys.readouterr()
            assert main(args[1:]) == 0
            assert capsys.readouterr().out == printed

    def test_config_examples_name_live_keys(self):
        # the experiment.json block, and each inline `"key": value` example
        # placed in that config, read through from_json: a key the config
        # no longer has is refused as unknown
        block = readme_blocks("console")[1]
        doc = json.loads(block.split("$ cat experiment.json\n")[1].split("\n$ ")[0])
        from_json(ExperimentConfig, doc)
        examples = re.findall(r'`("\w+": [^`]+)`', README.read_text(encoding="utf-8"))
        assert examples
        for example in examples:
            (key, value), = json.loads("{" + example + "}").items()
            if key == "values" and all(type(v) is int for v in value):  # an N sweep
                edited = {**doc, "sweep": {"axis": "n", "values": value}}
                assert from_json(ExperimentConfig, edited).sweep_values == value
            elif key == "values":  # the README's refused alpha sweep
                edited = {**doc, "selector": {"method": "alphafps"},
                          "sweep": {"axis": "alpha", "values": value}}
                with pytest.raises(ConfigError, match="sweep alpha values"):
                    from_json(ExperimentConfig, edited)
            else:
                edited = {**doc, "data": {"synthetic": {key: value}}}
                assert to_json(from_json(ExperimentConfig, edited).synthetic)[key] == value

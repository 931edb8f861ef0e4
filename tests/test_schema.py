"""The one JSON schema behind every config: round trips of every config
dataclass, the gen echo and the resolved config, and fuzzing of every JSON
reader (only a GcprotoError escapes; the CLI prints one error line)."""

import contextlib
import copy
import dataclasses
import io
import json
import math
import re
import struct
import typing

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from gcproto.cli import main
from gcproto.errors import ConfigError, GcprotoError
from gcproto.harness import (
    PROTOCOL_CHOICES,
    ExperimentConfig,
    load_prototypes,
    save_prototypes,
)
from gcproto.model import GcpConfig, save_model, train
from gcproto.retrieval import AP_MODES
from gcproto.schema import from_json, read_json_object, to_json
from gcproto.selectors import METHODS, SelectorConfig, run_selector
from gcproto.store import save_embedding_set
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

# -- valid configs, with ints and integer-valued floats in float fields ----

text = st.text(max_size=8)
unit = st.floats(0, 1) | st.integers(0, 1)
unit_open = st.floats(0, 1, exclude_max=True) | st.just(0)
nonneg = st.floats(0, 1e6) | st.integers(0, 100).map(float) | st.integers(0, 10**6)
positive = st.floats(1e-6, 1e6) | st.integers(1, 100).map(float) | st.integers(1, 10**6)
seeds = st.integers(0, 2**32)

selector_configs = st.builds(
    SelectorConfig,
    method=st.sampled_from(METHODS),
    n_prototypes=st.integers(1, 20),
    alpha=unit,
    kmeans_max_iters=st.integers(1, 1000),
    kmeans_tol=positive,
    seed=seeds,
)


@st.composite
def gcp_configs(draw):
    heads = draw(st.integers(1, 4))
    return GcpConfig(
        dim=heads * draw(st.integers(1, 8)),
        n_blocks=draw(st.integers(1, 6)),
        n_heads=heads,
        ffn_dim=draw(st.integers(1, 512)),
        dropout_rate=draw(unit_open),
        n_prototypes=draw(st.integers(1, 10)),
        margin=draw(positive),
        lam=draw(nonneg),
        lr=draw(nonneg),
        momentum=draw(unit_open),
        weight_decay=draw(nonneg),
        batch_classes=draw(st.integers(1, 64)),
        instances_per_class=draw(st.integers(1, 64)),
        epochs=draw(st.integers(1, 500)),
        n_cameras=draw(st.integers(1, 8)),
        seed=draw(seeds),
    )


@st.composite
def synthetic_specs(draw, small=False):
    """Valid specs; ``small`` keeps generation to a few dozen records."""
    top = 4 if small else 200
    scale = st.floats(0, 10) | st.integers(0, 10)
    ranges = st.tuples(st.integers(1, 4), st.integers(0, 3)).map(lambda t: (t[0], t[0] + t[1]))
    layout = draw(st.sampled_from(["free", "chain", "ring"]))
    return SyntheticSpec(
        n_classes=draw(st.integers(1, top)),
        instances_per_class=draw(st.integers(1, 6) | ranges),
        dim=draw(st.integers(2, 6 if small else 64)),
        n_cameras=draw(st.integers(1, 4)),
        class_center_scale=draw(st.floats(0.1, 10) | st.integers(1, 10)),
        within_class_noise=draw(scale),
        camera_offset_scale=draw(scale),
        elongation_scale=draw(scale | st.tuples(scale, scale).map(lambda t: tuple(sorted(t)))),
        elongation_floor=draw(unit_open),
        tail_fraction=draw(unit_open),
        tail_angle_deg=draw(st.floats(0, 90) | st.integers(0, 90)),
        chain_spacing=draw(scale) if layout == "chain" else 0.0,
        ring_spacing=draw(scale) if layout == "ring" else 0.0,
        queries_per_class=draw(st.integers(1 if small else 0, 3)),
        seed=draw(st.integers(0, 1000) if small else seeds),
    )


@st.composite
def experiment_configs(draw):
    source = draw(st.sampled_from(["file", "synthetic", "preset"]))
    kw = {}
    if source == "file":
        kw.update(data_path=draw(text), queries_path=draw(text))
    elif source == "synthetic":
        kw["synthetic"] = draw(synthetic_specs())
    else:
        kw["preset"] = "tradeoff"
    selector = draw(selector_configs)
    gcp = draw(st.none() | gcp_configs())
    checkpoint = draw(st.none() | text)
    if selector.method == "gcp" and gcp is None and checkpoint is None:
        checkpoint = "model.gcpm"
    axis = draw(st.sampled_from([None, "n", "alpha"]))
    values = {
        None: st.none(),
        "n": st.lists(st.integers(1, 10), min_size=1, max_size=4),
        "alpha": st.lists(unit, min_size=1, max_size=4),
    }[axis]
    return ExperimentConfig(
        selector=selector,
        gcp=gcp,
        checkpoint=checkpoint,
        protocol=draw(st.sampled_from(PROTOCOL_CHOICES)),
        sweep_axis=axis,
        sweep_values=draw(values),
        group_buckets=draw(st.sampled_from([None, ["1+"], ["1-10", "11+"]])),
        max_rank=draw(st.integers(1, 100)),
        ap_mode=draw(st.sampled_from(AP_MODES)),
        per_query_ap=draw(st.booleans()),
        out_dir=draw(st.none() | text),
        seed=draw(seeds),
        **kw,
    )


any_config = st.one_of(
    selector_configs.map(lambda c: (SelectorConfig, c)),
    synthetic_specs().map(lambda c: (SyntheticSpec, c)),
    gcp_configs().map(lambda c: (GcpConfig, c)),
    experiment_configs().map(lambda c: (ExperimentConfig, c)),
)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


def through_json_text(obj):
    return json.loads(json.dumps(to_json(obj)))


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(cls_and_config=any_config)
    def test_reader_inverts_writer(self, cls_and_config):
        cls, cfg = cls_and_config
        back = from_json(cls, through_json_text(cfg))
        assert back == cfg
        assert to_json(back) == to_json(cfg)

    def test_float_fields_read_as_floats(self):
        cfg = from_json(SyntheticSpec, {"class_center_scale": 3, "elongation_scale": [1, 2]})
        assert type(cfg.class_center_scale) is float
        assert [type(v) for v in cfg.elongation_scale] == [float, float]
        assert json.dumps(to_json(cfg)["elongation_scale"]) == "[1.0, 2.0]"

    @pytest.mark.parametrize(
        "cls,data,match",
        [
            (SelectorConfig, {"method": "fps", "alpha": True}, "alpha"),
            (SyntheticSpec, {"n_classes": True}, "n_classes"),
            (SyntheticSpec, {"elongation_scale": [1.0, 2.0, 3.0]}, "elongation_scale"),
            (SyntheticSpec, {"instances_per_class": [2.0, 3.0]}, "instances_per_class"),
            (GcpConfig, {"dim": 8.0}, "dim"),
            (GcpConfig, {"lr": 10**400}, "lr"),
            (GcpConfig, {"margins": 1.0}, "margins"),
            (ExperimentConfig, {"selector": {"method": "fps"}, "data": [1]}, "data"),
            (ExperimentConfig, {"selector": {"method": "fps"}, "data": {"preset": "tradeoff", "x": 1}}, "x"),
            (SelectorConfig, {"method": "kcentroid", "kmeans_tol": math.nan}, "kmeans_tol"),
            (GcpConfig, {"margin": math.nan}, "margin"),
            (GcpConfig, {"lr": math.inf}, "lr"),
            (SyntheticSpec, {"class_center_scale": math.inf}, "class_center_scale"),
            (SyntheticSpec, {"elongation_scale": [0.5, math.inf]}, "elongation_scale"),
            (ExperimentConfig, {"selector": {"method": "alphafps"}, "data": {"preset": "tradeoff"},
                                "sweep": {"axis": "alpha", "values": [-math.inf]}}, "sweep_values"),
        ],
        ids=["bool-alpha", "bool-count", "long-range", "float-range", "float-dim",
             "huge-int-float", "unknown-key", "data-list", "unknown-data-key",
             "nan-tol", "nan-margin", "inf-lr", "inf-scale", "inf-range-member",
             "inf-sweep-alpha"],
    )
    def test_rule_violations_are_config_errors(self, cls, data, match):
        with pytest.raises(ConfigError, match=match):
            from_json(cls, data)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_non_finite_floats_are_config_errors(self, data):
        # Python callers through the constructor, JSON callers through
        # from_json, which reads NaN and Infinity as json.loads does
        cls, cfg = data.draw(any_config)
        hints = typing.get_type_hints(cls)
        names = [
            f.name for f in dataclasses.fields(cls)
            if "float" in str(hints[f.name]) and getattr(cfg, f.name) is not None
        ]
        assume(names)
        name, bad = data.draw(st.sampled_from(names)), data.draw(non_finite)
        value = getattr(cfg, name)
        if isinstance(value, (tuple, list)):
            i = data.draw(st.integers(0, len(value) - 1))
            value = type(value)(bad if j == i else v for j, v in enumerate(value))
        else:
            value = bad
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, **{name: value})
        unchecked = copy.copy(cfg)
        object.__setattr__(unchecked, name, value)  # past frozen and __post_init__
        with pytest.raises(ConfigError):
            from_json(cls, through_json_text(unchecked))

    def test_caller_defaults_fill_absent_keys_only(self):
        assert from_json(GcpConfig, {}, {"dim": 8, "n_heads": 2}).dim == 8
        assert from_json(GcpConfig, {"dim": 4}, {"dim": 8}).dim == 4


def cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, err.getvalue()


def assert_clean_exit(rc, err):
    """Success, or exit 1 with exactly one ``error:<category>:`` line."""
    event(err.split(":")[1] if rc else "ok")
    if rc != 0:
        lines = err.splitlines()
        assert rc == 1 and len(lines) == 1, lines
        assert re.match(r"^error:[a-z-]+: ", lines[0]), lines[0]


def gen_twice(tmp, config_doc):
    """gen from ``config_doc``, then gen again from its echo; both outputs."""
    (tmp / "spec.json").write_text(json.dumps(config_doc), encoding="utf-8")
    assert cli(["gen", "--config", tmp / "spec.json", "--out", tmp / "a"]) == (0, "")
    assert cli(
        ["gen", "--config", tmp / "a" / "synthetic_spec.json", "--out", tmp / "b"]
    ) == (0, "")
    return tmp / "a", tmp / "b"


def same_files(a, b, names):
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


class TestEchoes:
    def test_gen_echo_of_preset_is_a_valid_config(self, tmp_path):
        a, b = gen_twice(tmp_path, {"preset": "tradeoff"})
        assert same_files(a, b, ["gallery.csv", "queries.csv", "synthetic_spec.json"])
        echo = read_json_object(a / "synthetic_spec.json")
        assert from_json(SyntheticSpec, echo) == tradeoff_spec()

    @settings(max_examples=15, deadline=None)
    @given(spec=synthetic_specs(small=True))
    def test_gen_echo_of_drawn_spec_is_a_valid_config(self, tmp_path_factory, spec):
        a, b = gen_twice(tmp_path_factory.mktemp("gen"), to_json(spec))
        assert same_files(a, b, ["gallery.csv", "queries.csv", "synthetic_spec.json"])

    @pytest.mark.parametrize("method", ["alphafps", "gcp"])
    def test_resolved_config_reproduces_report(self, tmp_path, method):
        doc = {
            "version": 1,
            "seed": 4,
            "data": {"synthetic": {**to_json(SMALL), "elongation_scale": [0.5, 2]}},
            "selector": {"method": method, "n": 2, "alpha": 1},
            "gcp": {**to_json(TINY_GCP), "margin": 1},
            "protocol": "camera-filter",
            "group_buckets": ["1-5", "6+"],
            "per_query_ap": True,
        }
        (tmp_path / "exp.json").write_text(json.dumps(doc), encoding="utf-8")
        assert cli(["eval", "--config", tmp_path / "exp.json", "--out", tmp_path / "a"])[0] == 0
        resolved = tmp_path / "a" / "resolved_config.json"
        assert cli(["eval", "--config", resolved, "--out", tmp_path / "b"])[0] == 0
        assert same_files(
            tmp_path / "a", tmp_path / "b",
            ["report.json", "report.csv", "prototypes.json", "resolved_config.json"],
        )

    @pytest.mark.parametrize(
        "file_seeds,expected",
        [
            ({"selector": 9, "synthetic": 5}, {"selector": 9, "synthetic": 5, "gcp": 7}),
            ({}, {"selector": 7, "synthetic": 7, "gcp": 7}),
        ],
        ids=["file-sets-some", "file-sets-none"],
    )
    def test_seed_flag_fills_only_seeds_the_file_left_out(self, tmp_path, file_seeds, expected):
        synthetic = {k: v for k, v in to_json(SMALL).items() if k != "seed"}
        gcp = {k: v for k, v in to_json(TINY_GCP).items() if k != "seed"}
        doc = {
            "version": 1,
            "seed": 1,
            "data": {"synthetic": synthetic},
            "selector": {"method": "kcentroid", "n": 2},
            "gcp": gcp,
        }
        if "selector" in file_seeds:
            doc["selector"]["seed"] = file_seeds["selector"]
        if "synthetic" in file_seeds:
            synthetic["seed"] = file_seeds["synthetic"]
        (tmp_path / "exp.json").write_text(json.dumps(doc), encoding="utf-8")
        argv = ["eval", "--config", tmp_path / "exp.json", "--seed", 7, "--out", tmp_path / "a"]
        assert cli(argv)[0] == 0
        resolved = read_json_object(tmp_path / "a" / "resolved_config.json")
        assert resolved["seed"] == 7
        assert {
            "selector": resolved["selector"]["seed"],
            "synthetic": resolved["data"]["synthetic"]["seed"],
            "gcp": resolved["gcp"]["seed"],
        } == expected
        argv = ["eval", "--config", tmp_path / "a" / "resolved_config.json", "--out", tmp_path / "b"]
        assert cli(argv)[0] == 0
        assert same_files(tmp_path / "a", tmp_path / "b", ["report.json", "resolved_config.json"])


# -- declared rules ------------------------------------------------------

def below(x):
    return math.nextafter(x, -math.inf)


def above(x):
    return math.nextafter(x, math.inf)


# Every single-field rule: (class, field, value just outside, value just inside).
SINGLE_FIELD_RULES = [
    (GcpConfig, "dim", 0, 1),
    (GcpConfig, "n_blocks", 0, 1),
    (GcpConfig, "n_heads", 0, 1),
    (GcpConfig, "ffn_dim", 0, 1),
    (GcpConfig, "dropout_rate", below(0.0), 0.0),
    (GcpConfig, "dropout_rate", 1.0, below(1.0)),
    (GcpConfig, "n_prototypes", 0, 1),
    (GcpConfig, "margin", 0.0, above(0.0)),
    (GcpConfig, "lam", below(0.0), 0.0),
    (GcpConfig, "lr", below(0.0), 0.0),
    (GcpConfig, "momentum", below(0.0), 0.0),
    (GcpConfig, "momentum", 1.0, below(1.0)),
    (GcpConfig, "weight_decay", below(0.0), 0.0),
    (GcpConfig, "batch_classes", 0, 1),
    (GcpConfig, "instances_per_class", 0, 1),
    (GcpConfig, "epochs", 0, 1),
    (GcpConfig, "n_cameras", 0, 1),
    (GcpConfig, "seed", -1, 0),
    (SelectorConfig, "method", "nope", "fps"),
    (SelectorConfig, "n_prototypes", 0, 1),
    (SelectorConfig, "alpha", below(0.0), 0.0),
    (SelectorConfig, "alpha", above(1.0), 1.0),
    (SelectorConfig, "kmeans_max_iters", 0, 1),
    (SelectorConfig, "kmeans_tol", 0.0, above(0.0)),
    (SelectorConfig, "seed", -1, 0),
    (SyntheticSpec, "n_classes", 0, 1),
    (SyntheticSpec, "instances_per_class", 0, 1),
    (SyntheticSpec, "instances_per_class", (0, 3), (1, 3)),
    (SyntheticSpec, "dim", 0, 1),
    (SyntheticSpec, "n_cameras", 0, 1),
    (SyntheticSpec, "class_center_scale", 0.0, above(0.0)),
    (SyntheticSpec, "within_class_noise", below(0.0), 0.0),
    (SyntheticSpec, "camera_offset_scale", below(0.0), 0.0),
    (SyntheticSpec, "elongation_scale", below(0.0), 0.0),
    (SyntheticSpec, "elongation_scale", (below(0.0), 1.0), (0.0, 1.0)),
    (SyntheticSpec, "elongation_floor", below(0.0), 0.0),
    (SyntheticSpec, "elongation_floor", 1.0, below(1.0)),
    (SyntheticSpec, "tail_fraction", below(0.0), 0.0),
    (SyntheticSpec, "tail_fraction", 1.0, below(1.0)),
    (SyntheticSpec, "tail_angle_deg", below(0.0), 0.0),
    (SyntheticSpec, "tail_angle_deg", above(90.0), 90.0),
    (SyntheticSpec, "chain_spacing", below(0.0), 0.0),
    (SyntheticSpec, "ring_spacing", below(0.0), 0.0),
    (SyntheticSpec, "queries_per_class", -1, 0),
    (SyntheticSpec, "seed", -1, 0),
    (ExperimentConfig, "preset", "nope", "tradeoff"),
    (ExperimentConfig, "protocol", "sideways", "camera-filter"),
    (ExperimentConfig, "ap_mode", "harmonic", "per_identity"),
    (ExperimentConfig, "seed", -1, 0),
]
# Rules over several fields or values: (class, other fields, field, value
# just outside, value just inside, error pattern).
MULTI_FIELD_RULES = [
    (GcpConfig, {"n_heads": 4}, "dim", 6, 8, "dim"),
    (SyntheticSpec, {}, "instances_per_class", (3, 2), (2, 2), "instances_per_class"),
    (SyntheticSpec, {}, "elongation_scale", (2.0, 1.0), (1.0, 1.0), "elongation_scale"),
    (SyntheticSpec, {"chain_spacing": 1.0}, "ring_spacing", 1.0, 0.0, "ring_spacing"),
    (SyntheticSpec, {"ring_spacing": 1.0}, "dim", 1, 2, "dim"),
    (SyntheticSpec, {"tail_angle_deg": 10.0}, "dim", 1, 2, "dim"),
    (ExperimentConfig, {}, "synthetic", SMALL, None, "data source"),
    (ExperimentConfig, {"preset": None}, "synthetic", None, SMALL, "data source"),
    (ExperimentConfig, {"data_path": "g.csv", "preset": None}, "queries_path", None, "q.csv",
     "queries_path"),
    (ExperimentConfig, {"sweep_axis": "n"}, "sweep_values", [0], [1], "sweep"),
    (ExperimentConfig, {}, "group_buckets", ["2+"], ["1+"], "bucket"),
    (ExperimentConfig, {}, "max_rank", 0, 1, "max_rank"),
    (ExperimentConfig, {}, "max_rank", 2**20 + 1, 2**20, "max_rank"),
    (ExperimentConfig, {"selector": SelectorConfig(method="gcp")}, "checkpoint", None,
     "m.gcpm", "checkpoint"),
]
# fields every row's class needs besides the ones under test
BASE = {
    GcpConfig: {"n_heads": 1},
    SelectorConfig: {},
    SyntheticSpec: {},
    ExperimentConfig: {"selector": SelectorConfig(), "preset": "tradeoff"},
}
BOUND_KEYS = {"ge", "gt", "le", "lt"}


def json_with(cls, cfg, name, value):
    """``to_json(cfg)`` with field ``name`` set to ``value`` under its JSON key."""
    doc = to_json(cfg)
    *group, key = next(f for f in dataclasses.fields(cls) if f.name == name).metadata.get(
        "json", name
    ).split(".")
    target = doc
    for g in group:
        if target.get(g) is None:
            target[g] = {}
        target = target[g]
    if dataclasses.is_dataclass(value):
        value = to_json(value)
    target[key] = list(value) if isinstance(value, tuple) else value
    return doc


def check_rule(cls, others, name, outside, inside, match):
    kwargs = {**BASE[cls], **others}
    cfg = cls(**{**kwargs, name: inside})
    assert getattr(cfg, name) == inside
    assert from_json(cls, to_json(cfg)) == cfg
    with pytest.raises(ConfigError, match=match):
        cls(**{**kwargs, name: outside})
    with pytest.raises(ConfigError, match=match):
        from_json(cls, json_with(cls, cfg, name, outside))


def holds_numbers(tp) -> bool:
    """Whether ``tp`` is int or float, or a union or tuple holding one."""
    if tp in (int, float):
        return True
    return typing.get_origin(tp) is not list and any(map(holds_numbers, typing.get_args(tp)))


class TestDeclaredRules:
    @pytest.mark.parametrize(
        "cls,name,outside,inside", SINGLE_FIELD_RULES,
        ids=[f"{c.__name__}.{n}={o!r}" for c, n, o, _ in SINGLE_FIELD_RULES],
    )
    def test_single_field_rule(self, cls, name, outside, inside):
        check_rule(cls, {}, name, outside, inside, rf"\b{name}\b")

    @pytest.mark.parametrize(
        "cls,others,name,outside,inside,match", MULTI_FIELD_RULES,
        ids=[f"{r[0].__name__}.{r[2]}-{i}" for i, r in enumerate(MULTI_FIELD_RULES)],
    )
    def test_multi_field_rule(self, cls, others, name, outside, inside, match):
        check_rule(cls, others, name, outside, inside, match)

    def test_message_forms(self):
        with pytest.raises(ConfigError, match=r"^n_blocks must be >= 1, got 0$"):
            GcpConfig(n_blocks=0)
        with pytest.raises(ConfigError, match=r"^unknown protocol 'x' \(choose from \("):
            ExperimentConfig(selector=SelectorConfig(), preset="tradeoff", protocol="x")

    @pytest.mark.parametrize("cls", list(BASE), ids=lambda c: c.__name__)
    def test_every_number_field_declares_a_bound(self, cls):
        # max_rank's bounds live in retrieval.check_max_rank, which evaluate shares
        hints = typing.get_type_hints(cls)
        unbounded = [
            f.name for f in dataclasses.fields(cls)
            if holds_numbers(hints[f.name]) and not BOUND_KEYS & set(f.metadata)
        ]
        assert unbounded == (["max_rank"] if cls is ExperimentConfig else [])

    @pytest.mark.parametrize("command", ["select", "eval"])
    def test_negative_seed_flag_prints_one_config_line(self, tmp_path, command):
        gallery, queries = generate_synthetic(SMALL)
        save_embedding_set(gallery, tmp_path / "gallery.csv")
        save_embedding_set(queries, tmp_path / "queries.csv")
        argv = [command, "--data", tmp_path / "gallery.csv", "--method", "kcentroid",
                "--seed", -1, "--out", tmp_path / "out"]
        if command == "eval":
            argv += ["--queries", tmp_path / "queries.csv"]
        assert cli(argv) == (1, "error:config: seed must be >= 0, got -1\n")


# -- fuzzing ---------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats() | non_finite
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated(draw, doc):
    """``doc`` with one value replaced, one key removed or one key added, at
    any depth; or any JSON value in its place."""
    if draw(st.integers(0, 9)) == 0:
        return draw(json_values)
    doc = copy.deepcopy(doc)
    target = doc
    while True:
        nested = sorted(k for k, v in target.items() if isinstance(v, dict))
        if not nested or draw(st.booleans()):
            break
        target = target[draw(st.sampled_from(nested))]
    keys = sorted(target)
    op = draw(st.sampled_from(["replace", "delete", "add"])) if keys else "add"
    if op == "replace":
        target[draw(st.sampled_from(keys))] = draw(json_values)
    elif op == "delete":
        del target[draw(st.sampled_from(keys))]
    else:
        target[draw(st.text(max_size=6))] = draw(json_values)
    return doc


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A tiny gallery file, a checkpoint trained on it, and a prototype
    file, shared by the fuzz tests."""
    root = tmp_path_factory.mktemp("world")
    gallery, _ = generate_synthetic(SMALL)
    save_embedding_set(gallery, root / "gallery.csv")
    model, _ = train(gallery, TINY_GCP)
    save_model(model, root / "model.gcpm")
    save_prototypes(run_selector(gallery, SelectorConfig(method="fps")), root / "protos.json")
    return root


EXPERIMENT_DOC = {
    "version": 1,
    "seed": 1,
    "data": {"synthetic": to_json(SMALL)},
    "selector": {"method": "alphafps", "n": 2, "alpha": 0.5},
    "gcp": to_json(TINY_GCP),
    "protocol": "camera-filter",
    "sweep": {"axis": "n", "values": [1, 2]},
    "group_buckets": ["1-5", "6+"],
    "max_rank": 5,
    "per_query_ap": False,
}


def with_config_block(raw: bytes, block) -> bytes:
    """A checkpoint whose config JSON is replaced by ``block``."""
    (length,) = struct.unpack_from("<I", raw, 8)
    data = json.dumps(block).encode("utf-8")
    return raw[:8] + struct.pack("<I", len(data)) + data + raw[12 + length :]


class TestFuzzReaders:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_config_readers_raise_only_config_errors(self, data):
        cls, base = data.draw(
            st.sampled_from([
                (ExperimentConfig, to_json(ExperimentConfig(
                    selector=SelectorConfig(method="gcp"), synthetic=SMALL,
                    gcp=TINY_GCP, sweep_axis="alpha", sweep_values=[0.5],
                    group_buckets=["1+"], checkpoint="m", out_dir="o",
                ))),
                (SyntheticSpec, to_json(SMALL)),
                (GcpConfig, to_json(TINY_GCP)),
                (SelectorConfig, to_json(SelectorConfig())),
            ])
        )
        doc = data.draw(mutated(base))
        try:
            cfg = from_json(cls, doc)
        except ConfigError:
            return
        assert from_json(cls, through_json_text(cfg)) == cfg

    @settings(max_examples=25, deadline=None)
    @given(doc=mutated(EXPERIMENT_DOC), command=st.sampled_from(["eval", "sweep-n"]))
    def test_experiment_config(self, world, tmp_path_factory, doc, command):
        tmp = tmp_path_factory.mktemp("exp")
        (tmp / "exp.json").write_text(json.dumps(doc), encoding="utf-8")
        assert_clean_exit(*cli([command, "--config", tmp / "exp.json", "--out", tmp / "out"]))

    @settings(max_examples=25, deadline=None)
    @given(doc=mutated(to_json(SMALL)))
    def test_gen_spec(self, tmp_path_factory, doc):
        tmp = tmp_path_factory.mktemp("gen")
        (tmp / "spec.json").write_text(json.dumps(doc), encoding="utf-8")
        assert_clean_exit(*cli(["gen", "--config", tmp / "spec.json", "--out", tmp / "out"]))

    @settings(max_examples=25, deadline=None)
    @given(doc=mutated(to_json(TINY_GCP)))
    def test_train_config(self, world, tmp_path_factory, doc):
        tmp = tmp_path_factory.mktemp("train")
        (tmp / "gcp.json").write_text(json.dumps(doc), encoding="utf-8")
        assert_clean_exit(*cli([
            "train", "--data", world / "gallery.csv", "--config", tmp / "gcp.json",
            "--out", tmp / "model.gcpm",
        ]))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_checkpoint_config_block(self, world, tmp_path_factory, data):
        raw = (world / "model.gcpm").read_bytes()
        (length,) = struct.unpack_from("<I", raw, 8)
        block = data.draw(mutated(json.loads(raw[12 : 12 + length])))
        tmp = tmp_path_factory.mktemp("ckpt")
        (tmp / "model.gcpm").write_bytes(with_config_block(raw, block))
        assert_clean_exit(*cli([
            "select", "--data", world / "gallery.csv", "--method", "gcp",
            "--checkpoint", tmp / "model.gcpm", "--out", tmp / "protos.json",
        ]))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_prototype_file(self, world, tmp_path_factory, data):
        doc = data.draw(mutated(json.loads((world / "protos.json").read_text())))
        path = tmp_path_factory.mktemp("protos") / "protos.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            load_prototypes(path)
        except GcprotoError:
            pass

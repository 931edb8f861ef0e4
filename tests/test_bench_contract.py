"""The names the benchmark's tracer wraps must exist where it looks them up.

``bench/spans.py`` replaces ``owner.__dict__[attr]`` for every target, so a
renamed or deleted function breaks only the benchmark unless this checks it.
A name wrapped in a calling module (``harness``, ``model``) must also still
be called there by that name, or its span would count nothing; so must
``retrieval.cdist``, whose calls count the camera-filter groups ranked.
The counts it takes must also mean what they say: every autodiff node goes
through ``Tensor.__init__``.  And the benchmark's own tests must pass.
"""

import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import gcproto.harness
import gcproto.model
import gcproto.retrieval
from gcproto.autodiff import Tensor
from gcproto.model import (
    ClassBatch,
    GcpConfig,
    GcpModel,
    generate_prototypes,
    init_params,
    loss_and_grads,
    mine_negative_distances,
)

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "bench" / "spans.py"
SRC_DIR = ROOT / "src"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for owner, attr, _ in SPANS.SPAN_TARGETS + SPANS.COUNT_TARGETS],
    ids=lambda x: x if isinstance(x, str) else getattr(x, "__name__", repr(x)),
)
def test_traced_name_is_defined_on_its_owner(owner, attr):
    assert attr in owner.__dict__


def called_names(module) -> set[str]:
    """The bare names called anywhere in ``module``'s source: ``f(...)``,
    not ``obj.f(...)``."""
    tree = ast.parse(inspect.getsource(module))
    return {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


@pytest.mark.parametrize(
    "owner, attr",
    [
        (owner, attr)
        for owner, attr, _ in SPANS.SPAN_TARGETS
        if owner in (gcproto.harness, gcproto.model) or (owner, attr) == (gcproto.retrieval, "cdist")
    ],
    ids=lambda x: x if isinstance(x, str) else x.__name__,
)
def test_module_wrapped_name_is_called_in_its_module(owner, attr):
    assert attr in called_names(owner)


def count_node_constructions() -> list[dict[str, int]]:
    """``Tensor.__new__`` and ``Tensor.__init__`` calls during one small
    ``generate_prototypes`` call and one ``loss_and_grads`` step.

    Patches ``Tensor`` for good: once a Python ``__new__`` is set on a
    class, deleting it leaves the slot looking the name up, and
    ``object.__new__`` then refuses the constructor's arguments.  Run it in
    its own interpreter.
    """
    calls: Counter = Counter()
    init = Tensor.__init__

    def counting_new(cls, *args, **kwargs):
        calls["new"] += 1
        return object.__new__(cls)

    def counting_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    cfg = GcpConfig(dim=8, n_blocks=2, n_heads=2, ffn_dim=8, n_cameras=2, dropout_rate=0.2)
    rng = np.random.default_rng(0)
    model = GcpModel(cfg, init_params(cfg, rng))
    memory = rng.normal(size=(5, cfg.dim))
    feats = [rng.normal(size=(4, cfg.dim)) for _ in range(2)]
    batches = [
        ClassBatch(f, neg, f[:3], np.array([0, 1, 1]))
        for f, neg in zip(feats, mine_negative_distances(feats))
    ]
    Tensor.__new__ = staticmethod(counting_new)
    Tensor.__init__ = counting_init
    counts = []
    for run in (
        lambda: generate_prototypes(model, memory, 3),
        lambda: loss_and_grads(model.params, cfg, batches, np.random.default_rng(1)),
    ):
        calls.clear()
        run()
        counts.append(dict(calls))
    return counts


def test_every_tensor_is_built_through_init():
    """The benchmark counts autodiff nodes (``autodiff.tensors_generate``,
    ``autodiff.tensors_train``) by wrapping ``Tensor.__init__``, so a node
    made by ``Tensor.__new__`` without ``__init__`` would go uncounted."""
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, __file__],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    generate, train_step = json.loads(proc.stdout.splitlines()[-1])
    for counts in (generate, train_step):
        assert counts["init"] > 100
        assert counts.get("new", 0) == counts["init"]


def test_benchmark_selftest_passes():
    """The benchmark's own tests (its workloads, gate and tracer at a tiny
    size) run against this tree, so a change that breaks the benchmark's
    contract fails here too."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]


if __name__ == "__main__":
    print(json.dumps(count_node_constructions()))

"""Learned prototype generator: a small attention decoder over class memories.

The generator reads a per-class "memory" (gallery feature vectors with a
learned per-camera embedding added row-wise) through cross-attention and
emits N prototypes autoregressively from a learned start token.  Training
minimizes a triplet hinge in which each gallery anchor pulls only its
nearest generated prototype (so the prototypes partition the class the way
a k-means assignment would, instead of all chasing the class mean), plus a
hinge diversity penalty that keeps a class's prototypes at least ``margin``
apart.  Distances are measured against mined hard negatives: the nearest
other-class feature in the batch.  Its squared differences are summed in
dimension order, as scipy's ``cdist`` sums them, by
``selectors.ordered_sq_dists``, the kernel k-means uses too: every trained
parameter depends on those distances' bits, and nothing loads scipy.

Decoding is incremental with per-block key/value caches: each step computes
only the newest row, so earlier prototypes are bit-identical no matter how
far generation continues.  There is one decoder forward pass, over a batch
of class memories with classes and attention heads as array axes: a
training step decodes all of its classes at once, and generation decodes
one class as a batch of one.  All arithmetic is float64 via the local autodiff
engine; gradients are analytic and checked against finite differences in
the test suite.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import (
    ConfigError,
    DataFormatError,
    DimensionMismatchError,
    NonFiniteValueError,
    TrainingDivergedError,
    UnknownCameraError,
)
from .schema import check_field_types, from_json, to_json
from .selectors import ordered_sq_dists
from .seeding import counter_stream, substream
from .store import EmbeddingSet, PrototypeSet

LN_EPS = 1e-5
MODEL_MAGIC = b"GCPM"
MODEL_VERSION = 1


@dataclass(frozen=True)
class GcpConfig:
    """Architecture and optimization settings for the learned generator.

    Defaults are desk-scale (CPU-trainable in seconds to minutes).  A
    training step decodes all of its classes, and every attention head, as
    one batched forward pass, so the published-scale settings (6 blocks,
    ffn_dim 512) cost numpy arithmetic rather than per-class Python work.
    """

    dim: int = field(default=32, metadata={"ge": 1})
    n_blocks: int = field(default=2, metadata={"ge": 1})
    n_heads: int = field(default=4, metadata={"ge": 1})
    ffn_dim: int = field(default=64, metadata={"ge": 1})
    dropout_rate: float = field(default=0.2, metadata={"ge": 0.0, "lt": 1.0})
    n_prototypes: int = field(default=3, metadata={"ge": 1})
    margin: float = field(default=1.2, metadata={"gt": 0.0})
    lam: float = field(default=1.0, metadata={"ge": 0.0})
    lr: float = field(default=0.01, metadata={"ge": 0.0})
    momentum: float = field(default=0.9, metadata={"ge": 0.0, "lt": 1.0})
    weight_decay: float = field(default=5e-4, metadata={"ge": 0.0})
    # negative mining needs two classes, and a memory two rows
    batch_classes: int = field(default=16, metadata={"ge": 2})
    instances_per_class: int = field(default=8, metadata={"ge": 2})
    epochs: int = field(default=30, metadata={"ge": 1})
    n_cameras: int = field(default=4, metadata={"ge": 1})
    seed: int = field(default=0, metadata={"ge": 0})

    def __post_init__(self):
        check_field_types(self)
        if self.dim % self.n_heads != 0:
            raise ConfigError(
                f"dim ({self.dim}) must be divisible by n_heads ({self.n_heads})"
            )


def _param_shapes(cfg: GcpConfig) -> dict[str, tuple[int, ...]]:
    d, f = cfg.dim, cfg.ffn_dim
    shapes: dict[str, tuple[int, ...]] = {
        "sos": (1, d),
        "camera_embeddings": (cfg.n_cameras, d),
        "final_ln.gain": (d,),
        "final_ln.bias": (d,),
        "head.w": (d, d),
        "head.b": (d,),
    }
    for b in range(cfg.n_blocks):
        for sub in ("self", "cross"):
            shapes[f"block{b}.{sub}_ln.gain"] = (d,)
            shapes[f"block{b}.{sub}_ln.bias"] = (d,)
            for w in ("wq", "wk", "wv", "wo"):
                shapes[f"block{b}.{sub}.{w}"] = (d, d)
            for bias in ("bq", "bk", "bv", "bo"):
                shapes[f"block{b}.{sub}.{bias}"] = (d,)
        shapes[f"block{b}.ffn_ln.gain"] = (d,)
        shapes[f"block{b}.ffn_ln.bias"] = (d,)
        shapes[f"block{b}.ffn.w1"] = (d, f)
        shapes[f"block{b}.ffn.b1"] = (f,)
        shapes[f"block{b}.ffn.w2"] = (f, d)
        shapes[f"block{b}.ffn.b2"] = (d,)
    return shapes


def init_params(cfg: GcpConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Glorot-normal weights, zero biases, unit gains, small start/camera tokens.

    Parameters are created in sorted-name order so the rng consumption, and
    hence the initialization, is reproducible.
    """
    params: dict[str, np.ndarray] = {}
    for name, shape in sorted(_param_shapes(cfg).items()):
        if name.endswith(".gain"):
            params[name] = np.ones(shape)
        elif name.endswith(".bias") or name.rsplit(".", 1)[-1].startswith("b"):
            params[name] = np.zeros(shape)
        elif name in ("sos", "camera_embeddings"):
            params[name] = rng.normal(0.0, 0.02, size=shape)
        else:
            fan_in, fan_out = shape
            std = np.sqrt(2.0 / (fan_in + fan_out))
            params[name] = rng.normal(0.0, std, size=shape)
    return params


@dataclass
class GcpModel:
    """A generator's config and parameter arrays.

    ``params`` is a read-only mapping over a copy of the given dict; the
    arrays are not copied.  Construction wraps each array, without a copy,
    in a constant ``Tensor`` that every ``generate_prototypes`` call reuses
    (``const_params``), so in-place edits of the arrays are seen by
    generation.
    """

    config: GcpConfig
    params: Mapping[str, np.ndarray]

    def __post_init__(self):
        self.params = MappingProxyType(dict(self.params))
        self.const_params = _wrap_params(self.params, requires_grad=False)


def build_memory(eset: EmbeddingSet, model: GcpModel, rows) -> np.ndarray:
    """The cross-attention input over the records ``rows`` of ``eset``: each
    row's features plus its camera's learned embedding, an (s, D) array in
    the order of ``rows``.  The caller picks the rows (a class, or a class
    without one camera); a row whose camera the model has no embedding for
    is an UnknownCameraError."""
    rows = np.asarray(rows)
    cams = eset.row_cameras[rows]
    n_cameras = model.config.n_cameras
    outside = np.flatnonzero(cams >= n_cameras)
    if len(outside):
        raise UnknownCameraError(
            f"record {eset.ids[rows[outside[0]]]!r} has camera {cams[outside[0]]} "
            f"outside [0, {n_cameras})"
        )
    return eset.features[rows] + model.params["camera_embeddings"][cams]


def _attend(
    q: Tensor, K: Tensor, V: Tensor, n_heads: int, key_mask: np.ndarray | None = None
) -> Tensor:
    """Multi-head scaled dot-product attention over a batch of classes.

    ``q`` is (B, t, D), ``K`` and ``V`` are (B, s, D).  Heads are split off
    the feature axis by reshape and axis permutation into (B, H, ., D/H)
    stacks, so every head of every class is one batched product; per
    (class, head) the products are the same 2-D products, with the same
    operand strides, as slicing each head's columns.  ``key_mask``
    (B, 1, 1, s), when given, is added to the logits: 0 for a real key,
    -inf for padding.  Returns (B, t, D).
    """
    qh = ad.split_heads(q, n_heads, (0, 2, 1, 3))
    # split on every call, cross keys and values too: splitting them once per
    # block reorders gradient accumulation, and that moved training's bits
    kt = ad.split_heads(K, n_heads, (0, 2, 3, 1))
    vh = ad.split_heads(V, n_heads, (0, 2, 1, 3))
    logits = (qh @ kt) * (1.0 / np.sqrt(q.shape[-1] // n_heads))
    if key_mask is not None:
        logits = logits + ad.const(key_mask)
    return ad.merge_heads(ad.softmax_rows(logits) @ vh)


def _generate_rows(
    params: Mapping[str, Tensor],
    cfg: GcpConfig,
    mem_tokens: Tensor,
    n: int,
    key_mask: np.ndarray | None = None,
    dropout_rng: np.random.Generator | None = None,
) -> Tensor:
    """Autoregressively decode n prototype rows for a batch of class memories.

    ``mem_tokens`` is (B, s, D), one class per leading index; ``key_mask``
    marks padded memory rows (see ``_attend``).  Returns (B, n, D).

    Self-attention uses growing key/value caches, so each position attends
    only to itself and earlier positions and is computed exactly once.
    Cross-attention keys/values come from the memory tokens, projected once
    per block and shared by every step.

    With ``dropout_rng``, every dropout mask of the pass comes from one draw
    of shape (B, n, n_blocks, 3, 1, D), class-major, then step, block and
    sub-layer (self, cross, ffn): B classes in one pass draw the same masks
    as B one-class passes in a row.
    """
    B = mem_tokens.shape[0]
    nb, nh = cfg.n_blocks, cfg.n_heads
    keep = None
    if dropout_rng is not None and cfg.dropout_rate > 0.0:
        noise = dropout_rng.random((B, n, nb, 3, 1, cfg.dim))
        keep = (noise >= cfg.dropout_rate) / (1.0 - cfg.dropout_rate)

    def dropout(x: Tensor, step: int, block: int, sub: int) -> Tensor:
        return x if keep is None else x * ad.const(keep[:, step, block, sub])

    def dense(x: Tensor, layer: str, which: str = "") -> Tensor:
        return ad.linear(x, params[f"{layer}.w{which}"], params[f"{layer}.b{which}"])

    cross_kv = [
        (dense(mem_tokens, f"block{b}.cross", "k"), dense(mem_tokens, f"block{b}.cross", "v"))
        for b in range(nb)
    ]
    self_k: list[list[Tensor]] = [[] for _ in range(nb)]
    self_v: list[list[Tensor]] = [[] for _ in range(nb)]
    protos: list[Tensor] = []
    # one start row per class
    x = params["sos"] + ad.const(np.zeros((B, 1, cfg.dim)))
    for step in range(n):
        h = x
        for b in range(nb):
            pre = f"block{b}"
            xn = ad.layer_norm(
                h, params[f"{pre}.self_ln.gain"], params[f"{pre}.self_ln.bias"], LN_EPS
            )
            self_k[b].append(dense(xn, f"{pre}.self", "k"))
            self_v[b].append(dense(xn, f"{pre}.self", "v"))
            q = dense(xn, f"{pre}.self", "q")
            att = _attend(
                q, ad.concat(self_k[b], axis=1), ad.concat(self_v[b], axis=1), nh
            )
            att = dense(att, f"{pre}.self", "o")
            h = h + dropout(att, step, b, 0)

            xn = ad.layer_norm(
                h, params[f"{pre}.cross_ln.gain"], params[f"{pre}.cross_ln.bias"], LN_EPS
            )
            q = dense(xn, f"{pre}.cross", "q")
            att = _attend(q, cross_kv[b][0], cross_kv[b][1], nh, key_mask)
            att = dense(att, f"{pre}.cross", "o")
            h = h + dropout(att, step, b, 1)

            xn = ad.layer_norm(
                h, params[f"{pre}.ffn_ln.gain"], params[f"{pre}.ffn_ln.bias"], LN_EPS
            )
            f = ad.relu(dense(xn, f"{pre}.ffn", "1"))
            f = dense(f, f"{pre}.ffn", "2")
            h = h + dropout(f, step, b, 2)
        hn = ad.layer_norm(h, params["final_ln.gain"], params["final_ln.bias"], LN_EPS)
        x = dense(hn, "head")
        protos.append(x)
    return ad.concat(protos, axis=1)


def _wrap_params(params: Mapping[str, np.ndarray], requires_grad: bool) -> dict[str, Tensor]:
    return {k: Tensor(v, requires_grad=requires_grad) for k, v in params.items()}


def generate_prototypes(model: GcpModel, memory: np.ndarray, n: int) -> np.ndarray:
    """Generate n prototypes from one (s, D) memory (``build_memory``),
    dropout off, deterministic: an (n, D) array."""
    if n < 1:
        raise ConfigError("n must be positive")
    if memory.ndim != 2 or memory.shape[1] != model.config.dim:
        raise DimensionMismatchError(
            f"memory tokens have width {memory.shape[-1]}, model dim is {model.config.dim}"
        )
    rows = _generate_rows(model.const_params, model.config, Tensor(memory[None]), n)
    return rows.data[0]


def select_gcp(eset: EmbeddingSet, model: GcpModel, n: int) -> PrototypeSet:
    """Generate prototypes for every class with the trained model, each from
    the memory of all of the class's gallery rows.

    The per-class count is min(n, class rows); classes given fewer than n
    are listed in params_echo, and an n below 1 is refused by
    ``generate_prototypes``.  The camera-filter protocol picks the rows of
    its rebuilds in gcproto.harness.
    """
    cfg = model.config
    if eset.dim != cfg.dim:
        raise DimensionMismatchError(
            f"set dimension {eset.dim} does not match model dim {cfg.dim}"
        )
    per_class: dict[int, np.ndarray] = {}
    reduced: dict[str, int] = {}
    for c, rows in sorted(eset.class_index.items()):
        n_c = min(n, len(rows))
        if n_c < n:
            reduced[str(c)] = n_c
        per_class[c] = generate_prototypes(model, build_memory(eset, model, rows), n_c)
    echo = {"method": "gcp", "n": n, "reduced_count_classes": reduced}
    return PrototypeSet(per_class=per_class, selector_tag="gcp", params_echo=echo)


@dataclass(frozen=True)
class ClassBatch:
    """One class's slice of a training batch.

    ``negative_distances[i]`` is the distance from anchor i to its nearest
    feature of any other class in the batch, precomputed by the miner; the
    loss treats it as a constant.  The prototype count is the training
    config's ``n_prototypes``.
    """

    anchors: np.ndarray  # (m, D)
    negative_distances: np.ndarray  # (m,)
    memory_features: np.ndarray  # (s, D), raw features without camera embedding
    memory_cameras: np.ndarray  # (s,) int


def mine_negative_distances(features_by_class: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Per anchor, the distance to the nearest feature of any other class.

    The distances feed the triplet loss and so every trained parameter,
    so their rounding is pinned: they are the roots of
    ``selectors.ordered_sq_dists``, the one kernel that sums squared
    differences in dimension order, as scipy's ``cdist`` does, without
    loading scipy.  ``np.add.reduce`` and ``retrieval.cdist`` sum pairwise,
    so mining through them would change the bits of every trained
    checkpoint.  A distance that overflows is ``inf``, without a warning.
    """
    if len(features_by_class) < 2:
        raise ConfigError("negative mining needs at least two classes in the batch")
    stacked = np.vstack(features_by_class)
    labels = np.concatenate(
        [np.full(len(f), i) for i, f in enumerate(features_by_class)]
    )
    dists = ordered_sq_dists(stacked, stacked)
    np.sqrt(dists, out=dists)
    dists[labels[:, None] == labels[None, :]] = np.inf
    mins = dists.min(axis=1)
    out = []
    start = 0
    for f in features_by_class:
        out.append(mins[start : start + len(f)])
        start += len(f)
    return out


def _loss_graph(
    params: Mapping[str, Tensor],
    cfg: GcpConfig,
    batches: Sequence[ClassBatch],
    dropout_rng: np.random.Generator | None = None,
) -> Tensor:
    """Triplet hinge over (anchor, nearest prototype) pairs plus the
    diversity hinge averaged over classes, built as one autodiff graph.

    Every class of the batch is decoded by one forward pass: memories of
    different lengths are zero-padded into one (B, s, D) tensor whose
    padding the cross-attention masks out.  Each anchor contributes one
    term against its closest generated prototype, mirroring how
    multi-prototype classes are scored at retrieval.  The nearest index is
    recomputed every step from current values but held constant inside the
    graph, so the gradient routes through the selected prototype only
    (exact away from assignment ties, which have measure zero under random
    init).  Each class gets ``cfg.n_prototypes`` prototypes, and the
    classes of a batch share their anchor count.
    """
    n = cfg.n_prototypes
    m = batches[0].anchors.shape[0]
    if any(cb.anchors.shape[0] != m for cb in batches):
        raise ConfigError("classes of one batch must share their anchor count")
    B = len(batches)
    s = max(len(cb.memory_cameras) for cb in batches)
    feats = np.zeros((B, s, cfg.dim))
    cams = np.zeros((B, s), dtype=np.int64)
    key_mask = np.zeros((B, 1, 1, s))
    for i, cb in enumerate(batches):
        k = len(cb.memory_cameras)
        feats[i, :k] = cb.memory_features
        cams[i, :k] = cb.memory_cameras
        key_mask[i, ..., k:] = -np.inf
    mem = ad.take_rows(params["camera_embeddings"], cams) + ad.const(feats)
    P = _generate_rows(params, cfg, mem, n, key_mask, dropout_rng)  # (B, n, D)
    Pt = ad.transpose(P, (0, 2, 1))
    A = ad.const(np.stack([cb.anchors for cb in batches]))  # (B, m, D)
    a2 = ad.sum_(A * A, axis=-1, keepdims=True)
    p2 = ad.sum_(P * P, axis=-1, keepdims=True)
    p2t = ad.transpose(p2, (0, 2, 1))
    d2 = a2 + p2t - 2.0 * (A @ Pt)
    d_ap = ad.sqrt(ad.relu(d2))  # (B, m, n); clamp cancellation residue before the root
    nearest = np.eye(n)[d_ap.data.argmin(axis=-1)]
    d_pos = ad.sum_(d_ap * ad.const(nearest), axis=-1)  # (B, m)
    neg = np.stack([cb.negative_distances for cb in batches])
    hinge = ad.relu(d_pos - ad.const(neg) + cfg.margin)
    total = ad.sum_(hinge) * (1.0 / (B * m))
    if n >= 2 and cfg.lam > 0.0:
        d_pp = ad.sqrt(ad.relu(p2 + p2t - 2.0 * (P @ Pt)))  # (B, n, n)
        pair_hinge = ad.relu(cfg.margin - d_pp) * ad.const(1.0 - np.eye(n))
        reg = ad.sum_(pair_hinge) * (1.0 / (n * (n - 1)))
        total = total + cfg.lam * (reg * (1.0 / B))
    return total


def loss_and_grads(
    params: Mapping[str, np.ndarray],
    cfg: GcpConfig,
    batches: Sequence[ClassBatch],
    dropout_rng: np.random.Generator | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss value and analytic gradients for explicit batches.

    Dropout is off unless ``dropout_rng`` is given.  Every training step
    calls this with the dropout stream, so the finite-difference checks of
    the dropout-off path cover the function training runs.
    """
    params_t = _wrap_params(dict(params), requires_grad=True)
    out = _loss_graph(params_t, cfg, batches, dropout_rng)
    out.backward()
    grads = {
        k: (t.grad if t.grad is not None else np.zeros_like(t.data))
        for k, t in params_t.items()
    }
    return float(out.data), grads


@dataclass
class TrainingTrace:
    epoch_mean_loss: list[float] = field(default_factory=list)


def _sample_class_batches(
    eset: EmbeddingSet,
    class_chunk: Sequence[int],
    cfg: GcpConfig,
    rng: np.random.Generator,
) -> list[ClassBatch]:
    m = cfg.instances_per_class
    anchors_list = []
    picked = []
    for c in class_chunk:
        feats = eset.class_matrix(c)
        cams = eset.row_cameras[list(eset.class_index[c])]
        pool = len(feats)
        # short classes are resampled with replacement to fill the slot
        idx = rng.choice(pool, size=m, replace=pool < m)
        s = int(rng.integers(2, m + 1))
        picked.append((feats[idx], feats[idx[:s]], cams[idx[:s]]))
        anchors_list.append(feats[idx])
    neg = mine_negative_distances(anchors_list)
    return [
        ClassBatch(anchors, neg_c, mem_f, mem_c)
        for (anchors, mem_f, mem_c), neg_c in zip(picked, neg)
    ]


def train(eset: EmbeddingSet, cfg: GcpConfig) -> tuple[GcpModel, TrainingTrace]:
    """SGD with momentum and weight decay over shuffled class mini-batches.

    Each batch groups ``batch_classes`` classes with ``instances_per_class``
    sampled features per class; the memory for each class is a random-size
    subset (s between 2 and instances_per_class) of those features.  Update
    order per step: gradient += weight_decay * param, velocity = momentum *
    velocity + gradient, param -= lr * velocity.  Deterministic given
    cfg.seed; dropout noise comes from a counter-based stream.
    """
    if eset.dim != cfg.dim:
        raise DimensionMismatchError(
            f"set dimension {eset.dim} does not match cfg.dim {cfg.dim}"
        )
    if len(eset.class_ids) < 2:
        raise ConfigError("training needs at least two classes")
    max_cam = int(eset.row_cameras.max())
    if max_cam >= cfg.n_cameras:
        raise UnknownCameraError(
            f"set contains camera {max_cam}, outside [0, {cfg.n_cameras})"
        )
    params = init_params(cfg, substream(cfg.seed, "init"))
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    sampler = substream(cfg.seed, "sampling")
    dropout_rng = counter_stream(cfg.seed, "dropout")
    classes = list(eset.class_ids)
    trace = TrainingTrace()
    for epoch in range(cfg.epochs):
        order = [classes[i] for i in sampler.permutation(len(classes))]
        chunks = [
            order[i : i + cfg.batch_classes]
            for i in range(0, len(order), cfg.batch_classes)
        ]
        if len(chunks) > 1 and len(chunks[-1]) < 2:
            chunks[-2].extend(chunks[-1])
            chunks.pop()
        epoch_losses = []
        for bi, chunk in enumerate(chunks):
            batches = _sample_class_batches(eset, chunk, cfg, sampler)
            loss, grads = loss_and_grads(params, cfg, batches, dropout_rng)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {bi}"
                )
            for name, p in params.items():
                g = grads[name] + cfg.weight_decay * p
                velocity[name] = cfg.momentum * velocity[name] + g
                p -= cfg.lr * velocity[name]
                if not np.all(np.isfinite(p)):
                    raise TrainingDivergedError(
                        f"non-finite parameter {name!r} after epoch {epoch}, batch {bi}"
                    )
            epoch_losses.append(loss)
        trace.epoch_mean_loss.append(float(np.mean(epoch_losses)))
    return GcpModel(config=cfg, params=params), trace


def _layout(cfg: GcpConfig) -> tuple[list[dict], int]:
    """The checkpoint manifest of ``cfg``'s parameters and the size of their
    blob: one ``{name, shape, offset}`` entry per parameter in name order,
    each stored as little-endian float64 right after the previous one."""
    manifest, offset = [], 0
    for name, shape in sorted(_param_shapes(cfg).items()):
        manifest.append({"name": name, "shape": list(shape), "offset": offset})
        offset += 8 * math.prod(shape)
    return manifest, offset


def save_model(model: GcpModel, path) -> None:
    """Write a checkpoint: magic, version, config JSON, manifest, f64 blob.

    The manifest and blob layout are a function of the config (``_layout``);
    raises DimensionMismatchError, before writing, when a parameter is
    missing, unexpected or not of the shape the config gives it."""
    shapes = _param_shapes(model.config)
    given = {name: np.shape(arr) for name, arr in model.params.items()}
    if given != shapes:
        wrong = sorted(k for k in shapes.keys() | given.keys() if shapes.get(k) != given.get(k))
        raise DimensionMismatchError(f"parameters {wrong} do not fit the model's config")
    manifest, _ = _layout(model.config)
    cfg_json = json.dumps(to_json(model.config), sort_keys=True).encode("utf-8")
    man_json = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", MODEL_VERSION))
        fh.write(struct.pack("<I", len(cfg_json)))
        fh.write(cfg_json)
        fh.write(struct.pack("<I", len(man_json)))
        fh.write(man_json)
        for entry in manifest:
            fh.write(np.ascontiguousarray(model.params[entry["name"]], dtype="<f8").tobytes())


def load_model(path) -> GcpModel:
    """Read a checkpoint ``save_model`` wrote.  Its manifest must be the
    layout of its config (``_layout``) and the blob exactly that layout's
    size; anything else is a DataFormatError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[:4] != MODEL_MAGIC:
        raise DataFormatError(f"{path}: not a model checkpoint (bad magic)")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != MODEL_VERSION:
        raise DataFormatError(f"{path}: unsupported checkpoint version {version}")
    pos = 8

    def take_block(what: str) -> bytes:
        nonlocal pos
        if pos + 4 > len(raw):
            raise DataFormatError(f"{path}: truncated before {what} length")
        (length,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        if pos + length > len(raw):
            raise DataFormatError(f"{path}: truncated inside {what}")
        block = raw[pos : pos + length]
        pos += length
        return block

    try:
        cfg_dict = json.loads(take_block("config").decode("utf-8"))
        manifest = json.loads(take_block("manifest").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{path}: corrupt checkpoint metadata ({exc})") from exc
    # a checkpoint names every config field: key drift is a format error
    if not isinstance(cfg_dict, dict) or set(cfg_dict) != set(GcpConfig.__dataclass_fields__):
        raise DataFormatError(f"{path}: config block must hold exactly the GcpConfig keys")
    cfg = from_json(GcpConfig, cfg_dict)
    layout, size = _layout(cfg)
    if json.dumps(manifest, sort_keys=True) != json.dumps(layout, sort_keys=True):
        raise DataFormatError(
            f"{path}: manifest is not the parameter layout of the checkpoint's config"
        )
    blob = raw[pos:]
    if len(blob) < size:
        raise DataFormatError(f"{path}: truncated inside the parameters")
    if len(blob) > size:
        raise DataFormatError(
            f"{path}: {len(blob) - size} extra bytes after the last parameter"
        )
    params: dict[str, np.ndarray] = {}
    for entry in layout:
        name, shape = entry["name"], entry["shape"]
        arr = np.frombuffer(blob, dtype="<f8", count=math.prod(shape), offset=entry["offset"])
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValueError(f"{path}: parameter {name!r} has non-finite values")
        params[name] = arr.astype(np.float64).reshape(shape)
    return GcpModel(config=cfg, params=params)

"""Synthetic labeled-embedding generators for experiments and tests.

Each class is an isotropic Gaussian blob around a center, shifted by a
per-camera systematic offset, with optional elongation along a class axis
(instances slide along the axis).  Three knobs shape harder geometries:

* ``chain_spacing`` places class centers at regular steps along one shared
  axis (instead of isotropic random centers) and aligns every class's
  elongation with that axis, so neighboring classes interleave end-on.
* ``elongation_scale`` is the longest slide: each instance moves along its
  class axis by the scale times a magnitude in [floor, 1], with random sign.
* ``elongation_floor`` sets that minimum magnitude, so a floor > 0 keeps
  slid instances away from the center.

The shipped "tradeoff" preset chains elongated classes end-on with strong
per-camera offsets and is designed to be run under the camera-filter
protocol.  Dropping the query's own camera from its class gallery shifts
that class's plain mean by the missing camera's offset (the offsets no
longer cancel), while rival classes keep their full, nearly camera-balanced
means; with offsets larger than the chain spacing the shifted own-class
mean loses to rival means.  A learned generator can emit camera-neutral
prototypes from whatever records survive the filter and is immune to the
shift, and its deeper prototypes trade ranking depth for end-of-class
coverage, so more prototypes raise rank-1 while diluting mAP.

Queries come from the same class/camera process with fresh noise.  All
randomness flows from the spec seed through named substreams, so generation
is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .model import GcpConfig
from .schema import check_field_types
from .seeding import substream
from .store import EmbeddingSet


@dataclass(frozen=True)
class SyntheticSpec:
    n_classes: int = field(default=200, metadata={"ge": 1})
    instances_per_class: int = field(default=8, metadata={"ge": 1})
    dim: int = field(default=32, metadata={"ge": 1})
    n_cameras: int = field(default=4, metadata={"ge": 1})
    class_center_scale: float = field(default=10.0, metadata={"gt": 0.0})
    within_class_noise: float = field(default=1.0, metadata={"ge": 0.0})
    camera_offset_scale: float = field(default=0.5, metadata={"ge": 0.0})
    elongation_scale: float = field(default=0.0, metadata={"ge": 0.0})
    elongation_floor: float = field(default=0.0, metadata={"ge": 0.0, "lt": 1.0})
    chain_spacing: float = field(default=0.0, metadata={"ge": 0.0})
    queries_per_class: int = field(default=2, metadata={"ge": 0})
    seed: int = field(default=0, metadata={"ge": 0})

    def __post_init__(self):
        check_field_types(self)


def _draw_records(
    spec: SyntheticSpec,
    rng: np.random.Generator,
    centers: np.ndarray,
    offsets: np.ndarray,
    axes: np.ndarray | None,
    sizes: np.ndarray,
):
    """(vectors, classes, cameras) of ``sizes[c]`` records per class, in order.

    Per record the stream gives its camera, then (with ``axes``) its slide
    draws, then its noise, which goes straight into its row: the draws and
    their order are those of ``centers[c] + offsets[cam] + slide *
    elongation_scale * axis + rng.normal(0, s, D)`` record by record, and so
    are the bits.
    ``standard_normal`` consumes what ``normal`` does and ``normal`` returns
    ``0.0 + s * z``, so the noise is scaled and shifted by 0.0 after the
    loop; each class's (camera-dependent) mean is then added once per block
    of its rows.
    """
    classes = np.repeat(np.arange(spec.n_classes, dtype=np.int64), sizes)
    cameras = np.empty(len(classes), dtype=np.int64)
    slides = np.zeros(len(classes))
    vectors = np.empty((len(classes), spec.dim))
    for i in range(len(classes)):
        cameras[i] = rng.integers(spec.n_cameras)
        if axes is not None:
            mag = rng.uniform(spec.elongation_floor, 1.0)
            slides[i] = mag if rng.random() < 0.5 else -mag
        rng.standard_normal(out=vectors[i])
    vectors *= spec.within_class_noise
    vectors += 0.0
    stops = np.cumsum(sizes).tolist()
    for c, (lo, hi) in enumerate(zip([0, *stops], stops)):
        mean = centers[c] + offsets[cameras[lo:hi]]
        if axes is not None:
            mean += (slides[lo:hi] * spec.elongation_scale)[:, None] * axes[c]
        vectors[lo:hi] += mean
    return vectors, classes, cameras


def generate_synthetic(spec: SyntheticSpec) -> tuple[EmbeddingSet, EmbeddingSet]:
    """Gallery and query sets from one seeded generative process."""
    centers = substream(spec.seed, "synthetic.centers").normal(
        0.0, spec.class_center_scale, (spec.n_classes, spec.dim)
    )
    offsets = substream(spec.seed, "synthetic.cameras").normal(
        0.0, spec.camera_offset_scale, (spec.n_cameras, spec.dim)
    )
    axes = None
    if spec.chain_spacing > 0:
        shared = substream(spec.seed, "synthetic.chain").normal(0.0, 1.0, spec.dim)
        shared /= np.linalg.norm(shared)
        steps = np.arange(spec.n_classes) - (spec.n_classes - 1) / 2.0
        centers = centers + steps[:, None] * spec.chain_spacing * shared[None, :]
        if spec.elongation_scale > 0:
            axes = np.tile(shared, (spec.n_classes, 1))
    elif spec.elongation_scale > 0:
        raw = substream(spec.seed, "synthetic.axes").normal(
            0.0, 1.0, (spec.n_classes, spec.dim)
        )
        axes = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    sizes = np.full(spec.n_classes, spec.instances_per_class, dtype=np.int64)
    q_sizes = np.full(spec.n_classes, spec.queries_per_class, dtype=np.int64)
    sets = []
    for prefix, stream, counts in (("g", "gallery", sizes), ("q", "queries", q_sizes)):
        rng = substream(spec.seed, f"synthetic.{stream}")
        vecs, classes, cameras = _draw_records(spec, rng, centers, offsets, axes, counts)
        # the drawn matrix is the set's own: no copy, unlike build_set
        ids = [f"{prefix}{i}" for i in range(len(vecs))]
        sets.append(EmbeddingSet._from_columns(ids, vecs, classes, cameras))
    return sets[0], sets[1]


def tradeoff_spec(seed: int = 25) -> SyntheticSpec:
    """Interleaved elongated classes with camera offsets that dwarf the
    class spacing.  Evaluated under the camera-filter protocol: the query
    class's mean, rebuilt without the query's camera, is displaced by the
    excluded offset and outranked by rival means, so single plain means
    fail; camera-neutral generated prototypes are unaffected, and adding
    deeper ones buys rank-1 coverage at the cost of mAP."""
    return SyntheticSpec(
        n_classes=4,
        instances_per_class=24,
        dim=16,
        n_cameras=4,
        class_center_scale=0.12,
        within_class_noise=0.15,
        camera_offset_scale=0.55,
        elongation_scale=1.4,
        elongation_floor=0.1,
        chain_spacing=1.5,
        queries_per_class=24,
        seed=seed,
    )


def tradeoff_training(seed: int = 0) -> GcpConfig:
    """Training configuration paired with :func:`tradeoff_spec`.

    Dropout is disabled: with it on, generation-time prototypes separate
    less than training-time ones and the deeper prototypes collapse onto
    the first.
    """
    return GcpConfig(
        dim=16,
        n_prototypes=3,
        epochs=250,
        dropout_rate=0.0,
        batch_classes=4,
        instances_per_class=16,
        seed=seed,
    )


PRESETS = {
    "tradeoff": tradeoff_spec,
}


def preset_spec(name: str) -> SyntheticSpec:
    """The spec of the shipped preset ``name``."""
    if not isinstance(name, str) or name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r} (available: {sorted(PRESETS)})")
    return PRESETS[name]()

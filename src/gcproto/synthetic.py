"""Synthetic labeled-embedding generators for experiments and tests.

Each class is an isotropic Gaussian blob around a center, shifted by a
per-camera systematic offset, with optional elongation along a class axis
(instances slide along the axis).  Three knobs shape harder geometries:

* ``chain_spacing`` places class centers at regular steps along one shared
  axis (instead of isotropic random centers) and aligns every class's
  elongation with that axis, so neighboring classes interleave end-on.
* ``ring_spacing`` places class centers evenly around a circle in a random
  plane, with elongation along each class's tangent, pointing at the next
  neighbor.  Like the chain it interleaves neighbors end-on, but every
  center sits at the same norm and there are no chain endpoints.
* ``elongation_scale`` may be a (lo, hi) range, giving some classes short
  extents and others long ones that straddle several neighbors.
* ``elongation_floor`` sets the minimum slide: magnitudes are drawn from
  [floor, 1], so a floor > 0 keeps slid instances away from the center.
* ``tail_fraction`` switches the slide law to contamination: only that
  fraction of instances slide, always toward the positive end of the axis.
  The rest form a dense core, so the class mean drifts off the core while
  robust location estimates stay on it.  With 0 (default) every instance
  slides, with random sign.
* ``tail_angle_deg`` tilts each class's elongation axis away from the
  shared interleaving direction (chain axis or ring tangent) toward a
  class-private random direction.  Partly-tilted tails still drag the class
  mean toward the next neighbor, but rival tails no longer brush a class's
  core, and deep tail instances are reachable only via that class's own
  axis.

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
    # fixed, or (lo, hi) sizes
    instances_per_class: int | tuple[int, int] = field(default=8, metadata={"ge": 1})
    dim: int = field(default=32, metadata={"ge": 1})
    n_cameras: int = field(default=4, metadata={"ge": 1})
    class_center_scale: float = field(default=10.0, metadata={"gt": 0.0})
    within_class_noise: float = field(default=1.0, metadata={"ge": 0.0})
    camera_offset_scale: float = field(default=0.5, metadata={"ge": 0.0})
    elongation_scale: float | tuple[float, float] = field(default=0.0, metadata={"ge": 0.0})
    elongation_floor: float = field(default=0.0, metadata={"ge": 0.0, "lt": 1.0})
    tail_fraction: float = field(default=0.0, metadata={"ge": 0.0, "lt": 1.0})
    tail_angle_deg: float = field(default=0.0, metadata={"ge": 0.0, "le": 90.0})
    chain_spacing: float = field(default=0.0, metadata={"ge": 0.0})
    ring_spacing: float = field(default=0.0, metadata={"ge": 0.0})
    queries_per_class: int = field(default=2, metadata={"ge": 0})
    seed: int = field(default=0, metadata={"ge": 0})

    def __post_init__(self):
        check_field_types(self)
        for name in ("instances_per_class", "elongation_scale"):
            value = getattr(self, name)
            if isinstance(value, tuple) and value[1] < value[0]:
                raise ConfigError(f"{name} range (lo, hi) must have lo <= hi, got {value}")
        if self.chain_spacing > 0 and self.ring_spacing > 0:
            raise ConfigError("chain_spacing and ring_spacing are mutually exclusive")
        if self.ring_spacing > 0 and self.dim < 2:
            raise ConfigError("ring_spacing needs dim >= 2")
        if self.tail_angle_deg > 0 and self.dim < 2:
            raise ConfigError("tail_angle_deg needs dim >= 2")

    @property
    def max_elongation(self) -> float:
        if isinstance(self.elongation_scale, tuple):
            return self.elongation_scale[1]
        return self.elongation_scale


def _class_sizes(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    if isinstance(spec.instances_per_class, tuple):
        lo, hi = spec.instances_per_class
        return rng.integers(lo, hi + 1, size=spec.n_classes)
    return np.full(spec.n_classes, spec.instances_per_class, dtype=np.int64)


def _draw_records(
    spec: SyntheticSpec,
    rng: np.random.Generator,
    centers: np.ndarray,
    offsets: np.ndarray,
    axes: np.ndarray | None,
    extents: np.ndarray,
    sizes: np.ndarray,
):
    """(vectors, classes, cameras) of ``sizes[c]`` records per class, in order.

    Per record the stream gives its camera, then (with ``axes``) its slide
    draws, then its noise, which goes straight into its row: the draws and
    their order are those of ``centers[c] + offsets[cam] + slide * extent *
    axis + rng.normal(0, s, D)`` record by record, and so are the bits.
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
            sign = 1.0 if rng.random() < 0.5 else -1.0
            if spec.tail_fraction > 0.0:
                # contamination: a minority of instances slide, always
                # toward the positive end; the rest stay on the core
                slides[i] = mag if rng.random() < spec.tail_fraction else 0.0
            else:
                slides[i] = sign * mag
        rng.standard_normal(out=vectors[i])
    vectors *= spec.within_class_noise
    vectors += 0.0
    stops = np.cumsum(sizes).tolist()
    for c, (lo, hi) in enumerate(zip([0, *stops], stops)):
        mean = centers[c] + offsets[cameras[lo:hi]]
        if axes is not None:
            mean += (slides[lo:hi] * extents[c])[:, None] * axes[c]
        vectors[lo:hi] += mean
    return vectors, classes, cameras


def _tilt_axes(shared: np.ndarray, random_axes: np.ndarray, angle_deg: float) -> np.ndarray:
    """Rotate each row of ``shared`` toward the class's random axis.

    The random axes are orthogonalized against the shared directions first,
    so the result keeps exactly ``angle_deg`` between each tilted axis and
    its shared direction.
    """
    if angle_deg == 0.0:
        return np.array(shared)
    phi = np.radians(angle_deg)
    proj = np.sum(random_axes * shared, axis=1, keepdims=True)
    u = random_axes - proj * shared
    u = u / np.linalg.norm(u, axis=1, keepdims=True)
    return np.cos(phi) * shared + np.sin(phi) * u


def generate_synthetic(spec: SyntheticSpec) -> tuple[EmbeddingSet, EmbeddingSet]:
    """Gallery and query sets from one seeded generative process."""
    centers = substream(spec.seed, "synthetic.centers").normal(
        0.0, spec.class_center_scale, (spec.n_classes, spec.dim)
    )
    offsets = substream(spec.seed, "synthetic.cameras").normal(
        0.0, spec.camera_offset_scale, (spec.n_cameras, spec.dim)
    )
    axes = None
    if spec.max_elongation > 0:
        raw = substream(spec.seed, "synthetic.axes").normal(
            0.0, 1.0, (spec.n_classes, spec.dim)
        )
        axes = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    if spec.chain_spacing > 0:
        shared = substream(spec.seed, "synthetic.chain").normal(0.0, 1.0, spec.dim)
        shared /= np.linalg.norm(shared)
        steps = np.arange(spec.n_classes) - (spec.n_classes - 1) / 2.0
        centers = centers + steps[:, None] * spec.chain_spacing * shared[None, :]
        if axes is not None:
            shared_axes = np.broadcast_to(shared, (spec.n_classes, spec.dim))
            axes = _tilt_axes(shared_axes, axes, spec.tail_angle_deg)
    if spec.ring_spacing > 0:
        raw = substream(spec.seed, "synthetic.ring").normal(0.0, 1.0, (2, spec.dim))
        e1 = raw[0] / np.linalg.norm(raw[0])
        e2 = raw[1] - (raw[1] @ e1) * e1
        e2 /= np.linalg.norm(e2)
        radius = spec.n_classes * spec.ring_spacing / (2.0 * np.pi)
        theta = 2.0 * np.pi * np.arange(spec.n_classes) / spec.n_classes
        centers = centers + radius * (
            np.cos(theta)[:, None] * e1 + np.sin(theta)[:, None] * e2
        )
        if axes is not None:
            # tangent direction: one-sided tails chase the next neighbor
            tangents = -np.sin(theta)[:, None] * e1 + np.cos(theta)[:, None] * e2
            axes = _tilt_axes(tangents, axes, spec.tail_angle_deg)
    if isinstance(spec.elongation_scale, tuple):
        lo, hi = spec.elongation_scale
        extents = substream(spec.seed, "synthetic.extents").uniform(lo, hi, spec.n_classes)
    else:
        extents = np.full(spec.n_classes, float(spec.elongation_scale))
    sizes = _class_sizes(spec, substream(spec.seed, "synthetic.sizes"))
    q_sizes = np.full(spec.n_classes, spec.queries_per_class, dtype=np.int64)
    sets = []
    for prefix, stream, counts in (("g", "gallery", sizes), ("q", "queries", q_sizes)):
        rng = substream(spec.seed, f"synthetic.{stream}")
        vecs, classes, cameras = _draw_records(spec, rng, centers, offsets, axes, extents, counts)
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
        elongation_scale=(1.4, 1.4),
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

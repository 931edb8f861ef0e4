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

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import GcpConfig
from .schema import check_field_types
from .seeding import substream
from .store import EmbeddingSet, build_set


@dataclass(frozen=True)
class SyntheticSpec:
    n_classes: int = 200
    instances_per_class: int | tuple[int, int] = 8  # fixed, or (lo, hi) sizes
    dim: int = 32
    n_cameras: int = 4
    class_center_scale: float = 10.0
    within_class_noise: float = 1.0
    camera_offset_scale: float = 0.5
    elongation_scale: float | tuple[float, float] = 0.0  # fixed, or (lo, hi) per class
    elongation_floor: float = 0.0  # slide magnitude drawn from [floor, 1]
    tail_fraction: float = 0.0  # > 0: only this fraction slides, one-sided
    tail_angle_deg: float = 0.0  # tilt of the slide axis off the shared one
    chain_spacing: float = 0.0  # > 0: centers step along one shared axis
    ring_spacing: float = 0.0  # > 0: centers on a circle, this far apart
    queries_per_class: int = 2
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.n_classes < 1:
            raise ConfigError("n_classes must be positive")
        if isinstance(self.instances_per_class, tuple):
            lo, hi = self.instances_per_class
            if lo < 1 or hi < lo:
                raise ConfigError("instances_per_class range must satisfy 1 <= lo <= hi")
        elif self.instances_per_class < 1:
            raise ConfigError("instances_per_class must be positive")
        if self.dim < 1:
            raise ConfigError("dim must be positive")
        if self.n_cameras < 1:
            raise ConfigError("n_cameras must be positive")
        if self.class_center_scale <= 0:
            raise ConfigError("class_center_scale must be positive")
        if self.within_class_noise < 0:
            raise ConfigError("within_class_noise must be non-negative")
        if self.camera_offset_scale < 0:
            raise ConfigError("camera_offset_scale must be non-negative")
        if isinstance(self.elongation_scale, tuple):
            lo, hi = self.elongation_scale
            if lo < 0 or hi < lo:
                raise ConfigError("elongation_scale range must satisfy 0 <= lo <= hi")
        elif self.elongation_scale < 0:
            raise ConfigError("elongation_scale must be non-negative")
        if not 0.0 <= self.elongation_floor < 1.0:
            raise ConfigError("elongation_floor must lie in [0, 1)")
        if not 0.0 <= self.tail_fraction < 1.0:
            raise ConfigError("tail_fraction must lie in [0, 1)")
        if not 0.0 <= self.tail_angle_deg <= 90.0:
            raise ConfigError("tail_angle_deg must lie in [0, 90]")
        if self.chain_spacing < 0:
            raise ConfigError("chain_spacing must be non-negative")
        if self.ring_spacing < 0:
            raise ConfigError("ring_spacing must be non-negative")
        if self.chain_spacing > 0 and self.ring_spacing > 0:
            raise ConfigError("chain_spacing and ring_spacing are mutually exclusive")
        if self.ring_spacing > 0 and self.dim < 2:
            raise ConfigError("ring_spacing needs dim >= 2")
        if self.tail_angle_deg > 0 and self.dim < 2:
            raise ConfigError("tail_angle_deg needs dim >= 2")
        if self.queries_per_class < 0:
            raise ConfigError("queries_per_class must be non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

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
    vectors, classes, cameras = [], [], []
    for c in range(spec.n_classes):
        for _ in range(int(sizes[c])):
            cam = int(rng.integers(spec.n_cameras))
            vec = centers[c] + offsets[cam]
            if axes is not None:
                mag = rng.uniform(spec.elongation_floor, 1.0)
                sign = 1.0 if rng.random() < 0.5 else -1.0
                if spec.tail_fraction > 0.0:
                    # contamination: a minority of instances slide, always
                    # toward the positive end; the rest stay on the core
                    slide = mag if rng.random() < spec.tail_fraction else 0.0
                else:
                    slide = sign * mag
                vec = vec + slide * extents[c] * axes[c]
            vec = vec + rng.normal(0.0, spec.within_class_noise, spec.dim)
            vectors.append(vec)
            classes.append(c)
            cameras.append(cam)
    return np.array(vectors), classes, cameras


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
    g_vecs, g_cls, g_cams = _draw_records(
        spec, substream(spec.seed, "synthetic.gallery"), centers, offsets, axes, extents, sizes
    )
    gallery = build_set(g_vecs, g_cls, g_cams, id_prefix="g")
    q_sizes = np.full(spec.n_classes, spec.queries_per_class, dtype=np.int64)
    q_vecs, q_cls, q_cams = _draw_records(
        spec, substream(spec.seed, "synthetic.queries"), centers, offsets, axes, extents, q_sizes
    )
    queries = build_set(q_vecs, q_cls, q_cams, id_prefix="q")
    return gallery, queries


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

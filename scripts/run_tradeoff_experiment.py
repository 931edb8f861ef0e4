#!/usr/bin/env python3
"""Run the shipped tradeoff preset end to end and print the result tables.

Trains the prototype generator once on the preset gallery, then reports,
under the camera-filter protocol:

* baseline selectors (instance, plain mean, k-means centroids),
* the learned generator across prototype counts 1/2/3/6 (a single model;
  longer generations extend shorter ones exactly),
* a per-bucket mAP breakdown by gallery class size.

Artifacts (reports, sweep CSV, prototypes, checkpoint, resolved configs)
are written under --out.  Everything is seeded; rerunning reproduces the
numbers bit for bit.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gcproto.harness import PROTOCOL_CHOICES, ExperimentConfig, run_experiment, sweep
from gcproto.selectors import SelectorConfig
from gcproto.synthetic import tradeoff_spec, tradeoff_training


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="runs/tradeoff", help="artifact directory")
    parser.add_argument("--seed", type=int, default=0, help="training seed")
    parser.add_argument("--protocol", choices=PROTOCOL_CHOICES, default="camera-filter")
    args = parser.parse_args(argv)
    out = Path(args.out)

    spec = tradeoff_spec()
    print(f"preset: {spec.n_classes} classes x {spec.instances_per_class} instances, "
          f"dim {spec.dim}, {spec.n_cameras} cameras, protocol {args.protocol}")

    print("\nbaselines:")
    for method in ("instance", "centroid", "kcentroid"):
        cfg = ExperimentConfig(
            selector=SelectorConfig(method=method, n_prototypes=3, seed=0),
            preset="tradeoff", protocol=args.protocol,
        )
        rep = run_experiment(cfg, out_dir=out / method).report
        print(f"  {method:10s} R-1 {rep.top1:.4f}  mAP {rep.map:.4f}")

    print("\nlearned generator (one training run, prototype counts by prefix):")
    t0 = time.time()
    gcfg = ExperimentConfig(
        selector=SelectorConfig(method="gcp", n_prototypes=3, seed=0),
        preset="tradeoff", protocol=args.protocol,
        gcp=tradeoff_training(args.seed),
        sweep_axis="n", sweep_values=[1, 2, 3, 6],
    )
    for row in sweep(gcfg, out_dir=out / "gcp_sweep"):
        print(f"  N={row['n']}        R-1 {row['top1']:.4f}  mAP {row['map']:.4f}")
    print(f"  (training + sweep took {time.time() - t0:.1f}s)")

    print("\nper-bucket mAP (gcp, N=3, by gallery class size):")
    gcfg3 = ExperimentConfig(
        selector=SelectorConfig(method="gcp", n_prototypes=3, seed=0),
        preset="tradeoff", protocol=args.protocol,
        gcp=tradeoff_training(args.seed),
        group_buckets=["1-15", "16-30", "31+"],
    )
    rep = run_experiment(gcfg3, out_dir=out / "gcp_n3").report
    for label, row in rep.per_group.items():
        map_txt = "absent" if row["map"] is None else f"{row['map']:.4f}"
        print(f"  {label:8s} count {row['count']:4d}  mAP {map_txt}")

    print(f"\nartifacts under {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())

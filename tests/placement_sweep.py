"""Placement sweep: epochs, restarts and failures over random valid archetypes.

    PYTHONPATH=src python tests/placement_sweep.py --seed 0 --count 1000

Draws `count` valid archetypes (k 2-60, dim 2-60, overlaps 1e-7..0.5,
scale 1e-2..1e2, aspect and radius ratios up to 5), builds each one
through the public `sample_mixture_model`, and prints one markdown row
per k band: archetypes, converged, restarts, `NonConvergenceError`s, and
total, median and p90 epochs.  Epochs are the steps of every
`optimize_centers` attempt of an archetype, restarts included.  Not
collected by pytest; it runs for a few minutes.
"""

import argparse

import numpy as np

import clustergen.placement as placement
from clustergen.archetype import Archetype, validate_archetype
from clustergen.errors import NonConvergenceError
from clustergen.mixture import sample_mixture_model

BANDS = [(2, 9), (10, 19), (20, 39), (40, 60)]


def log_uniform(rng, low, high):
    return float(np.exp(rng.uniform(np.log(low), np.log(high))))


def draw_archetype(rng, index):
    """One valid archetype; invalid draws are redrawn."""
    while True:
        max_overlap = log_uniform(rng, 1e-7, 0.5)
        a = Archetype(
            name=f"sweep{index}",
            n_clusters=int(rng.integers(2, 61)),
            dim=int(rng.integers(2, 61)),
            aspect_ref=float(rng.uniform(1.0, 5.0)),
            aspect_maxmin=float(rng.uniform(1.0, 5.0)),
            radius_maxmin=float(rng.uniform(1.0, 5.0)),
            scale=log_uniform(rng, 1e-2, 1e2),
            max_overlap=max_overlap,
            min_overlap=max_overlap * log_uniform(rng, 1e-3, 0.5),
        )
        if not validate_archetype(a):
            return a


def run(seed, count):
    """Per archetype: (k, attempts, epochs, converged)."""
    rng = np.random.default_rng(seed)
    original = placement.optimize_centers
    attempts = []

    def recording(*args, **kwargs):
        try:
            placed, trace = original(*args, **kwargs)
        except NonConvergenceError as exc:
            attempts.append(len(exc.trace) - 1)
            raise
        attempts.append(len(trace) - 1)
        return placed, trace

    placement.optimize_centers = recording
    rows = []
    try:
        for index in range(count):
            a = draw_archetype(rng, index)
            attempts.clear()
            try:
                sample_mixture_model(a, np.random.default_rng([seed, index]))
                converged = True
            except NonConvergenceError:
                converged = False
            rows.append((a.n_clusters, len(attempts), sum(attempts), converged))
    finally:
        placement.optimize_centers = original
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=1000)
    args = parser.parse_args(argv)
    rows = run(args.seed, args.count)
    print("| k band | archetypes | converged | restarts | NonConvergenceError "
          "| total epochs | median | p90 |")
    print("|---|---|---|---|---|---|---|---|")
    for low, high in BANDS + [(2, 60)]:
        band = [r for r in rows if low <= r[0] <= high]
        epochs = np.array([r[2] for r in band])
        converged = sum(r[3] for r in band)
        restarts = sum(r[1] - 1 for r in band)
        print(f"| {low}–{high} | {len(band)} | {converged} | {restarts} "
              f"| {len(band) - converged} | {epochs.sum()} | {np.median(epochs):g} "
              f"| {np.percentile(epochs, 90):g} |")


if __name__ == "__main__":
    main()

"""Placement sweep: epochs, restarts and failures over random valid archetypes.

    PYTHONPATH=src python tests/placement_sweep.py --seed 0 --count 1000

Draws `count` valid archetypes (k 2-60, dim 2-60, overlaps 1e-7..0.5,
scale 1e-2..1e2, aspect and radius ratios up to 5), builds each one
through the public `sample_mixture_model`, and prints one markdown row
per k band: archetypes, converged, restarts, `NonConvergenceError`s, and
total, median and p90 epochs.  Epochs are the steps of every
`optimize_centers` attempt of an archetype, restarts included.

A second table covers a narrow-band stratum, drawn from its own random
streams: min_overlap / max_overlap uniform in 0.8-0.98, k and dim 2-30,
and aspect and radius ratios up to 5 (NARROW_COUNTS[5.0] archetypes) and
up to 20 (NARROW_COUNTS[20.0]).  Its rows add the archetypes that
converged only after a restart.  Not collected by pytest; it runs for
several minutes.
"""

import argparse

import numpy as np

import clustergen.placement as placement
from clustergen.archetype import Archetype, validate_archetype
from clustergen.errors import NonConvergenceError
from clustergen.mixture import sample_mixture_model

BANDS = [(2, 9), (10, 19), (20, 39), (40, 60)]
NARROW_BANDS = [(2, 9), (10, 19), (20, 30)]
NARROW_COUNTS = {5.0: 80, 20.0: 40}  # archetypes per largest geometry ratio


def log_uniform(rng, low, high):
    return float(np.exp(rng.uniform(np.log(low), np.log(high))))


def draw_archetype(rng, index, top=60, ratio=5.0, narrow=False):
    """One valid archetype; invalid draws are redrawn.

    k and dim are at most `top`, the aspect and radius ratios at most
    `ratio`; a `narrow` band has min_overlap / max_overlap in 0.8-0.98.
    """
    while True:
        max_overlap = log_uniform(rng, 1e-7, 0.5)
        a = Archetype(
            name=f"sweep{index}",
            n_clusters=int(rng.integers(2, top + 1)),
            dim=int(rng.integers(2, top + 1)),
            aspect_ref=float(rng.uniform(1.0, ratio)),
            aspect_maxmin=float(rng.uniform(1.0, ratio)),
            radius_maxmin=float(rng.uniform(1.0, ratio)),
            scale=log_uniform(rng, 1e-2, 1e2),
            max_overlap=max_overlap,
            min_overlap=max_overlap
            * (float(rng.uniform(0.8, 0.98)) if narrow else log_uniform(rng, 1e-3, 0.5)),
        )
        if not validate_archetype(a):
            return a


def run(seed, count, stream=(), **stratum):
    """Per archetype: (k, attempts, epochs, converged).

    `stream` keys a stratum's own random numbers; the empty default is the
    first table's.  `stratum` goes to `draw_archetype`.
    """
    rng = np.random.default_rng([seed, *stream] if stream else seed)
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
            a = draw_archetype(rng, index, **stratum)
            attempts.clear()
            try:
                sample_mixture_model(a, np.random.default_rng([seed, *stream, index]))
                converged = True
            except NonConvergenceError:
                converged = False
            rows.append((a.n_clusters, len(attempts), sum(attempts), converged))
    finally:
        placement.optimize_centers = original
    return rows


def cells(band):
    """Archetypes, converged, restarts, failures and total, median and p90 epochs."""
    epochs = np.array([r[2] for r in band])
    converged = sum(r[3] for r in band)
    restarts = sum(r[1] - 1 for r in band)
    return (f"{len(band)} | {converged} | {restarts} | {len(band) - converged} "
            f"| {epochs.sum()} | {np.median(epochs):g} | {np.percentile(epochs, 90):g}")


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
        print(f"| {low}–{high} | {cells([r for r in rows if low <= r[0] <= high])} |")

    print()
    print("| geometry ratios | k band | archetypes | converged | restarts | NonConvergenceError "
          "| total epochs | median | p90 | converged only after a restart |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for ratio, count in NARROW_COUNTS.items():
        rows = run(args.seed, count, (1, int(ratio)), top=30, ratio=ratio, narrow=True)
        for low, high in NARROW_BANDS + [(2, 30)]:
            band = [r for r in rows if low <= r[0] <= high]
            late = sum(r[3] and r[1] > 1 for r in band)
            print(f"| ≤ {ratio:g} | {low}–{high} | {cells(band)} | {late} |")


if __name__ == "__main__":
    main()

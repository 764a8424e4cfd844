"""Correctness checks: each CLI output against a composition of public functions.

`compose` rebuilds a request's dataset the way the CLI does, from the same
derived seed; the check functions return a list of problems (empty when
the output is correct).
"""

from __future__ import annotations

import dataclasses
import os
from time import perf_counter

import numpy as np

from clustergen.archetype import Archetype
from clustergen.cli import derive_seed
from clustergen.metrics import evaluate_dataset
from clustergen.mixture import MixtureModel, sample_mixture_model
from clustergen.overlap import pairwise_overlaps
from clustergen.placement import OverlapBounds, optimize_centers
from clustergen.postprocess import distort, wrap_around_sphere
from clustergen.sampling import Dataset, dataset_from_csv, dataset_to_csv, sample_dataset

# Placement stops at a loss of 1e-12, so realized overlaps may pass a bound
# by a relative ~1e-9; anything beyond this tolerance is a real violation.
OVERLAP_RTOL = 1e-6
UNIT_NORM_ATOL = 1e-12
# `bench` prints scores with six decimals.
SCORE_ATOL = 5.000001e-7


@dataclasses.dataclass
class Composed:
    archetype: Archetype
    seed: int
    model: MixtureModel
    dataset: Dataset
    scores: dict | None


def compose(arch_json: str, master_seed: int, command: str, flags) -> Composed:
    """The dataset (and for `bench` the scores) the CLI should produce."""
    a = Archetype.from_json(arch_json)
    seed = derive_seed(master_seed, a.name, 0)
    rng = np.random.default_rng(seed)
    model = sample_mixture_model(a, rng)
    dataset = sample_dataset(model, rng)
    points = dataset.points
    if "--distort" in flags:
        points = distort(points, seed=seed)
    if "--wrap" in flags:
        points = wrap_around_sphere(points)
    dataset = Dataset(points, dataset.labels, dataset.archetype_name)
    scores = None
    if command == "bench":
        scores = evaluate_dataset(points, dataset.labels, a.n_clusters, rng)
    return Composed(a, seed, model, dataset, scores)


def check_overlaps(c: Composed, tracer) -> tuple[list[str], int]:
    """Every pair at most max_overlap; every cluster's nearest neighbour at least min_overlap.

    Returns the problems and the number of pairs checked.
    """
    with tracer.span("overlap.pairwise_overlaps"):
        reports = pairwise_overlaps(c.model)
    a, problems = c.archetype, []
    worst = max(r.alpha_lda for r in reports)
    if worst > a.max_overlap * (1 + OVERLAP_RTOL):
        problems.append(f"pairwise overlap {worst:.6g} > max_overlap {a.max_overlap}")
    nearest = np.zeros(a.n_clusters)
    for r in reports:
        nearest[[r.i, r.j]] = np.maximum(nearest[[r.i, r.j]], r.alpha_lda)
    if nearest.min() < a.min_overlap * (1 - OVERLAP_RTOL):
        problems.append(
            f"largest neighbour overlap {nearest.min():.6g} < min_overlap {a.min_overlap}"
        )
    return problems, len(reports)


def check_csv(c: Composed, cli_bytes: bytes, work_dir, flags, tracer) -> list[str]:
    """CLI CSV bytes equal the composition's; the CSV round-trips; wrapped rows are unit-norm."""
    problems = []
    path = os.path.join(work_dir, "check.csv")
    dataset_to_csv(c.dataset, path)
    with open(path, "rb") as fh:
        if fh.read() != cli_bytes:
            problems.append("CLI CSV bytes differ from the library composition")
    with open(path, "wb") as fh:
        fh.write(cli_bytes)
    with tracer.span("sampling.dataset_from_csv"):
        back = dataset_from_csv(path)
    os.unlink(path)
    if back.points.shape != c.dataset.points.shape:
        problems.append(f"CSV read back as {back.points.shape}, expected {c.dataset.points.shape}")
    elif not np.array_equal(back.points, c.dataset.points):
        problems.append("CSV points do not round-trip")
    if not np.array_equal(back.labels, c.dataset.labels):
        problems.append("CSV labels do not round-trip")
    if "--wrap" in flags and back.points.size:
        error = np.abs(np.linalg.norm(back.points, axis=1) - 1.0).max()
        if error > UNIT_NORM_ATOL:
            problems.append(f"wrapped row norm off unit by {error:.3g}")
    return problems


def check_bench_row(c: Composed, row: str) -> list[str]:
    """The CLI's `bench` row matches the composition's archetype, seed and scores."""
    fields = row.split(",")
    expected = [c.archetype.name, str(c.seed), repr(c.archetype.max_overlap)]
    if len(fields) != 6 or fields[:3] != expected:
        return [f"bench row {row!r} does not start with {expected}"]
    problems = []
    for key, text in zip(("ami", "ari", "silhouette"), fields[3:]):
        if abs(float(text) - c.scores[key]) > SCORE_ATOL:
            problems.append(f"bench {key} {text} differs from composition {c.scores[key]!r}")
    return problems


def replay_placement(capture, tracer):
    """Re-run public `optimize_centers` from the last captured init.

    Returns (epochs, seconds, mismatch) where mismatch says whether the
    replayed centers differ from the CLI model's centers in any bit.
    """
    init, state, config = capture.attempts[-1]
    bit_generator = getattr(np.random, state["bit_generator"])()
    bit_generator.state = state
    start = dataclasses.replace(
        capture.model,
        clusters=[dataclasses.replace(cl, center=init[j]) for j, cl in enumerate(capture.model.clusters)],
    )
    a = capture.archetype
    bounds = OverlapBounds.from_overlaps(a.max_overlap, a.min_overlap)
    with tracer.span("placement.optimize_centers_replay"):
        began = perf_counter()
        replayed, trace = optimize_centers(start, bounds, config, np.random.Generator(bit_generator))
        seconds = perf_counter() - began
    mismatch = not np.array_equal(replayed.centers, capture.model.centers)
    return len(trace) - 1, seconds, mismatch

"""Property tests: every validated archetype places within its overlap band
or fails with NonConvergenceError, and `generate` and `validate-overlap
--archetype` exit 0 or 2, the latter with every estimate it reports finite.

The strategies span the validated range: `scale` log-uniform over
1e-100-1e100, the aspect and radius ratios log-uniform up to 1e3 (so the
largest aspect drawn is up to 3.2e4), and `imbalance_ratio` up to 1e6.  The
examples are derandomized, so every run tests the same archetypes;
`max_examples` keeps the whole file to about ten seconds.
"""

import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clustergen import cli
from clustergen.archetype import Archetype
from clustergen.distributions import SUPPORTED_FAMILIES
from clustergen.errors import NonConvergenceError
from clustergen.mixture import sample_mixture_model
from clustergen.overlap import pairwise_overlaps

PROPERTY = settings(deadline=None, derandomize=True, database=None)

# realized overlaps may miss the band by what placement's 1e-12 loss slack allows
BAND_RTOL = 1e-6

# four clusters of aspect ratio up to 1000 in a band of overlap ratio 0.9997:
# placement gives up at seed 0 (test_non_converging_example_fails_at_seed_0)
NON_CONVERGING = Archetype(
    name="nc", n_clusters=4, dim=2, max_overlap=0.3, min_overlap=0.2999,
    aspect_ref=1000.0, aspect_maxmin=1000.0, radius_maxmin=100.0,
)
WIDEST = Archetype(name="wide", n_clusters=2, dim=1100, n_samples=2)
# a spherical reference with spread once drew an aspect ratio of 1 - 2**-53
ROUNDED_ASPECT = Archetype(
    name="round", n_clusters=2, n_samples=2, aspect_ref=1.0, aspect_maxmin=11.277017836090344,
    max_overlap=0.1, min_overlap=0.05,
)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def archetypes(draw, max_clusters, dims):
    k = draw(st.integers(1, max_clusters))
    max_overlap = draw(log_uniform(1e-7, 0.5))
    families = draw(st.lists(st.sampled_from(SUPPORTED_FAMILIES), min_size=1, max_size=3, unique=True))
    weights = draw(st.none() | st.lists(st.floats(0.1, 1.0), min_size=len(families), max_size=len(families)))
    return Archetype(
        name="prop",
        n_clusters=k,
        dim=draw(dims),
        n_samples=draw(st.just(k) | st.integers(k, 30 * k)),
        aspect_ref=draw(log_uniform(1.0, 1e3)),
        aspect_maxmin=draw(log_uniform(1.0, 1e3)),
        radius_maxmin=draw(log_uniform(1.0, 1e3)),
        scale=draw(log_uniform(1e-100, 1e100)),
        max_overlap=max_overlap,
        min_overlap=max_overlap * draw(st.floats(1e-3, 0.99)),
        imbalance_ratio=draw(log_uniform(1.0, 1e6)),
        distributions=tuple(families),
        distribution_proportions=None if weights is None else tuple(
            w / sum(weights) for w in weights
        ),
    ).validated()


LOW_DIM = archetypes(max_clusters=8, dims=st.integers(2, 30))
HIGH_DIM = archetypes(max_clusters=2, dims=st.integers(100, 1100))


def assert_in_band_or_nonconvergent(a, seed):
    try:
        model = sample_mixture_model(a, np.random.default_rng(seed))
    except NonConvergenceError:
        return
    if a.n_clusters < 2:
        return
    alphas = np.full((a.n_clusters, a.n_clusters), np.nan)
    for r in pairwise_overlaps(model):
        alphas[r.i, r.j] = alphas[r.j, r.i] = r.alpha_lda
    assert np.nanmax(alphas) <= a.max_overlap * (1 + BAND_RTOL)
    # no isolated cluster: each one's nearest neighbour overlaps it enough
    assert np.nanmax(alphas, axis=1).min() >= a.min_overlap * (1 - BAND_RTOL)


def test_non_converging_example_fails_at_seed_0():
    # keeps @example(NON_CONVERGING, 0) on the property's NonConvergenceError branch
    with pytest.raises(NonConvergenceError):
        sample_mixture_model(NON_CONVERGING, np.random.default_rng(0))


@settings(PROPERTY, max_examples=80)
@given(LOW_DIM, st.integers(0, 2**32 - 1))
@example(NON_CONVERGING, 0)
@example(ROUNDED_ASPECT, 8)
def test_low_dim_model_in_band_or_nonconvergence(a, seed):
    assert_in_band_or_nonconvergent(a, seed)


@settings(PROPERTY, max_examples=3)
@given(HIGH_DIM, st.integers(0, 2**32 - 1))
@example(WIDEST, 0)
def test_high_dim_model_in_band_or_nonconvergence(a, seed):
    assert_in_band_or_nonconvergent(a, seed)


@settings(PROPERTY, max_examples=20)
@given(
    LOW_DIM | HIGH_DIM,
    st.integers(0, 2**31 - 1),
    st.integers(1, 2),
    st.sampled_from([1, 2]),
)
@example(NON_CONVERGING, 0, 1, 2)
@example(WIDEST, 0, 1, 1)
def test_generate_exits_0_or_2(a, seed, n_datasets, jobs):
    with tempfile.TemporaryDirectory() as out:
        code = cli.main(
            ["generate", "--inline", a.to_json(), "--seed", str(seed),
             "--n-datasets", str(n_datasets), "--jobs", str(jobs), "--out-dir", out]
        )
        statuses = [e["status"] for e in json.loads((Path(out) / "manifest.json").read_text())["entries"]]
        archetype, report = Path(out) / "a.json", Path(out) / "overlap.csv"
        archetype.write_text(a.to_json())
        validate_code = cli.main(
            ["validate-overlap", "--archetype", str(archetype), "--seed", str(seed),
             "--out", str(report)]
        )
        pairs = [] if validate_code else list(csv.DictReader(report.open(encoding="utf-8")))
    assert code in (cli.EXIT_OK, cli.EXIT_CONVERGENCE)
    assert len(statuses) == n_datasets
    assert set(statuses) <= {"ok", "convergence-failure"}
    assert (code == cli.EXIT_CONVERGENCE) == ("convergence-failure" in statuses)
    assert validate_code in (cli.EXIT_OK, cli.EXIT_CONVERGENCE)
    assert len(pairs) == (0 if validate_code else a.n_clusters * (a.n_clusters - 1) // 2)
    # alpha_exact, the costly oracle, stays blank here; test_overlap checks it at extreme scales
    assert all(
        math.isfinite(float(pair[column]))
        for pair in pairs for column in ("q_lda", "alpha_lda", "alpha_c2c")
    )

"""Golden outputs: sha256 of model JSON, `generate` CSV bytes and `bench` rows.

Same seed, same bytes.  A change that moves any output bit on purpose
updates these hashes in the same commit and says so.  Recorded with
numpy 2.4.6 on x86-64 Linux with glibc (no SciPy code computes them);
another BLAS/LAPACK build may round differently.  The normal tail probability
(`stats.normal_sf`) comes from the C library's `erfc` (`math.erfc`), so
the hashes also depend on the libm: another C library may move them.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from clustergen import cli
from clustergen.archetype import Archetype
from clustergen.mixture import sample_mixture_model

# (archetype, master seed, extra generate flags, model JSON sha256, CSV sha256)
CASES = [
    (
        {"name": "golden_plain", "n_clusters": 3, "dim": 2, "n_samples": 90},
        0,
        [],
        "47eea2e73bd75aa426d84c53d82bacb9de5bea623551e76a1bca29972159b684",
        "b0dba8d2c905a75324cc0eb56f5e75afd4e78b6c16feea61a781fe5782b5a558",
    ),
    (
        {
            "name": "golden_mixed", "n_clusters": 6, "dim": 5, "n_samples": 300,
            "aspect_ref": 2.0, "aspect_maxmin": 2.0, "radius_maxmin": 2.0,
            "imbalance_ratio": 2.0, "max_overlap": 0.05, "min_overlap": 0.001,
            "distributions": ["normal", "beta", "exponential"],
        },
        7,
        [],
        "5a455eefd37a2493ad83852fe16d1412aa1b852efc1861be90d437a2bb19c0df",
        "a22ea409dc14887e41e0835f0710b17bab383b543be10b9fa46ad89ef06f807d",
    ),
    (
        {"name": "golden_wide", "n_clusters": 4, "dim": 40, "n_samples": 80, "scale": 2.0},
        3,
        [],
        "05c4df4c1ef5f3ad8e793e01bf6c97546256da14b0efb53e910e55bbba13e637",
        "0c277e6bae5d80e67ae9e23c908b825ca93de95387479854d38873cb8bf79b5b",
    ),
    (
        # dim 200: pair inverses from a four-level triangular inverse, through 2 placement epochs
        {
            "name": "golden_high", "n_clusters": 5, "dim": 200, "n_samples": 100,
            "aspect_ref": 2.0, "aspect_maxmin": 2.0, "radius_maxmin": 2.0,
        },
        0,
        [],
        "819ab251d7fa1cdf2562ab722360f16db152bbc8f5edadacaf212a1896e9c208",
        "950d4649f180663d34d1b427119f454828ae6ad9465f1848048cf5bcfe5ecb36",
    ),
    (
        {"name": "golden_bent", "n_clusters": 3, "dim": 3, "n_samples": 120},
        11,
        ["--distort", "--wrap"],
        "c3aa73dfc466768f4afbbb7b21526eb0ab0327a266f73e234d1c896a7b22ef40",
        "5f482d2ea91f57fbc9a4b06d783e37bdfc4a1d0a0e54c05b5be2f35cf6674257",
    ),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("spec,master,flags,model_hash,csv_hash", CASES,
                         ids=[c[0]["name"] for c in CASES])
def test_golden_outputs(tmp_path, spec, master, flags, model_hash, csv_hash):
    a = Archetype.from_dict(spec)
    rng = np.random.default_rng(cli.derive_seed(master, a.name, 0))
    model = sample_mixture_model(a, rng)
    code = cli.main(
        ["generate", "--inline", json.dumps(spec), "--seed", str(master),
         "--out-dir", str(tmp_path), *flags]
    )
    assert code == cli.EXIT_OK
    csv_bytes = (tmp_path / f"{a.name}_000.csv").read_bytes()
    assert (sha256(model.to_json().encode()), sha256(csv_bytes)) == (model_hash, csv_hash)


# sha256 of `clustergen bench` stdout over the six benchmark archetypes:
# pins the K-Means labels (through AMI/ARI) and the silhouette to 6 decimals
BENCH_FIXTURE = Path(__file__).parent / "fixtures" / "benchmark_archetypes.jsonl"
BENCH_HASH = "cb12aabc6f7c1b977dfbfbb6b50574d7fab38b8a9e685574b59296abd76df8b1"


def test_golden_bench_rows(capsys):
    code = cli.main(
        ["bench", "--archetypes", str(BENCH_FIXTURE), "--seed", "0", "--n-datasets", "1"]
    )
    assert code == cli.EXIT_OK
    assert sha256(capsys.readouterr().out.encode()) == BENCH_HASH

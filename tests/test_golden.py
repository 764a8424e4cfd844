"""Golden outputs: sha256 of model JSON, `generate` CSV bytes and `bench` rows.

Same seed, same bytes.  A change that moves any output bit on purpose
updates these hashes in the same commit and says so.  Recorded with
numpy 2.4.6 on x86-64 Linux with glibc (no SciPy code computes them);
another BLAS/LAPACK build may round differently.  The CLI and
`conftest.py` run OpenBLAS on one thread, whose paths round apart from its
threaded ones from dim ~128 up.  The normal tail probability
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
        "517e0e7c0019dd5f6f35d51ef78d6bbce7e466e55d12072f7fb763a4232ed985",
        "38f9f191ebdeba081a8c3a2a0b9289d3810ad33e1e2e11d4b928bca1c849678e",
    ),
    (
        {"name": "golden_wide", "n_clusters": 4, "dim": 40, "n_samples": 80, "scale": 2.0},
        3,
        [],
        "baf87d8f5a4e97a98ea421d7b48a3a53fb50a856dcd75d166873cc2023c707a0",
        "4a41feb10bd536d95d8a19d5473819962619482ad0e4fa398605aa646cde906f",
    ),
    (
        # dim 200: pair factors W = L^{-1} from a four-level triangular inverse, and LDA axes
        # W'(W delta), through 2 placement epochs
        {
            "name": "golden_high", "n_clusters": 5, "dim": 200, "n_samples": 100,
            "aspect_ref": 2.0, "aspect_maxmin": 2.0, "radius_maxmin": 2.0,
        },
        0,
        [],
        "378322252e2d0a5ebf823a007780c72a07008bb1444c1034e8febefae7baae2e",
        "eef7c384e57f6fe0d92947bbffa6d9819f29b452b3a206590b9804c9f1fb1cd7",
    ),
    (
        {"name": "golden_bent", "n_clusters": 3, "dim": 3, "n_samples": 120},
        11,
        ["--distort", "--wrap"],
        "20c2e61ec205a5b9cffd302b49dcd0b66b081b0b050e7aeefaf92dfbefea0edf",
        "932c4ca52bb2523baac7c452b480c41415b0661e43b9f91329dee6acf06df88b",
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

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
        "69460c39a80b50c6fadc077b53c8e1d95b2831b1e5dfce60839bcd9915bacb65",
        "1e3837ef9d6486fca08ff25b639aa72ed6a3f3b7ac398ff897ef8c020c52699f",
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
        "b4851edc4ba07be4f7624eeab8696ccfa4be14d244fe5a55a025323be457d134",
        "4c84c809f3f638b4df68eb8139a5877ff44dcc225a67c9d87c33081f97686b97",
    ),
    (
        {"name": "golden_wide", "n_clusters": 4, "dim": 40, "n_samples": 80, "scale": 2.0},
        3,
        [],
        "b587b5800ad2022d2110aa19e9b024626b7f7eb9756d27e9f6b41ab049834e23",
        "1a5ccfb8f74cb242495ce71929a02a20fc6d32246f892500283949bef112930b",
    ),
    (
        {"name": "golden_bent", "n_clusters": 3, "dim": 3, "n_samples": 120},
        11,
        ["--distort", "--wrap"],
        "564cbd5928f9973c604b6bf01006ee39709224b7c5608a9301dcf5cf05490f30",
        "2ff98a013d617cbcc829a6cb1bfe5dbdcca7caaa5f529284ab5283dd4bb1cf0c",
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
BENCH_HASH = "2dfb21e8c6fd8a97973e29be00b4c67e2b6dd977a25a60dc26b0b2aafe6f6a29"


def test_golden_bench_rows(capsys):
    code = cli.main(
        ["bench", "--archetypes", str(BENCH_FIXTURE), "--seed", "0", "--n-datasets", "1"]
    )
    assert code == cli.EXIT_OK
    assert sha256(capsys.readouterr().out.encode()) == BENCH_HASH

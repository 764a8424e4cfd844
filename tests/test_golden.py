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
        "e1165833a90c44a8b5166c6c8cc4539b939bd40285811fc7a9bc50c160984e5d",
        "8993ca9a919d26738837c5c36a1a1136cbe6a354555cc53a420d67db2a3c6ebc",
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
        "d99df726fce9f1b37dbf44c6d94ba8437100446daf5ac501e4a5b122c5ac1d97",
        "dd968bda8914e569d1710ea519e818fd8b57d276bc7c0addd4b2c70e1883ca07",
    ),
    (
        {"name": "golden_wide", "n_clusters": 4, "dim": 40, "n_samples": 80, "scale": 2.0},
        3,
        [],
        "2dd1ea03de4dc9967e71ce6b954a150dc05610f164fc35acb22b7bc298c86b16",
        "95e2ea29bb563069702802f2ef8af0a60bcf3f2039499e15323fd9228f8e9cc1",
    ),
    (
        {"name": "golden_bent", "n_clusters": 3, "dim": 3, "n_samples": 120},
        11,
        ["--distort", "--wrap"],
        "6589e5e320dc11356f36c0531895c3dccab7340ddad007cb96deac8272c5f262",
        "7404286c16a9bbba400fded485a7a42e5c95da266ad30d607ec5a98caa14e3db",
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
BENCH_HASH = "94b1400c094adb942e4681d5e2540d55263b316f20c0fe982dcedecd0aa48145"


def test_golden_bench_rows(capsys):
    code = cli.main(
        ["bench", "--archetypes", str(BENCH_FIXTURE), "--seed", "0", "--n-datasets", "1"]
    )
    assert code == cli.EXIT_OK
    assert sha256(capsys.readouterr().out.encode()) == BENCH_HASH

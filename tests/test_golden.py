"""Golden outputs: sha256 of model JSON and `generate` CSV bytes.

Same seed, same bytes.  A change that moves any output bit on purpose
updates these hashes in the same commit and says so.  Recorded with
numpy 2.4.6 and scipy 1.17.1 on x86-64; another BLAS/LAPACK build may
round differently.
"""

import hashlib
import json

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
        "cc9355aacee833a6245a3f4b88dee1c967def4486e47d082130204ab32245e62",
        "d7c54d4e86d1910fa7ebfc136f2401bcd4b37e253bf7e924af3d1a3884b47f8c",
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
        "a830f5a0323508218e04e80ddb83605f46f3564faf6ed0e968e37e70910647a5",
        "7ed8b35344f946a9ec54af96de8faad5b1f38991b0204b63c2ad185ce3db1afb",
    ),
    (
        {"name": "golden_wide", "n_clusters": 4, "dim": 40, "n_samples": 80, "scale": 2.0},
        3,
        [],
        "b4b4a091327d9edde6f564d0ce150b011a93d261c52febbcff3146b4be99145c",
        "726552d79b91d190f4a28832253bd7e474b58404787b9800fa37c24f1506ec23",
    ),
    (
        {"name": "golden_bent", "n_clusters": 3, "dim": 3, "n_samples": 120},
        11,
        ["--distort", "--wrap"],
        "83ef0858cf7902de889df592e1752d16a1f9cfec0047cef87ae179d66a998acf",
        "9180423f78826d7a6e9724b8859e4abdf385b01457c83b3dca089631c48a0753",
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

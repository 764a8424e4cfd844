import csv
import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from clustergen import cli
from clustergen.archetype import Archetype
from clustergen.distributions import RadialDistribution
from clustergen.mixture import Cluster, MixtureModel, sample_mixture_model, sample_orientation
from clustergen.overlap import pairwise_overlaps
from clustergen.sampling import dataset_from_csv

FIXTURES = Path(__file__).parent / "fixtures"

SMALL = json.dumps(
    {
        "name": "cli_small",
        "n_clusters": 3,
        "dim": 2,
        "n_samples": 60,
        "max_overlap": 0.05,
        "min_overlap": 0.001,
    }
)


# four clusters of aspect ratio up to 1000 in a band of overlap ratio 0.9997:
# placement fails for datasets 0 and 2 at --seed 0 and converges for dataset 1
NONCONVERGING = json.dumps(
    {"name": "nc", "n_clusters": 4, "dim": 2, "max_overlap": 0.3,
     "min_overlap": 0.2999, "aspect_ref": 1000, "aspect_maxmin": 1000,
     "radius_maxmin": 100}
)


def die(*args):
    """A `_generate_one` whose worker process dies at once."""
    os._exit(9)


def run_python(args, cwd, env=os.environ, timeout=300, **kwargs):
    """Run `python *args` in a child with the environment `env` that imports
    clustergen from this tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**env, "PYTHONPATH": os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=timeout, **kwargs,
    )


def write_jsonl(path, archetypes):
    path.write_text("\n".join(archetypes) + "\n")


def without(record, key):
    return {k: v for k, v in record.items() if k != key}


def edit_cluster(model, index, cluster):
    clusters = list(model["clusters"])
    clusters[index] = cluster
    return {**model, "clusters": clusters}


class TestGenerate:
    def test_writes_datasets_and_manifest(self, tmp_path):
        src = tmp_path / "arch.jsonl"
        other = json.dumps({"name": "cli_other", "n_clusters": 2, "n_samples": 40})
        write_jsonl(src, [SMALL, other])
        out = tmp_path / "out"
        code = cli.main(
            ["generate", "--archetypes", str(src), "--n-datasets", "2",
             "--seed", "3", "--out-dir", str(out)]
        )
        assert code == 0
        csvs = sorted(p.name for p in out.glob("*.csv"))
        assert len(csvs) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 3
        listed = sorted(e["path"] for e in manifest["entries"])
        assert listed == csvs  # every file exactly once
        for entry in manifest["entries"]:
            assert entry["status"] == "ok"
            assert entry["seed"] == cli.derive_seed(3, entry["archetype"], entry["index"])

    def test_repeat_invocation_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = cli.main(
                ["generate", "--inline", SMALL, "--n-datasets", "1",
                 "--seed", "5", "--out-dir", str(out)]
            )
            assert code == 0
        f1 = next(out1.glob("*.csv")).read_bytes()
        f2 = next(out2.glob("*.csv")).read_bytes()
        assert f1 == f2

    def test_malformed_jsonl_names_line(self, tmp_path, capsys):
        src = tmp_path / "arch.jsonl"
        src.write_text(SMALL + "\n{not json}\n")
        code = cli.main(
            ["generate", "--archetypes", str(src), "--out-dir", str(tmp_path / "o")]
        )
        assert code == 1
        assert ":2:" in capsys.readouterr().err

    def test_non_object_jsonl_line_names_line(self, tmp_path, capsys):
        src = tmp_path / "arch.jsonl"
        src.write_text(SMALL + "\n[1]\n")
        code = cli.main(
            ["generate", "--archetypes", str(src), "--out-dir", str(tmp_path / "o")]
        )
        assert code == 1
        assert ":2: archetype must be a JSON object, got list" in capsys.readouterr().err

    def test_seed_key_is_unknown(self, tmp_path, capsys):
        # the master seed is --seed; an archetype file carries none
        seeded = json.dumps({**json.loads(SMALL), "seed": 11})
        code = cli.main(["generate", "--inline", seeded, "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_VALIDATION
        assert "unknown key(s): seed" in capsys.readouterr().err

    def test_distort_then_wrap_adds_column(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(
            ["generate", "--inline", SMALL, "--seed", "1", "--out-dir", str(out),
             "--distort", "--wrap"]
        )
        assert code == 0
        dataset = dataset_from_csv(next(out.glob("*.csv")))
        assert dataset.dim == 3  # wrap adds one dimension
        np.testing.assert_allclose(
            np.linalg.norm(dataset.points, axis=1), 1.0, atol=1e-9
        )

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        for out, jobs in ((serial, "1"), (parallel, "2")):
            code = cli.main(
                ["generate", "--inline", SMALL, "--n-datasets", "2",
                 "--seed", "9", "--out-dir", str(out), "--jobs", jobs]
            )
            assert code == 0
        for name in ("cli_small_000.csv", "cli_small_001.csv"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    def test_failed_csv_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def write_then_fail(dataset, path):
            with open(path, "w") as fh:
                fh.write("x1,x2,label\r\n0.5,")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "dataset_to_csv", write_then_fail)
        out = tmp_path / "out"
        code = cli.main(["generate", "--inline", SMALL, "--seed", "2", "--out-dir", str(out)])
        assert code == cli.EXIT_VALIDATION
        assert list(out.glob("*.tmp")) == []
        assert list(out.glob("*.csv")) == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("fail", [False, True], ids=["ok", "write_failure"])
    def test_no_temp_file_left(self, tmp_path, monkeypatch, jobs, fail):
        real_write = cli.dataset_to_csv

        def write_then_fail(dataset, path):
            real_write(dataset, path)
            if "_001.csv" in path:
                raise OSError(28, "No space left on device")

        if fail:
            monkeypatch.setattr(cli, "dataset_to_csv", write_then_fail)
        out = tmp_path / "out"
        code = cli.main(
            ["generate", "--inline", SMALL, "--n-datasets", "2", "--seed", "2",
             "--out-dir", str(out), "--jobs", jobs]
        )
        assert code == (cli.EXIT_VALIDATION if fail else cli.EXIT_OK)
        assert list(out.glob("*.tmp")) == []
        expected = ["cli_small_000.csv", "manifest.json"] + ([] if fail else ["cli_small_001.csv"])
        assert sorted(p.name for p in out.iterdir()) == sorted(expected)

    def test_failed_csv_write_keeps_manifest(self, tmp_path, monkeypatch):
        real_write = cli.dataset_to_csv

        def fail_second(dataset, path):
            if "_001.csv" in path:
                raise OSError(28, "No space left on device")
            real_write(dataset, path)

        monkeypatch.setattr(cli, "dataset_to_csv", fail_second)
        out = tmp_path / "out"
        code = cli.main(
            ["generate", "--inline", SMALL, "--n-datasets", "3", "--seed", "2",
             "--out-dir", str(out)]
        )
        assert code == cli.EXIT_VALIDATION
        manifest = json.loads((out / "manifest.json").read_text())
        assert [e["status"] for e in manifest["entries"]] == ["ok", "write-failure", "ok"]
        assert "No space left" in manifest["entries"][1]["error"]
        assert sorted(p.name for p in out.glob("*.csv")) == [
            "cli_small_000.csv", "cli_small_002.csv"
        ]

    def test_parallel_convergence_failure_keeps_manifest(self, tmp_path):
        # placement cannot hold four elongated clusters in this band for
        # dataset 0; dataset 1 converges.  Each worker returns its own entry.
        out = tmp_path / "out"
        code = cli.main(
            ["generate", "--inline", NONCONVERGING, "--n-datasets", "2", "--seed", "0",
             "--out-dir", str(out), "--jobs", "2"]
        )
        assert code == cli.EXIT_CONVERGENCE
        manifest = json.loads((out / "manifest.json").read_text())
        statuses = [e["status"] for e in manifest["entries"]]
        assert statuses == ["convergence-failure", "ok"]
        assert "did not reach tolerance" in manifest["entries"][0]["error"]
        assert sorted(p.name for p in out.glob("*.csv")) == ["nc_001.csv"]

    def test_dead_worker_still_writes_the_manifest(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_generate_one", die)
        out = tmp_path / "out"
        code = cli.main(
            ["generate", "--inline", SMALL, "--n-datasets", "2", "--out-dir", str(out),
             "--jobs", "2"]
        )
        assert code == cli.EXIT_VALIDATION
        entries = json.loads((out / "manifest.json").read_text())["entries"]
        assert [(e["index"], e["status"]) for e in entries] == [
            (0, "worker-failure"), (1, "worker-failure")
        ]
        assert list(entries[0]) == ["archetype", "index", "seed", "distort", "wrap",
                                    "status", "error"]
        assert "terminated abruptly" in entries[0]["error"]
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("error: cli_small[") == 2

    def test_parallel_distort_after_one_in_process(self, tmp_path):
        # the first distort makes this process's row-chunk pool; the --jobs
        # workers and a plain forked child each make their own instead of
        # waiting forever on threads that a child does not have
        code = """
import os, signal, sys
import numpy as np
from clustergen import cli
from clustergen.postprocess import distort
x = np.random.default_rng(0).normal(size=(4096, 3))
first = distort(x)
pid = os.fork()
if pid == 0:
    signal.alarm(60)  # a child that waits forever ends instead
    os._exit(0 if np.array_equal(distort(x), first) else 1)
assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
archetype = '{"name": "big", "n_clusters": 3, "n_samples": 4096}'
sys.exit(cli.main(["generate", "--inline", archetype, "--n-datasets", "2", "--jobs", "2",
                   "--distort", "--out-dir", "out"]))
"""
        result = run_python(["-c", code], tmp_path, timeout=120)
        assert result.returncode == 0, result.stderr
        assert sorted(p.name for p in (tmp_path / "out").glob("*.csv")) == [
            "big_000.csv", "big_001.csv"
        ]

    def test_widest_band_converges(self, tmp_path):
        # a rate that never halves leaves this pair just outside the band (loss 9.2e-3)
        spec = {"name": "a", "n_clusters": 2, "dim": 2, "max_overlap": 0.5, "min_overlap": 0.49}
        code = cli.main(["generate", "--inline", json.dumps(spec), "--seed", "0",
                         "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_OK
        model = sample_mixture_model(Archetype.from_dict(spec),
                                     np.random.default_rng(cli.derive_seed(0, "a", 0)))
        (report,) = pairwise_overlaps(model)
        assert 0.49 * (1 - 1e-6) <= report.alpha_lda <= 0.5 * (1 + 1e-6)

    def test_jobs_give_the_same_manifest_entries(self, tmp_path, capsys):
        # entries 0 and 2 fail to converge and entry 1 is ok; every key, its
        # value and the key order match across --jobs
        runs = []
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            code = cli.main(
                ["generate", "--inline", NONCONVERGING, "--n-datasets", "3", "--seed", "0",
                 "--out-dir", str(out), "--jobs", jobs]
            )
            assert code == cli.EXIT_CONVERGENCE
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["created_at"]
            runs.append((json.dumps(manifest), capsys.readouterr().err))
        assert runs[0] == runs[1]
        entries = json.loads(runs[0][0])["entries"]
        assert [e["status"] for e in entries] == ["convergence-failure", "ok",
                                                  "convergence-failure"]
        assert list(entries[0]) == ["archetype", "index", "seed", "distort", "wrap",
                                    "status", "error"]
        assert list(entries[1]) == ["archetype", "index", "seed", "distort", "wrap",
                                    "path", "status"]
        assert runs[0][1].count("error: nc[") == 2

    def test_repeated_archetype_name_exits_1(self, tmp_path, capsys):
        # the second archetype would overwrite the first one's CSV files
        src = tmp_path / "dup.jsonl"
        write_jsonl(src, ['{"name":"dup","n_clusters":3}', '{"name":"dup","n_clusters":4}'])
        out = tmp_path / "out"
        for argv in (["generate", "--archetypes", str(src), "--out-dir", str(out)],
                     ["bench", "--archetypes", str(src)]):
            assert cli.main(argv) == cli.EXIT_VALIDATION
            assert "name 'dup' is already taken by line 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank"])
    def test_archetype_file_without_archetypes_exits_1(self, tmp_path, capsys, text):
        # a broken `hyperparams | generate --archetypes /dev/stdin` pipe feeds no lines
        src = tmp_path / "none.jsonl"
        src.write_text(text)
        out = tmp_path / "out"
        code = cli.main(["generate", "--archetypes", str(src), "--out-dir", str(out)])
        assert code == cli.EXIT_VALIDATION
        assert f"{src}: holds no archetype" in capsys.readouterr().err
        assert not out.exists()


class TestValidateOverlap:
    def test_archetype_report_respects_bound(self, tmp_path, capsys):
        arch_path = tmp_path / "a.json"
        arch_path.write_text(SMALL)
        out = tmp_path / "report.csv"
        code = cli.main(
            ["validate-overlap", "--archetype", str(arch_path), "--seed", "2",
             "--out", str(out)]
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "i,j,q_lda,alpha_lda,alpha_c2c,alpha_exact"
        alphas = [float(r.split(",")[3]) for r in rows[1:]]
        assert len(alphas) == 3  # 3 choose 2
        assert max(alphas) <= 0.05 + 1e-9
        assert "max pairwise alpha_lda" in capsys.readouterr().err

    def test_single_cluster_empty_report_with_note(self, tmp_path, capsys):
        arch_path = tmp_path / "solo.json"
        arch_path.write_text(json.dumps({"name": "solo", "n_clusters": 1}))
        code = cli.main(["validate-overlap", "--archetype", str(arch_path)])
        assert code == 0
        assert "single-cluster" in capsys.readouterr().err

    @pytest.mark.parametrize("exact", [[], ["--exact"]])
    def test_stdout_holds_only_the_csv(self, tmp_path, capsys, exact):
        # without --out, `> report.csv` keeps the header and one row per pair;
        # the summary line goes to stderr
        arch_path = tmp_path / "a.json"
        arch_path.write_text(SMALL)
        assert cli.main(["validate-overlap", "--archetype", str(arch_path), *exact]) == 0
        out, err = capsys.readouterr()
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["i", "j", "q_lda", "alpha_lda", "alpha_c2c", "alpha_exact"]
        assert len(rows) == 1 + 3 and {len(row) for row in rows} == {6}
        assert err.startswith("summary: max pairwise alpha_lda=")

    def test_exact_flag_populates_oracle_column(self, tmp_path):
        arch_path = tmp_path / "a.json"
        arch_path.write_text(SMALL)
        out = tmp_path / "report.csv"
        code = cli.main(
            ["validate-overlap", "--archetype", str(arch_path), "--exact",
             "--out", str(out)]
        )
        assert code == 0
        for row in out.read_text().strip().splitlines()[1:]:
            assert row.split(",")[5] != ""

    def test_convergence_failure_exits_2(self, tmp_path, capsys):
        # NONCONVERGING fails at --seed 0 and converges at --seed 1
        arch_path = tmp_path / "nc.json"
        arch_path.write_text(NONCONVERGING)
        code = cli.main(["validate-overlap", "--archetype", str(arch_path), "--seed", "0"])
        assert code == cli.EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("error: overlap loss ") and " after 1001 epochs did not reach " in err
        code = cli.main(["validate-overlap", "--archetype", str(arch_path), "--seed", "1"])
        assert code == cli.EXIT_OK

    def test_model_json_input(self, tmp_path):
        a = Archetype.from_json(SMALL)
        model = sample_mixture_model(a, np.random.default_rng(0))
        model_path = tmp_path / "model.json"
        model_path.write_text(model.to_json())
        code = cli.main(["validate-overlap", "--model", str(model_path)])
        assert code == 0

    @pytest.mark.parametrize("cond,code", [(0.99e12, cli.EXIT_OK), (1.01e12, cli.EXIT_VALIDATION)])
    def test_model_condition_bound_at_dim_40(self, tmp_path, capsys, cond, code):
        # both clusters share an orientation, so their averaged covariance
        # has condition number cond; its inverse takes the Cholesky route
        rng = np.random.default_rng(40)
        axes = sample_orientation(40, rng, 1)[0]
        lengths = np.sqrt(np.geomspace(1.0, cond, 40))
        clusters = [
            Cluster(center, axes, scale * lengths, RadialDistribution("normal"))
            for center, scale in ((np.zeros(40), 1.0), (np.full(40, 1e3), 2.0))
        ]
        model_path = tmp_path / "model.json"
        model_path.write_text(MixtureModel(clusters, np.array([10, 10]), "ill").to_json())
        assert cli.main(["validate-overlap", "--model", str(model_path)]) == code
        if code == cli.EXIT_VALIDATION:
            assert "numerically singular" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,message", [
        (lambda m: {"clusters": []}, "missing key 'archetype_name'"),
        (lambda m: without(m, "group_sizes"), "missing key 'group_sizes'"),
        (lambda m: {**m, "group_sizes": "12"}, "'group_sizes' must be a list"),
        (lambda m: {**m, "group_sizes": m["group_sizes"][:-1]}, "one nonnegative integer"),
        (lambda m: {**m, "clusters": []}, "at least one cluster"),
        (lambda m: edit_cluster(m, 1, without(m["clusters"][1], "center")),
         "cluster 1 is missing key 'center'"),
        (lambda m: edit_cluster(m, 0, {**m["clusters"][0], "axes": [[1.0]]}), "must have shapes"),
        (lambda m: edit_cluster(m, 2, {**m["clusters"][2], "axis_lengths": ["x", 1]}),
         "'axis_lengths' must be"),
        (lambda m: edit_cluster(m, 0, {**m["clusters"][0], "distribution": "normal"}),
         "'distribution' must be a dict"),
        (lambda m: [], "must be a JSON object"),
        (lambda m: edit_cluster(m, 1, [1.0]), "error: model cluster 1 must be a JSON object, got list"),
    ])
    def test_malformed_model_json_exits_1(self, tmp_path, capsys, edit, message):
        model = sample_mixture_model(Archetype.from_json(SMALL), np.random.default_rng(0))
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(edit(model.to_dict())))
        code = cli.main(["validate-overlap", "--model", str(model_path)])
        assert code == cli.EXIT_VALIDATION
        assert message in capsys.readouterr().err

    def _model_with_distribution(self, tmp_path, distribution):
        model = sample_mixture_model(Archetype.from_json(SMALL), np.random.default_rng(0)).to_dict()
        edited = edit_cluster(model, 0, {**model["clusters"][0], "distribution": distribution})
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(edited))
        return model_path

    @pytest.mark.parametrize("distribution", [
        {"name": "gamma"},
        {"name": "gamma", "params": {"shape": 2.0}},
        {"name": "standard_t", "params": {"df": 5}},
        {"name": "f", "params": {"dfden": 10, "dfnum": 5.0}},
    ], ids=["absent", "equal", "int", "reordered"])
    def test_model_params_absent_or_fixed_exit_0(self, tmp_path, distribution):
        model_path = self._model_with_distribution(tmp_path, distribution)
        assert cli.main(["validate-overlap", "--model", str(model_path)]) == cli.EXIT_OK

    @pytest.mark.parametrize("params", [{"shape": 3.0}, {}, {"shape": 2.0, "scale": 1.0}])
    def test_model_params_other_than_fixed_exit_1(self, tmp_path, capsys, params):
        model_path = self._model_with_distribution(tmp_path, {"name": "gamma", "params": params})
        code = cli.main(["validate-overlap", "--model", str(model_path)])
        assert code == cli.EXIT_VALIDATION
        assert "'gamma' has the fixed parameters {'shape': 2.0}" in capsys.readouterr().err


class TestNlCommand:
    def test_dry_run_prints_prompts(self, capsys):
        code = cli.main(["nl", "five oblong clusters in two dimensions", "--dry-run"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Description: five oblong clusters in two dimensions" in out
        assert "Archetype identifier:" in out

    def test_empty_description_is_nl_failure(self, capsys):
        code = cli.main(["nl", "   ", "--dry-run"])
        assert code == 3

    def test_fixture_mode_end_to_end(self, nl_fixtures, fake_transport_factory,
                                     monkeypatch, capsys):
        description = "twelve clusters of different distributions"
        recorded = nl_fixtures[description]
        transport = fake_transport_factory(
            {"identifier": recorded["identifier"], "params": recorded["params"]}
        )
        monkeypatch.setattr("clustergen.nl._http_transport", transport)
        monkeypatch.setenv("CLUSTERGEN_API_KEY", "test")
        code = cli.main(["nl", description])
        assert code == 0
        produced = json.loads(capsys.readouterr().out)
        assert produced["name"] == recorded["identifier"]
        assert produced["n_clusters"] == 12

    def test_parse_failure_exits_3(self, nl_fixtures, fake_transport_factory,
                                   monkeypatch, capsys):
        refusal = nl_fixtures["_malformed"]["refusal"]
        transport = fake_transport_factory({"identifier": "ok_name", "params": refusal})
        monkeypatch.setattr("clustergen.nl._http_transport", transport)
        monkeypatch.setenv("CLUSTERGEN_API_KEY", "test")
        code = cli.main(["nl", "some description"])
        assert code == 3

    @pytest.mark.parametrize("content", [None, 7, ["ok_name"]], ids=["null", "number", "list"])
    def test_reply_without_text_exits_3(self, fake_transport_factory, monkeypatch, capsys,
                                        content):
        transport = fake_transport_factory({"identifier": content, "params": "{}"})
        monkeypatch.setattr("clustergen.nl._http_transport", transport)
        monkeypatch.setenv("CLUSTERGEN_API_KEY", "test")
        code = cli.main(["nl", "some description"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: malformed API response: content is ")
        assert err.count("\n") == 1


class TestPlot:
    def _write_dataset(self, tmp_path, n=30):
        out = tmp_path / "data"
        cli.main(
            ["generate", "--inline", SMALL, "--seed", "4", "--out-dir", str(out)]
        )
        return next(out.glob("*.csv"))

    def test_scatter_svg_has_point_elements(self, tmp_path):
        csv_path = self._write_dataset(tmp_path)
        svg_path = tmp_path / "plot.svg"
        code = cli.main(["plot", str(csv_path), str(svg_path)])
        assert code == 0
        root = ET.parse(svg_path).getroot()
        circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
        assert len(circles) == 60

    def test_high_dimensional_rejected(self, tmp_path, capsys):
        csv_path = tmp_path / "high.csv"
        header = ",".join(f"x{i}" for i in range(1, 11)) + ",label"
        csv_path.write_text(header + "\n" + ",".join(["0.0"] * 10) + ",0\n")
        code = cli.main(["plot", str(csv_path), str(tmp_path / "o.svg")])
        assert code == 1
        assert "2-D" in capsys.readouterr().err

    def test_three_columns_are_not_an_archetype_error(self, tmp_path, capsys):
        csv_path = tmp_path / "three.csv"
        csv_path.write_text("x1,x2,x3,label\n0.5,1.5,2.5,0\n1.0,2.0,3.0,1\n")
        code = cli.main(["plot", str(csv_path), str(tmp_path / "o.svg")])
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: plot requires 2-D data, got dim=3")
        assert "invalid archetype" not in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_exits_1_without_svg(self, tmp_path, capsys, value):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(f"x1,x2,label\n0.5,1.5,0\n1.0,{value},1\n")
        svg_path = tmp_path / "bad.svg"
        code = cli.main(["plot", str(csv_path), str(svg_path)])
        assert code == cli.EXIT_VALIDATION
        assert "column 'x2' has a non-finite value" in capsys.readouterr().err
        assert not svg_path.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("label", ["1e300", "-1e300"])
    def test_out_of_range_label_exits_1_without_svg(self, tmp_path, capsys, label):
        csv_path = tmp_path / "big.csv"
        csv_path.write_text(f"x1,x2,label\n0.5,1.5,0\n1.0,2.0,{label}\n")
        svg_path = tmp_path / "big.svg"
        code = cli.main(["plot", str(csv_path), str(svg_path)])
        assert code == cli.EXIT_VALIDATION == 1
        assert "labels must be integers" in capsys.readouterr().err
        assert not svg_path.exists()

    def test_empty_dataset_axes_only(self, tmp_path):
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text("x1,x2,label\n")
        svg_path = tmp_path / "empty.svg"
        code = cli.main(["plot", str(csv_path), str(svg_path)])
        assert code == 0
        root = ET.parse(svg_path).getroot()
        assert not root.findall(".//{http://www.w3.org/2000/svg}circle")
        assert len(root.findall(".//{http://www.w3.org/2000/svg}line")) == 2


class TestBench:
    def test_emits_metric_rows(self, tmp_path):
        out = tmp_path / "results.csv"
        code = cli.main(
            ["bench", "--inline", SMALL, "--n-datasets", "2", "--seed", "0",
             "--out", str(out)]
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "archetype,seed,max_overlap,ami,ari,silhouette"
        assert len(rows) == 3
        for row in rows[1:]:
            fields = row.split(",")
            assert fields[0] == "cli_small"
            assert 0.0 <= float(fields[3]) <= 1.0

    def test_single_cluster_scores_nan_silhouette(self, capsys):
        # a valid one-cluster archetype: AMI and ARI are 1, silhouette undefined
        code = cli.main(["bench", "--inline", '{"name":"one","n_clusters":1,"n_samples":50}',
                         "--n-datasets", "2"])
        assert code == cli.EXIT_OK
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 3
        for row in rows[1:]:
            assert row.endswith(",1.000000,1.000000,nan")

    def test_convergence_failure_keeps_the_other_rows(self, tmp_path, capsys):
        # datasets 0 and 2 do not converge: each is named on stderr, dataset
        # 1's row is written, and the run exits 2
        out = tmp_path / "b.csv"
        code = cli.main(["bench", "--inline", NONCONVERGING, "--n-datasets", "3",
                         "--seed", "0", "--out", str(out)])
        assert code == cli.EXIT_CONVERGENCE
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "archetype,seed,max_overlap,ami,ari,silhouette"
        assert [row.split(",")[:2] for row in rows[1:]] == [
            ["nc", str(cli.derive_seed(0, "nc", 1))]
        ]
        err = capsys.readouterr().err
        assert err.count("error: nc[0]: ") == err.count("error: nc[2]: ") == 1
        assert "nc[1]" not in err

    def test_value_error_keeps_the_other_rows(self, tmp_path, monkeypatch, capsys):
        # scoring dataset 1 fails: it is named on stderr, datasets 0 and 2
        # keep their rows, and the run exits 1
        evaluate = cli.evaluate_dataset
        calls = []

        def fail_second(*args):
            calls.append(None)
            if len(calls) == 2:
                raise ValueError("scoring failed")
            return evaluate(*args)

        monkeypatch.setattr(cli, "evaluate_dataset", fail_second)
        out = tmp_path / "b.csv"
        code = cli.main(["bench", "--inline", SMALL, "--n-datasets", "3", "--out", str(out)])
        assert code == cli.EXIT_VALIDATION
        rows = out.read_text().strip().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == [
            str(cli.derive_seed(0, "cli_small", i)) for i in (0, 2)
        ]
        assert capsys.readouterr().err == "error: cli_small[1]: scoring failed\n"

    def test_archetype_file_without_archetypes_exits_1(self, tmp_path, capsys):
        src = tmp_path / "none.jsonl"
        src.write_text("")
        assert cli.main(["bench", "--archetypes", str(src)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""  # not even the header
        assert f"{src}: holds no archetype" in captured.err


class TestHyperparams:
    def test_emits_variant_jsonl(self, tmp_path, capsys):
        arch_path = tmp_path / "a.json"
        arch_path.write_text(SMALL)
        code = cli.main(
            ["hyperparams", "--archetype", str(arch_path), "--n-variants", "3",
             "--bounds", '{"n_clusters": [2, 10]}', "--seed", "0"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            variant = Archetype.from_json(line)
            assert 2 <= variant.n_clusters <= 10

    def test_variants_generate_cleanly(self, tmp_path, capsys):
        # at n_samples = n_clusters, any variant that draws more clusters
        # needs its n_samples floored, or generate refuses it
        arch_path = tmp_path / "h.json"
        arch_path.write_text('{"name":"h","n_clusters":5,"n_samples":5}')
        code = cli.main(
            ["hyperparams", "--archetype", str(arch_path), "--n-variants", "8", "--seed", "0"]
        )
        assert code == 0
        variants_path = tmp_path / "variants.jsonl"
        variants_path.write_text(capsys.readouterr().out)
        out = tmp_path / "out"
        code = cli.main(["generate", "--archetypes", str(variants_path), "--out-dir", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [e["status"] for e in manifest["entries"]] == ["ok"] * 8

    def test_bounded_variants_generate_cleanly(self, tmp_path, capsys):
        # a drawn n_clusters above the n_samples maximum of 6 would leave
        # n_samples no value, so the n_clusters draw is capped there
        arch_path = tmp_path / "h.json"
        arch_path.write_text('{"name":"h","n_clusters":5,"n_samples":5}')
        code = cli.main(
            ["hyperparams", "--archetype", str(arch_path), "--n-variants", "8",
             "--bounds", '{"n_samples": [5, 6]}', "--seed", "0"]
        )
        assert code == 0
        variants_path = tmp_path / "variants.jsonl"
        variants_path.write_text(capsys.readouterr().out)
        out = tmp_path / "out"
        code = cli.main(["generate", "--archetypes", str(variants_path), "--out-dir", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [e["status"] for e in manifest["entries"]] == ["ok"] * 8

    def test_inverted_bounds_exit_1(self, tmp_path, capsys):
        arch_path = tmp_path / "a.json"
        arch_path.write_text(SMALL)
        code = cli.main(
            ["hyperparams", "--archetype", str(arch_path),
             "--bounds", '{"n_samples": [100, 50]}']
        )
        assert code == 1


    @pytest.mark.parametrize(
        "bounds",
        ['{"n_clusters": 5}', "[1,2]", '{"n_clusters": ["a","b"]}'],
        ids=["scalar_value", "not_an_object", "non_numeric_pair"],
    )
    def test_malformed_bounds_exit_1(self, tmp_path, capsys, bounds):
        arch_path = tmp_path / "a.json"
        arch_path.write_text(SMALL)
        code = cli.main(["hyperparams", "--archetype", str(arch_path), "--bounds", bounds])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestNonObjectArchetype:
    @pytest.mark.parametrize("text,kind", [("[1]", "list"), ("5", "int"), ("null", "NoneType")])
    @pytest.mark.parametrize("command", ["generate", "bench", "validate-overlap", "hyperparams"])
    def test_exits_1_with_error_line(self, tmp_path, capsys, command, text, kind):
        path = tmp_path / "a.json"
        path.write_text(text)
        argv = {
            "generate": ["generate", "--inline", text, "--out-dir", str(tmp_path / "o")],
            "bench": ["bench", "--inline", text],
            "validate-overlap": ["validate-overlap", "--archetype", str(path)],
            "hyperparams": ["hyperparams", "--archetype", str(path)],
        }[command]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"archetype must be a JSON object, got {kind}" in err

    def test_missing_required_key_exits_1(self, tmp_path, capsys):
        code = cli.main(["generate", "--inline", '{"name": "a"}', "--out-dir", str(tmp_path)])
        assert code == 1
        assert "missing key(s): n_clusters" in capsys.readouterr().err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--inline", SMALL],
            ["generate", "--inline", SMALL, "--out-dir", "out", "--n-datasets", "x"],
            ["generate", "--inline", SMALL, "--out-dir", "out", "--n-datasets", "-1"],
            ["generate", "--inline", SMALL, "--out-dir", "out", "--jobs", "0"],
            ["bench", "--inline", SMALL, "--n-datasets", "0"],
            ["hyperparams", "--archetype", "a.json", "--n-variants", "-1"],
            [],
        ],
        ids=["missing_out_dir", "n_datasets_x", "n_datasets_negative", "jobs_0",
             "bench_n_datasets_0", "n_variants_negative", "no_command"],
    )
    def test_exit_1_without_output(self, tmp_path, monkeypatch, capsys, argv):
        # exit code 2 is reserved for convergence failure
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 1
        assert "error: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["generate", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 0
        assert capsys.readouterr().out


class TestExtremeGeometry:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"dim": 400, "scale": 10},
            {"dim": 1000, "radius_maxmin": 3},
            {"dim": 200, "scale": 1e-3},
            {"dim": 1100},
            {"n_clusters": 3, "scale": 1e-100},
            {"n_clusters": 3, "scale": 1e100},
            {"n_clusters": 3, "dim": 50, "aspect_ref": 1e3, "aspect_maxmin": 1e6},
        ],
        ids=["dim400_scale10", "dim1000_ratio3", "dim200_scale1e-3", "dim1100",
             "scale_min", "scale_max", "aspect_max"],
    )
    def test_generate_succeeds(self, tmp_path, overrides):
        # the first two once overflowed in the radius draw and escaped as a raw
        # traceback; the third underflowed there, then diverged in placement;
        # the fourth underflowed in the ball density and started from NaN centers
        spec = {"name": "extreme", "n_clusters": 2, "n_samples": 20, **overrides}
        out = tmp_path / "out"
        code = cli.main(["generate", "--inline", json.dumps(spec), "--seed", "0", "--out-dir", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [e["status"] for e in manifest["entries"]] == ["ok"]

    @pytest.mark.parametrize("scale", ["Infinity", "1e101", "1e-101"])
    def test_scale_out_of_range_exits_1(self, tmp_path, capsys, scale):
        # outside the range placement can end at a NaN loss (scale Infinity
        # or 1e160) or a zero learning rate (1e-300)
        spec = f'{{"name": "extreme", "n_clusters": 3, "scale": {scale}}}'
        code = cli.main(["generate", "--inline", spec, "--out-dir", str(tmp_path / "out")])
        assert code == cli.EXIT_VALIDATION
        assert "scale must lie in [1e-100, 1e+100]" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", [50, 1000])
    def test_aspect_past_bound_exits_1(self, tmp_path, capsys, dim):
        # aspect_ref 1e20 drew covariances too ill-conditioned to take a
        # square root of, a raw traceback under -W error
        spec = json.dumps({"name": "extreme", "n_clusters": 3, "dim": dim, "aspect_ref": 1e20})
        code = cli.main(["generate", "--inline", spec, "--out-dir", str(tmp_path / "out")])
        assert code == cli.EXIT_VALIDATION
        assert "the largest aspect ratio drawn, must be at most 1e+06" in capsys.readouterr().err


class TestExitCodeMapping:
    def test_convergence_error_maps_to_2(self, monkeypatch, tmp_path):
        from clustergen.errors import NonConvergenceError

        def explode(*args, **kwargs):
            raise NonConvergenceError(1.0, [1.0])

        monkeypatch.setattr("clustergen.cli.sample_mixture_model", explode)
        out = tmp_path / "out"
        code = cli.main(["generate", "--inline", SMALL, "--out-dir", str(out)])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["entries"][0]["status"] == "convergence-failure"


# the second dataset needs 100 million points in 100 dimensions, 75 GiB
MEMORY_ARCHETYPES = [
    '{"name":"ok","n_clusters":3}',
    '{"name":"huge","n_clusters":3,"dim":100,"n_samples":100000000}',
]


def run_with_memory_limit(argv, cwd):
    """Run the CLI in a child process whose address space is capped at 3 GiB."""
    resource = pytest.importorskip("resource")
    limit = 3 * 2**30
    return run_python(
        ["-m", "clustergen.cli", *argv], cwd, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


class TestMemoryFailure:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_generate_records_it_and_writes_the_manifest(self, tmp_path, jobs):
        write_jsonl(tmp_path / "mem.jsonl", MEMORY_ARCHETYPES)
        result = run_with_memory_limit(
            ["generate", "--archetypes", "mem.jsonl", "--out-dir", "out", "--jobs", jobs],
            tmp_path,
        )
        assert result.returncode == cli.EXIT_VALIDATION, result.stderr
        assert "Traceback" not in result.stderr
        assert result.stderr.count("error: huge[0]: ") == 1
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert [(e["archetype"], e["status"]) for e in manifest["entries"]] == [
            ("ok", "ok"), ("huge", "memory-failure")
        ]
        assert (tmp_path / "out" / "ok_000.csv").exists()

    def test_bench_keeps_the_other_rows(self, tmp_path):
        write_jsonl(tmp_path / "mem.jsonl", MEMORY_ARCHETYPES)
        result = run_with_memory_limit(
            ["bench", "--archetypes", "mem.jsonl", "--n-datasets", "1", "--out", "b.csv"],
            tmp_path,
        )
        assert result.returncode == cli.EXIT_VALIDATION, result.stderr
        assert "Traceback" not in result.stderr
        assert result.stderr.count("error: huge[0]: ") == 1
        rows = (tmp_path / "b.csv").read_text().strip().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["ok"]

    def test_stray_memory_error_is_one_line(self, monkeypatch, capsys):
        def exhaust(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "load_archetypes_jsonl", exhaust)
        assert cli.main(["generate", "--archetypes", "x", "--out-dir", "o"]) == 1
        assert capsys.readouterr().err == "error: out of memory\n"


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# golden_high of tests/test_golden.py, and a dim-500 archetype: OpenBLAS's
# threaded paths round apart from its one-thread paths in Cholesky from dim
# ~128, and in matmul, QR and eigh from dim ~500
BLAS_ARCHETYPES = [
    '{"name": "golden_high", "n_clusters": 5, "dim": 200, "n_samples": 100,'
    ' "aspect_ref": 2.0, "aspect_maxmin": 2.0, "radius_maxmin": 2.0}',
    '{"name": "d500", "n_clusters": 3, "dim": 500, "n_samples": 60}',
]


class TestBlasThreads:
    def test_bytes_do_not_depend_on_the_blas_thread_setting(self, tmp_path):
        write_jsonl(tmp_path / "a.jsonl", BLAS_ARCHETYPES)
        (tmp_path / "d500.json").write_text(BLAS_ARCHETYPES[1])
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
        outputs = {}
        for threads in (None, "1", "2", "4"):
            child_env = {**env, **({} if threads is None else {"OPENBLAS_NUM_THREADS": threads})}
            run = tmp_path / str(threads)
            for argv in (["generate", "--archetypes", "a.jsonl", "--out-dir", str(run)],
                         ["validate-overlap", "--archetype", "d500.json", "--exact",
                          "--out", str(run / "d500.overlap.csv")]):
                result = run_python(["-m", "clustergen.cli", *argv], tmp_path, child_env)
                assert result.returncode == 0, result.stderr
            outputs[threads] = {p.name: p.read_bytes() for p in run.glob("*.csv")}
        assert sorted(outputs[None]) == ["d500.overlap.csv", "d500_000.csv", "golden_high_000.csv"]
        assert all(files == outputs[None] for files in outputs.values())

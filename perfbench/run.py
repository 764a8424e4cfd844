"""clustergen benchmark: closed-loop `generate` / `bench` throughput, plus a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload gen_place --seed 1 --seconds 27 --trace 0

One client sends one request at a time.  A request is one in-process
`clustergen.cli.main` call that produces one dataset from one archetype of
the workload (`--n-datasets 1 --jobs 1`, master seed derived from
`--seed` and the request index).  Requests cycle through the workload's
archetypes, and a run measures whole cycles until `--seconds` have passed.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json with tracing
off.  `--trace 1` sends every request twice, untraced and then with spans
around each layer call (see spans.py), and prints the per-layer metrics.
Both modes check outputs against a composition of the library's public
functions (see checks.py).  The last line of stdout is one JSON object;
the exit code is 1 when a check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread: the client runs --jobs 1, and a fixed thread count keeps
# timings steady and outputs bit-reproducible across machines.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The digest and the untraced run's output checks cover the first cycle,
# which every run completes whatever its length.
MIN_CYCLES = 1
SETUP_SPAWNS = 5
SPAWN_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    command: str
    flags: tuple[str, ...]
    # Fixed per workload so that runs of different lengths report the same
    # percentile; chosen to leave at least 10 calls beyond it in a 27 s run
    # on a 2-CPU Xeon at 2.0 GHz.
    tail_percentile: int


WORKLOADS = {
    # Placement-bound: k=50/dim 5 and k=30/dim 20 make many tiny LDA solves,
    # k=5/dim 200 few large ones; CSVs are too small to matter.  The three
    # cost about the same per call, and each call is short, so a run holds
    # enough calls for a steady median: a call's cost varies by a third
    # from seed to seed with the number of SGD epochs.
    "gen_place": Workload("generate", (), 85),
    # Postprocess- and CSV-bound: distort, wrap and CSV writing of 6000
    # points; placing 5 clusters is about 1% of a call.
    "gen_largen": Workload("generate", ("--distort", "--wrap"), 75),
    # Scoring-bound: K-Means, AMI/ARI and silhouette (n=4000 sets the tail and
    # the memory peak) on the paper's six benchmark archetypes.
    "bench_score": Workload("bench", (), 90),
}

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import clustergen.cli
from clustergen.archetype import load_archetypes_jsonl
for archetype in load_archetypes_jsonl(sys.argv[2]):
    archetype.validated()
print("ready", flush=True)
"""


def request_seed(seed: int, index: int) -> int:
    """The master seed of request `index`; warm-up requests use negative indices."""
    digest = hashlib.sha256(f"perfbench|{seed}|{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def tiny(line: str) -> str:
    """A small variant of an archetype, for the smoke test."""
    a = json.loads(line)
    k = min(a["n_clusters"], 3)
    a.update(n_clusters=k, dim=min(a.get("dim", 2), 3), n_samples=40 * k)
    return json.dumps(a)


def measure_setup(archetype_path: Path, spawns: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has imported
    clustergen.cli and loaded and validated the workload's archetypes."""
    times = []
    for _ in range(spawns):
        began = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(archetype_path)],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - began)
            proc.stdout.read()
            if proc.wait(timeout=SPAWN_TIMEOUT_S) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
    return times


@dataclass
class Outcome:
    index: int
    line: str
    name: str
    master_seed: int
    seconds: float
    error: str | None
    path: Path | None = None


class Client:
    """Sends requests to `clustergen.cli.main` in this process, one at a time."""

    def __init__(self, cli, workload: Workload, out_dir: Path):
        self.cli = cli
        self.workload = workload
        self.out_dir = out_dir
        self.devnull = open(os.devnull, "w", encoding="utf-8")

    def close(self) -> None:
        self.devnull.close()

    def argv(self, line: str, master_seed: int) -> list[str]:
        common = ["--inline", line, "--n-datasets", "1", "--seed", str(master_seed)]
        if self.workload.command == "bench":
            return ["bench", *common, "--out", str(self.out_dir / "bench.csv")]
        return [
            "generate", *common, "--jobs", "1", "--out-dir", str(self.out_dir),
            *self.workload.flags,
        ]

    def send(self, index: int, line: str, master_seed: int, tracer=None) -> Outcome:
        """One `cli.main` call; with a tracer, its layer calls are recorded as spans."""
        argv = self.argv(line, master_seed)
        stderr = io.StringIO()
        code = error = None
        with contextlib.redirect_stdout(self.devnull), contextlib.redirect_stderr(stderr):
            began = perf_counter()
            try:
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    with tracer.installed(), tracer.request(index):
                        code = self.cli.main(argv)
            except Exception:  # an uncaught exception fails the request; keep its traceback
                error = traceback.format_exc().strip()
            seconds = perf_counter() - began
        if code not in (0, None):
            error = f"exit code {code}: {stderr.getvalue().strip()}"
        name = json.loads(line)["name"]
        outcome = Outcome(index, line, name, master_seed, seconds, error)
        if error is None:
            self._locate_output(outcome)
        return outcome

    def output(self, outcome: Outcome) -> bytes:
        """The CSV bytes for `generate`; the result row for `bench`."""
        data = outcome.path.read_bytes()
        return data.splitlines()[1] if self.workload.command == "bench" else data

    def _locate_output(self, outcome: Outcome) -> None:
        if self.workload.command == "bench":
            outcome.path = self.out_dir / "bench.csv"
            return
        with open(self.out_dir / "manifest.json", encoding="utf-8") as fh:
            entry = json.load(fh)["entries"][0]
        if entry["status"] != "ok":
            outcome.error = f"manifest status {entry['status']}: {entry.get('error')}"
        else:
            outcome.path = self.out_dir / entry["path"]


def run_cycles(lines, seconds: float, step) -> float:
    """Closed loop over whole cycles of `lines` until `seconds` have passed;
    returns the elapsed wall time."""
    began = perf_counter()
    index = cycles = 0
    while cycles < MIN_CYCLES or perf_counter() - began < seconds:
        for line in lines:
            step(index, line)
            index += 1
        cycles += 1
    return perf_counter() - began


def check_outcome(outcome: Outcome, output: bytes, workload: Workload, tracer) -> tuple:
    """Compose the request from public functions and compare; returns (problems, composed, pairs)."""
    import checks

    composed = checks.compose(outcome.line, outcome.master_seed, workload.command, workload.flags)
    problems, pairs = checks.check_overlaps(composed, tracer)
    if workload.command == "bench":
        problems += checks.check_bench_row(composed, output.decode())
    else:
        problems += checks.check_csv(
            composed, output, outcome.path.parent, workload.flags, tracer
        )
    return problems, composed, pairs


def cycle_means(outcomes: list[Outcome], size: int) -> list[float]:
    """Mean call time of each cycle of `size` requests in which no call failed.

    A cycle sends one dataset of each archetype.  Its mean weighs the
    archetypes equally, so the median over cycles does not sit on the gap
    between a cheap and a dear archetype, as a median over single calls of
    unequal archetypes does."""
    means = []
    for start in range(0, len(outcomes) - size + 1, size):
        cycle = outcomes[start : start + size]
        if all(o.error is None for o in cycle):
            means.append(statistics.fmean(o.seconds for o in cycle))
    if not means:
        raise RuntimeError("no cycle completed without a failed request")
    return means


def percentile(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def digest(outcomes: list[Outcome], outputs: dict[int, bytes]) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(f"{o.index}|{o.name}|{o.master_seed}|{o.error is None}\n".encode())
        h.update(outputs.get(o.index, b""))
    return h.hexdigest()


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
    }


def report_failures(outcomes: list[Outcome]) -> None:
    from clustergen.cli import derive_seed

    for o in outcomes:
        if o.error is not None:
            seed = derive_seed(o.master_seed, o.name, 0)
            print(
                f"failure: request {o.index} archetype={o.name} master_seed={o.master_seed} "
                f"dataset_seed={seed}: {o.error}"
            )


def warm_up(args, lines, client) -> None:
    """One untimed cycle, so lazy caches fill before timing."""
    for j, line in enumerate(lines):
        client.send(-1 - j, line, request_seed(args.seed, -1 - j))


def run_untraced(args, workload, lines, client, tracer):
    """End-to-end metrics; returns (metrics with notes, outcomes, outputs, problems)."""
    archetype_path = HERE / "workloads" / f"{args.workload}.jsonl"
    setup = measure_setup(archetype_path, 1 if args.tiny else SETUP_SPAWNS)
    warm_up(args, lines, client)

    outcomes, outputs = [], {}
    first = MIN_CYCLES * len(lines)

    def step(index, line):
        outcome = client.send(index, line, request_seed(args.seed, index))
        outcomes.append(outcome)
        if index < first and outcome.error is None:
            outputs[index] = client.output(outcome)

    wall = run_cycles(lines, args.seconds, step)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = []
    for o in outcomes[:first]:
        if o.error is None:
            found, _, _ = check_outcome(o, outputs[o.index], workload, tracer)
            problems += [f"request {o.index} ({o.name}): {p}" for p in found]

    ok = sorted(o.seconds for o in outcomes if o.error is None)
    if not ok:
        raise RuntimeError("every request failed")
    tail, beyond = percentile(ok, workload.tail_percentile)
    cycles = cycle_means(outcomes, len(lines))
    metrics = {
        "datasets_per_s": (len(ok) / wall, f"{len(ok)} datasets in {wall:.3f} s wall"),
        "dataset_s_p50": (
            statistics.median(cycles),
            f"median over {len(cycles)} cycles of the mean call time in a cycle",
        ),
        "dataset_s_tail": (
            tail,
            f"p{workload.tail_percentile} of {len(ok)} calls, {beyond} beyond"
            + ("" if beyond >= 10 else "; fewer than 10 beyond, run longer"),
        ),
        "setup_s": (
            statistics.median(setup),
            f"median of {len(setup)} fresh processes: "
            + ", ".join(f"{t:.3f}" for t in setup),
        ),
        "peak_rss_mb": (peak_rss_mib, "ru_maxrss of the benchmark process"),
    }
    return metrics, outcomes, outputs, problems


def run_traced(args, workload, lines, client, tracer):
    """Per-layer metrics from spans; returns (metrics with notes, outcomes, outputs, problems)."""
    import checks
    import spans
    from clustergen.postprocess import DistortNetwork

    warm_up(args, lines, client)

    outcomes, outputs, problems = [], {}, []
    per_dataset = {}  # index -> dict of counts
    overhead = []

    def step(index, line):
        master = request_seed(args.seed, index)
        plain = client.send(index, line, master)
        outcomes.append(plain)
        if plain.error is not None:
            return
        outputs[index] = client.output(plain)
        traced = client.send(index, line, master, tracer)
        if traced.error is not None or client.output(traced) != outputs[index]:
            problems.append(f"request {index} ({plain.name}): traced call output differs")
            return
        overhead.append(traced.seconds - plain.seconds)
        found, composed, pairs = check_outcome(plain, outputs[index], workload, tracer)
        problems.extend(f"request {index} ({plain.name}): {p}" for p in found)
        epochs, replay_s, mismatch = checks.replay_placement(tracer.placement[index], tracer)
        k, dim = composed.archetype.n_clusters, composed.archetype.dim
        n = composed.dataset.points.shape[0]
        gflop = 0.0
        if "--distort" in workload.flags:
            net = DistortNetwork.create(dim, 0)
            width = net.hidden_width
            gflop = 2 * n * (2 * dim * width + len(net.blocks) * width * width) / 1e9
        per_dataset[index] = {
            "epochs": epochs,
            "replay_s": replay_s,
            "mismatch": int(mismatch),
            "pair_solves": (2 * epochs + 1) * k * (k - 1),
            "pairs": pairs,
            "points": n,
            "csv_bytes": len(outputs[index]) if workload.command == "generate" else 0,
            "gflop": gflop,
        }

    run_cycles(lines, args.seconds, step)

    done = set(per_dataset)
    if not done:
        raise RuntimeError("no request completed")
    count = len(done)
    layers = spans.layer_totals(tracer.spans, done)
    accounted = layers.accounted_frac
    if layers.unmapped or layers.misnested or abs(accounted - 1.0) > 1e-9:
        problems.append(
            f"spans do not account for the traced time: accounted {accounted!r}, "
            f"unmapped {sorted(layers.unmapped)}, {layers.misnested} spans outlive their parent"
        )
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    attempts = layers.attempts

    def total(key):
        return sum(d[key] for d in per_dataset.values())

    per = "per traced dataset"
    metrics = {name: (value / count, per) for name, value in layers.seconds.items()}
    epochs = total("epochs")
    metrics.update(
        {
            "placement.attempts": (attempts / count, f"init_centers calls {per}"),
            "placement.converged_frac": (count / attempts, f"{count} models / {attempts} attempts"),
            "placement.epochs": (epochs / count, f"optimize_centers replay, {per}"),
            "placement.s_per_epoch": (
                total("replay_s") / epochs if epochs else 0.0,
                f"replay seconds / {epochs} epochs",
            ),
            "placement.pair_solves": (
                total("pair_solves") / count,
                f"computed (2*epochs+1)*k*(k-1) of the converged attempt, {per}",
            ),
            "placement.replay_mismatches": (
                total("mismatch"),
                f"replays whose centers differ from the CLI's, of {count}",
            ),
            "overlap.pairs": (total("pairs") / count, per),
            "sampling.points": (total("points") / count, per),
            "sampling.csv_bytes": (total("csv_bytes") / count, per),
            "postprocess.distort_gflop": (total("gflop") / count, f"computed from matmul shapes, {per}"),
            "trace.overhead_s": (
                statistics.median(overhead),
                f"traced minus untraced cli.main time, median of {len(overhead)} pairs",
            ),
            "trace.accounted_frac": (accounted, "layer self times over traced cli.main time"),
        }
    )
    return metrics, outcomes, outputs, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny archetypes, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "clustergen" / "cli.py").is_file():
        print(f"error: no clustergen sources at {SRC}", file=sys.stderr)
        return 2
    # numpy, clustergen and the modules beside this file that import them
    # are imported only from here on, after the BLAS setting and the source check.
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    from clustergen import cli

    if Path(cli.__file__).resolve().parent != SRC / "clustergen":
        print(f"error: imported clustergen from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workload = WORKLOADS[args.workload]
    with open(HERE / "workloads" / f"{args.workload}.jsonl", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if args.tiny:
        lines = [tiny(line) for line in lines]

    print("env: " + json.dumps(environment(args)))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    client = Client(cli, workload, work)
    tracer = spans.Tracer()
    try:
        run = run_traced if args.trace else run_untraced
        metrics, outcomes, outputs, problems = run(args, workload, lines, client, tracer)
    finally:
        client.close()
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(wanted):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(wanted)}")
    for name, unit in wanted.items():
        value, note = metrics[name]
        print(f"{name} = {value!r} {unit}  ({note})")
    failed = sum(o.error is not None for o in outcomes)
    print(f"failed_frac = {failed / len(outcomes)!r} fraction  ({failed} of {len(outcomes)} calls)")
    report_failures(outcomes)
    first = outcomes[: MIN_CYCLES * len(lines)]
    print(f"digest: sha256 {digest(first, outputs)} over requests 0..{len(first) - 1}")
    for problem in problems:
        print(f"check failed: {problem}")
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": unit} for name, unit in wanted.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

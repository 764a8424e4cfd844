"""Command-line interface: generate, validate-overlap, nl, plot, bench, hyperparams.

Exit codes are a stable contract: 0 success, 1 validation failure (usage,
`hyperparams --bounds`, write, memory and worker errors included), 2
convergence failure, 3 NL/API failure, as `_FAILURES` maps them.
`generate` and `bench` run every dataset through `_each`: a failed one,
a lost `--jobs` worker's included, is recorded, every other dataset keeps
its output, and the run exits with the largest code.  `nl --dry-run`
prints the "params" and "identifier" prompts without any network traffic.

Every command and every `--jobs` worker calls `postprocess._set_up_process`,
so the bundled OpenBLAS runs on one thread and the cores go instead to the
`--jobs` workers, at most one per dataset, and within each process to
`distort`'s row chunks.  Under glibc the same call sets malloc's mmap
threshold to 4 MiB and its trim threshold to 32 MiB: a freed block below
4 MiB stays in its arena, each arena keeps up to 32 MiB free at its top, and
the next dataset reuses that memory instead of page-faulting it in again.
Other C libraries, and a library caller that never runs a command, keep
malloc's defaults.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import datetime
import functools
import hashlib
import json
import os
import pathlib
import sys

import numpy as np

from . import __version__, postprocess
from .archetype import Archetype, load_archetypes_jsonl, sample_hyperparams
from .errors import ArchetypeValidationError, NLError, NonConvergenceError
from .metrics import evaluate_dataset
from .mixture import MixtureModel, sample_mixture_model
from .nl import ClientConfig, describe_to_archetype, render_prompt
from .overlap import overlap_report_rows, pairwise_overlaps
from .postprocess import distort, wrap_around_sphere
from .sampling import Dataset, dataset_from_csv, dataset_to_csv, sample_dataset

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONVERGENCE = 2
EXIT_NL = 3


def derive_seed(master_seed: int, archetype_name: str, index: int) -> int:
    """Stable per-dataset seed: sha256 of 'master|name|index', first 8 bytes."""
    digest = hashlib.sha256(f"{master_seed}|{archetype_name}|{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _write_atomic(path: str, write) -> None:
    """Call `write(tmp)` on a temporary file beside `path`, then rename it to `path`.

    Readers never see a partial file, and a failed write leaves no
    temporary file behind.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_text(path: str, text: str) -> None:
    _write_atomic(path, lambda tmp: pathlib.Path(tmp).write_text(text, encoding="utf-8"))


# Each failure's manifest status and exit code: `main` exits with the code,
# and `generate` and `bench` record a failed dataset and go on with the others.
_FAILURES = (
    (NLError, "nl-failure", EXIT_NL),
    (NonConvergenceError, "convergence-failure", EXIT_CONVERGENCE),
    (MemoryError, "memory-failure", EXIT_VALIDATION),
    (OSError, "write-failure", EXIT_VALIDATION),  # the dataset's CSV could not be written
    (ArchetypeValidationError, "validation-failure", EXIT_VALIDATION),
    (ValueError, "validation-failure", EXIT_VALIDATION),
    # a --jobs worker process died (killed, say, by the out-of-memory killer)
    (concurrent.futures.BrokenExecutor, "worker-failure", EXIT_VALIDATION),
)
_FAILURE_TYPES = tuple(kind for kind, _, _ in _FAILURES)


def _failure(exc: BaseException) -> tuple[dict, int]:
    """The manifest status and error text of an exception in `_FAILURE_TYPES`,
    and its exit code; a bare MemoryError, which has no text, reads "out of memory"."""
    status, code = next((s, c) for kind, s, c in _FAILURES if isinstance(exc, kind))
    error = str(exc) or ("out of memory" if isinstance(exc, MemoryError) else "")
    return {"status": status, "error": error}, code


def _recorded(work, *args):
    """`work(*args)`, or the (outcome fields, exit code) of the failure it raised."""
    try:
        return work(*args)
    except _FAILURE_TYPES as exc:
        return _failure(exc)


def _each(work, calls, workers: int) -> tuple[list[tuple[dict, int]], int]:
    """Every `work(*call)`'s (outcome fields, exit code) in call order, and the
    largest code; a failed dataset goes to stderr, named by its call's leading
    (archetype, index).  On `workers` > 1 processes each worker records its own
    failures, and the parent those of a lost worker and of calls a broken pool refused."""
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=postprocess._set_up_process, initargs=(workers,)
        ) as pool:
            started = [_recorded(pool.submit, _recorded, work, *call) for call in calls]
            outcomes = [s if isinstance(s, tuple) else _recorded(s.result) for s in started]
    else:
        outcomes = [_recorded(work, *call) for call in calls]
    for (a, index, *_), (fields, code) in zip(calls, outcomes):
        if code != EXIT_OK:
            print(f"error: {a.name}[{index}]: {fields['error']}", file=sys.stderr)
    return outcomes, max((code for _, code in outcomes), default=EXIT_OK)


def _model(a: Archetype, seed: int) -> tuple[np.random.Generator, MixtureModel]:
    """The generator seeded with `seed`, and the model it has drawn from `a`."""
    rng = np.random.default_rng(seed)
    return rng, sample_mixture_model(a, rng)


def _emit(rows, out) -> None:
    """`rows` as lines, written to the file `out` or, without one, to stdout."""
    text = "\n".join(rows) + "\n"
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


def _generate_one(a: Archetype, index, seed, out_dir, do_distort, do_wrap):
    """One dataset from one archetype, written to its CSV, as (outcome fields, exit code)."""
    rng, model = _model(a, seed)
    dataset = sample_dataset(model, rng)
    points = dataset.points
    if do_distort:
        points = distort(points, seed=seed)
    if do_wrap:
        points = wrap_around_sphere(points)
    dataset = Dataset(points, dataset.labels, dataset.archetype_name)
    path = os.path.join(out_dir, f"{a.name}_{index:03d}.csv")
    _write_atomic(path, lambda tmp: dataset_to_csv(dataset, tmp))
    return {"path": os.path.basename(path), "status": "ok"}, EXIT_OK


def _load_jobs(args) -> list[tuple[Archetype, int, int]]:
    """(archetype, index, derived seed) of every dataset a generate or bench run makes."""
    if args.inline:
        archetypes = [Archetype.from_json(args.inline)]
    else:
        archetypes = load_archetypes_jsonl(args.archetypes)
    return [
        (a, index, derive_seed(args.seed, a.name, index))
        for a in archetypes
        for index in range(args.n_datasets)
    ]


def cmd_generate(args) -> int:
    jobs = _load_jobs(args)
    os.makedirs(args.out_dir, exist_ok=True)
    manifest = {  # traces every emitted dataset back to (archetype, seed)
        "tool_version": __version__,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "master_seed": args.seed,
    }
    calls = [(a, index, seed, args.out_dir, args.distort, args.wrap) for a, index, seed in jobs]
    # at most one worker per dataset: a fork pool starts all of them at once
    outcomes, code = _each(_generate_one, calls, min(args.jobs, len(calls)))
    manifest["entries"] = [
        {"archetype": a.name, "index": index, "seed": seed, "distort": args.distort,
         "wrap": args.wrap, **fields}
        for (a, index, seed), (fields, _) in zip(jobs, outcomes)
    ]
    _write_text(os.path.join(args.out_dir, "manifest.json"), json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {sum(c == EXIT_OK for _, c in outcomes)}/{len(calls)} datasets to {args.out_dir}")
    return code


def cmd_validate_overlap(args) -> int:
    if args.model:
        model = MixtureModel.from_json(pathlib.Path(args.model).read_text(encoding="utf-8"))
    else:
        a = Archetype.from_json(pathlib.Path(args.archetype).read_text(encoding="utf-8"))
        _, model = _model(a, args.seed)
    reports = pairwise_overlaps(model, include_exact=args.exact)
    _emit(overlap_report_rows(reports), args.out)
    if not reports:
        print("note: single-cluster model has no pairwise overlaps", file=sys.stderr)
        return EXIT_OK
    max_alpha = max(r.alpha_lda for r in reports)
    neighbor_best: dict[int, float] = {}
    for r in reports:
        for node in (r.i, r.j):
            neighbor_best[node] = max(neighbor_best.get(node, 0.0), r.alpha_lda)
    min_neighbor = min(neighbor_best.values())
    print(
        f"summary: max pairwise alpha_lda={max_alpha:.6g}, "
        f"smallest per-cluster max-neighbor alpha_lda={min_neighbor:.6g}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_nl(args) -> int:
    if not args.description or not args.description.strip():
        raise NLError("description must be nonempty")
    if args.dry_run:
        print(render_prompt("params", args.description))
        print()
        print(render_prompt("identifier", args.description))
        return EXIT_OK
    config = ClientConfig(base_url=args.base_url, model=args.model)
    result, _ = describe_to_archetype(args.description, config, log_path=args.log)
    print(result.to_json())
    return EXIT_OK


# plot canvas and the margin around its axes, in SVG pixels
_SVG_WIDTH, _SVG_HEIGHT, _SVG_MARGIN = 640, 480, 40
_PALETTE = (
    "#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee",
    "#aa3377", "#bbbbbb", "#222255", "#225555", "#552222",
)


def _svg_scatter(dataset: Dataset) -> str:
    width, height, margin = _SVG_WIDTH, _SVG_HEIGHT, _SVG_MARGIN
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
    ]
    if dataset.n_samples:
        x, y = dataset.points[:, 0], dataset.points[:, 1]
        span = max(np.ptp(x), np.ptp(y), 1e-12)
        cx = margin + (x - x.min()) / span * (width - 2 * margin)
        cy = height - margin - (y - y.min()) / span * (height - 2 * margin)
        for px, py, label in zip(cx.tolist(), cy.tolist(), dataset.labels.tolist()):
            color = _PALETTE[int(label) % len(_PALETTE)]
            parts.append(
                f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" '
                f'fill="{color}" fill-opacity="0.7"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(args) -> int:
    dataset = dataset_from_csv(args.dataset)
    if dataset.dim != 2:
        raise ValueError(
            f"plot requires 2-D data, got dim={dataset.dim}; "
            "dimensionality reduction is out of scope"
        )
    _write_text(args.out, _svg_scatter(dataset))
    print(f"wrote {args.out}")
    return EXIT_OK


def _score_one(a: Archetype, _index, seed):
    """One dataset's `bench` row, as (outcome fields, exit code)."""
    rng, model = _model(a, seed)
    dataset = sample_dataset(model, rng)
    scores = evaluate_dataset(dataset.points, dataset.labels, a.n_clusters, rng)
    row = (f"{a.name},{seed},{a.max_overlap!r},"
           f"{scores['ami']:.6f},{scores['ari']:.6f},{scores['silhouette']:.6f}")
    return {"row": row}, EXIT_OK


def cmd_bench(args) -> int:
    outcomes, code = _each(_score_one, _load_jobs(args), 1)
    rows = [fields["row"] for fields, c in outcomes if c == EXIT_OK]
    _emit(["archetype,seed,max_overlap,ami,ari,silhouette", *rows], args.out)
    return code


def cmd_hyperparams(args) -> int:
    a = Archetype.from_json(pathlib.Path(args.archetype).read_text(encoding="utf-8"))
    bounds = json.loads(args.bounds) if args.bounds else None
    variants = sample_hyperparams(a, args.n_variants, bounds, np.random.default_rng(args.seed))
    _emit([variant.to_json() for variant in variants], None)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Exits with EXIT_VALIDATION on a usage error; argparse's own 2 means
    convergence failure here.  Subcommand parsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _int_from(least: int, kind: str):
    """An argparse type for an integer of at least `least`; any other text is
    a usage error that names the option and reads "expected {kind}"."""

    def parse(text: str) -> int:
        try:
            value = int(text)
            if value >= least:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}")

    return parse


_positive_int = _int_from(1, "a positive integer")
# `validate-overlap` and `hyperparams` seed `default_rng` with --seed itself,
# which takes no negative integer; `generate` and `bench` hash theirs
_seed = _int_from(0, "a non-negative integer")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later `main` calls."""
    parser = _Parser(
        prog="clustergen",
        description="Synthetic cluster benchmark data from dataset archetypes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def datasets(name: str, summary: str, n_datasets: int) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--archetypes", help="JSONL file, one archetype per line")
        src.add_argument("--inline", help="single archetype as inline JSON")
        p.add_argument("--n-datasets", type=_positive_int, default=n_datasets)
        p.add_argument("--seed", type=int, default=0)
        return p

    p = datasets("generate", "sample datasets from archetypes", 1)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--distort", action="store_true", help="apply the random-network transform")
    p.add_argument("--wrap", action="store_true", help="wrap datasets around the sphere")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate-overlap", help="report pairwise overlaps of a model")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", help="mixture model JSON file")
    src.add_argument("--archetype", help="archetype JSON file (sampled with --seed)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--exact", action="store_true", help="include the exact Gaussian oracle")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_validate_overlap)

    p = sub.add_parser("nl", help="create an archetype from an English description")
    p.add_argument("description")
    p.add_argument("--dry-run", action="store_true", help="render prompts only, no network")
    p.add_argument("--base-url", default="https://api.openai.com/v1")
    p.add_argument("--model", default="gpt-4o")
    p.add_argument("--log", help="append prompt exchanges to this JSONL file")
    p.set_defaults(func=cmd_nl)

    p = sub.add_parser("plot", help="scatter-plot a 2-D dataset as SVG")
    p.add_argument("dataset")
    p.add_argument("out")
    p.set_defaults(func=cmd_plot)

    p = datasets("bench", "K-Means difficulty harness over archetypes", 10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("hyperparams", help="Poisson-resample archetype hyperparameters")
    p.add_argument("--archetype", required=True, help="archetype JSON file")
    p.add_argument("--n-variants", type=_positive_int, default=5)
    p.add_argument("--bounds", help='JSON like {"n_clusters": [2, 20]}')
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_hyperparams)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    postprocess._set_up_process()
    try:
        return args.func(args)
    except _FAILURE_TYPES as exc:
        fields, code = _failure(exc)
        print(f"error: {fields['error']}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

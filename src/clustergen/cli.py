"""Command-line interface: generate, validate-overlap, nl, plot, bench, hyperparams.

Exit codes are a stable contract: 0 success, 1 validation failure
(usage errors, write, memory and worker failures included), 2
convergence failure, 3 NL/API failure.  `generate` and `bench` record a
failed dataset (see `_FAILURES`), keep every other dataset's output and
exit with the largest code.  `nl --dry-run` prints the "params" and
"identifier" prompts without any network traffic.

Every command runs the bundled OpenBLAS on one thread (see `_pin_blas`);
the cores are used by `--jobs` and by `distort`'s row chunks instead.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import ctypes
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


@functools.cache
def _blas_set_threads():
    """The bundled OpenBLAS's thread-count setter, or None where NumPy has none.

    Looked up on first use, so importing this module costs nothing more.
    """
    try:
        from numpy._core import _multiarray_umath
        setter = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    return setter


def _pin_blas() -> None:
    """Run NumPy's bundled OpenBLAS on one thread.

    Its threaded paths round differently from its one-thread paths (Cholesky
    from dim ~128, matmul, QR and eigh from dim ~500), so one seed gives the
    same bytes on every machine only at a fixed thread count.
    """
    setter = _blas_set_threads()
    if setter is not None:
        setter(1)


def _init_worker(jobs: int) -> None:
    """Start a `--jobs` worker: one BLAS thread, and its share of the usable
    cores for `distort`, so that threads times jobs stays within the cores."""
    _pin_blas()
    postprocess._set_threads(max(1, postprocess._usable_cores() // jobs))


# The exceptions that fail one dataset, with its manifest status and exit
# code; `generate` and `bench` record them and go on with the other datasets.
_FAILURES = (
    (NonConvergenceError, "convergence-failure", EXIT_CONVERGENCE),
    (MemoryError, "memory-failure", EXIT_VALIDATION),
    (OSError, "write-failure", EXIT_VALIDATION),  # the dataset's CSV could not be written
    (ArchetypeValidationError, "validation-failure", EXIT_VALIDATION),
    (ValueError, "validation-failure", EXIT_VALIDATION),
)
_FAILURE_TYPES = tuple(kind for kind, _, _ in _FAILURES)


def _failure(exc: BaseException) -> tuple[str, int]:
    """(manifest status, exit code) of an exception in `_FAILURE_TYPES`."""
    return next((status, code) for kind, status, code in _FAILURES if isinstance(exc, kind))


def _entry(a: Archetype, index, seed, do_distort, do_wrap) -> dict:
    """The manifest fields of a dataset that do not depend on its outcome."""
    return {
        "archetype": a.name,
        "index": index,
        "seed": seed,
        "distort": bool(do_distort),
        "wrap": bool(do_wrap),
    }


def _generate_one(a: Archetype, index, seed, out_dir, do_distort, do_wrap):
    """Worker: one dataset from one archetype, as (manifest entry, exit code).

    Expected failures are recorded in the entry, not raised, so a process
    pool and a plain `map` give the parent the same records.
    """
    entry = _entry(a, index, seed, do_distort, do_wrap)
    try:
        rng = np.random.default_rng(seed)
        model = sample_mixture_model(a, rng)
        dataset = sample_dataset(model, rng)
        points = dataset.points
        if do_distort:
            points = distort(points, seed=seed)
        if do_wrap:
            points = wrap_around_sphere(points)
        dataset = Dataset(points, dataset.labels, dataset.archetype_name)
        path = os.path.join(out_dir, f"{a.name}_{index:03d}.csv")
        _write_atomic(path, lambda tmp: dataset_to_csv(dataset, tmp))
    except _FAILURE_TYPES as exc:
        status, code = _failure(exc)
        return {**entry, "status": status, "error": str(exc)}, code
    return {**entry, "path": os.path.basename(path), "status": "ok"}, EXIT_OK


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
    n = len(jobs)
    calls = [
        (a, index, seed, args.out_dir, args.distort, args.wrap) for a, index, seed in jobs
    ]
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=args.jobs, initializer=_init_worker, initargs=(args.jobs,)
        ) as pool:
            futures = [pool.submit(_generate_one, *call) for call in calls]
            results = [_collect(future, call) for future, call in zip(futures, calls)]
    else:
        results = [_generate_one(*call) for call in calls]
    manifest["entries"] = [entry for entry, _ in results]
    for e in manifest["entries"]:
        if e["status"] != "ok":
            print(f"error: {e['archetype']}[{e['index']}]: {e['error']}", file=sys.stderr)
    _write_text(os.path.join(args.out_dir, "manifest.json"), json.dumps(manifest, indent=2) + "\n")
    written = sum(e["status"] == "ok" for e in manifest["entries"])
    print(f"wrote {written}/{n} datasets to {args.out_dir}")
    return max((code for _, code in results), default=EXIT_OK)


def _collect(future, call):
    """A worker's (entry, exit code); a dataset lost with its worker process
    (killed, say, by the out-of-memory killer) is a `worker-failure`."""
    try:
        return future.result()
    except concurrent.futures.process.BrokenProcessPool as exc:
        a, index, seed, _, do_distort, do_wrap = call
        entry = _entry(a, index, seed, do_distort, do_wrap)
        return {**entry, "status": "worker-failure", "error": str(exc)}, EXIT_VALIDATION


def cmd_validate_overlap(args) -> int:
    if args.model:
        with open(args.model, "r", encoding="utf-8") as fh:
            model = MixtureModel.from_json(fh.read())
    else:
        with open(args.archetype, "r", encoding="utf-8") as fh:
            a = Archetype.from_json(fh.read())
        rng = np.random.default_rng(args.seed)
        model = sample_mixture_model(a, rng)
    reports = pairwise_overlaps(model, include_exact=args.exact)
    rows = overlap_report_rows(reports)
    text = "\n".join(rows) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
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
        sx = lambda v: margin + (v - x.min()) / span * (width - 2 * margin)
        sy = lambda v: height - margin - (v - y.min()) / span * (height - 2 * margin)
        for row, label in zip(dataset.points, dataset.labels):
            color = _PALETTE[int(label) % len(_PALETTE)]
            parts.append(
                f'<circle cx="{sx(row[0]):.2f}" cy="{sy(row[1]):.2f}" r="3" '
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


def cmd_bench(args) -> int:
    rows = ["archetype,seed,max_overlap,ami,ari,silhouette"]
    code = EXIT_OK
    for a, index, seed in _load_jobs(args):
        rng = np.random.default_rng(seed)
        try:
            model = sample_mixture_model(a, rng)
            dataset = sample_dataset(model, rng)
            scores = evaluate_dataset(dataset.points, dataset.labels, a.n_clusters, rng)
        except _FAILURE_TYPES as exc:  # the other datasets keep their rows
            print(f"error: {a.name}[{index}]: {exc}", file=sys.stderr)
            code = max(code, _failure(exc)[1])
            continue
        rows.append(
            f"{a.name},{seed},{a.max_overlap!r},"
            f"{scores['ami']:.6f},{scores['ari']:.6f},{scores['silhouette']:.6f}"
        )
    text = "\n".join(rows) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return code


def cmd_hyperparams(args) -> int:
    with open(args.archetype, "r", encoding="utf-8") as fh:
        a = Archetype.from_json(fh.read())
    bounds = json.loads(args.bounds) if args.bounds else None
    rng = np.random.default_rng(args.seed)
    try:
        variants = sample_hyperparams(a, args.n_variants, bounds, rng)
    except ValueError as exc:
        raise ArchetypeValidationError([str(exc)]) from exc
    for variant in variants:
        print(variant.to_json())
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Exits with EXIT_VALIDATION on a usage error; argparse's own 2 means
    convergence failure here.  Subcommand parsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later `main` calls."""
    parser = _Parser(
        prog="clustergen",
        description="Synthetic cluster benchmark data from dataset archetypes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample datasets from archetypes")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--archetypes", help="JSONL file, one archetype per line")
    src.add_argument("--inline", help="single archetype as inline JSON")
    p.add_argument("--n-datasets", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--distort", action="store_true", help="apply the random-network transform")
    p.add_argument("--wrap", action="store_true", help="wrap datasets around the sphere")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate-overlap", help="report pairwise overlaps of a model")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", help="mixture model JSON file")
    src.add_argument("--archetype", help="archetype JSON file (sampled with --seed)")
    p.add_argument("--seed", type=int, default=0)
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

    p = sub.add_parser("bench", help="K-Means difficulty harness over archetypes")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--archetypes")
    src.add_argument("--inline")
    p.add_argument("--n-datasets", type=_positive_int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("hyperparams", help="Poisson-resample archetype hyperparameters")
    p.add_argument("--archetype", required=True, help="archetype JSON file")
    p.add_argument("--n-variants", type=_positive_int, default=5)
    p.add_argument("--bounds", help='JSON like {"n_clusters": [2, 20]}')
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_hyperparams)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _pin_blas()
    try:
        return args.func(args)
    except NLError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NL
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (ArchetypeValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

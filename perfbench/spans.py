"""In-memory spans around the calls the CLI makes into each clustergen layer.

While `Tracer.installed()` is active, the module attributes through which
`clustergen.cli` and `clustergen.mixture.sample_mixture_model` reach each
layer are replaced by wrappers that record one span per call: name,
start, end, parent span and dataset id.  Nothing inside the package is
edited, and the original functions are restored when the block exits.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from time import perf_counter

from clustergen import archetype, cli, metrics, mixture, placement

# (module, attribute, span name); the span name's prefix is the layer.
LAYER_CALLS = (
    (cli, "sample_mixture_model", "placement.sample_mixture_model"),
    (archetype, "sample_aspect_ratios", "archetype.sample_aspect_ratios"),
    (archetype, "sample_cluster_radii", "archetype.sample_cluster_radii"),
    (archetype, "sample_axis_lengths", "archetype.sample_axis_lengths"),
    (archetype, "assign_distributions", "archetype.assign_distributions"),
    (archetype, "sample_group_sizes", "archetype.sample_group_sizes"),
    (mixture, "sample_orientation", "mixture.sample_orientation"),
    (placement, "init_centers", "placement.init_centers"),
    (cli, "sample_dataset", "sampling.sample_dataset"),
    (cli, "dataset_to_csv", "sampling.dataset_to_csv"),
    (cli, "distort", "postprocess.distort"),
    (cli, "wrap_around_sphere", "postprocess.wrap_around_sphere"),
    (metrics, "kmeans", "metrics.kmeans"),
    (metrics, "ami", "metrics.ami"),
    (metrics, "ari", "metrics.ari"),
    (metrics, "silhouette", "metrics.silhouette"),
)

ROOT_SPAN = "cli.main"

# Self time of every span under a ROOT_SPAN goes to one of these metrics.
# init_centers belongs to placement.s, which covers init, SGD and restarts.
SELF_TIME_METRIC = {
    ROOT_SPAN: "cli.self_s",
    "archetype.sample_aspect_ratios": "archetype.geometry_s",
    "archetype.sample_cluster_radii": "archetype.geometry_s",
    "archetype.sample_axis_lengths": "archetype.geometry_s",
    "archetype.assign_distributions": "archetype.geometry_s",
    "archetype.sample_group_sizes": "archetype.geometry_s",
    "mixture.sample_orientation": "mixture.orientation_s",
    "placement.sample_mixture_model": "placement.s",
    "placement.init_centers": "placement.s",
    "sampling.sample_dataset": "sampling.s",
    "sampling.dataset_to_csv": "sampling.csv_write_s",
    "postprocess.distort": "postprocess.distort_s",
    "postprocess.wrap_around_sphere": "postprocess.wrap_s",
    "metrics.kmeans": "metrics.kmeans_s",
    "metrics.ami": "metrics.ami_s",
    "metrics.ari": "metrics.ari_s",
    "metrics.silhouette": "metrics.silhouette_s",
}

# Spans the output checks open outside any ROOT_SPAN; their whole duration counts.
CHECK_SPAN_METRIC = {
    "sampling.dataset_from_csv": "sampling.csv_read_s",
    "overlap.pairwise_overlaps": "overlap.s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    dataset: int | None


@dataclass
class PlacementCapture:
    """What a traced `sample_mixture_model` call needs to be replayed."""

    attempts: list = field(default_factory=list)  # (init centers, rng state, config)
    archetype: object = None
    model: object = None


class Tracer:
    """Records spans in memory; `write` saves them as JSON lines."""

    def __init__(self):
        self.spans: list[Span] = []
        self.placement: dict[int, PlacementCapture] = {}
        self.dataset: int | None = None
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), None, parent, self.dataset))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def request(self, dataset: int):
        """The root span of one CLI call; spans opened later carry its dataset id."""
        self.dataset = dataset
        return self.span(ROOT_SPAN)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if name == "placement.init_centers":
                # sample_mixture_model passes (k, dim, radii, config, rng) positionally
                rng, config = args[4], args[3]
                capture = self.placement.setdefault(self.dataset, PlacementCapture())
                capture.attempts.append((result.copy(), rng.bit_generator.state, config))
            elif name == "placement.sample_mixture_model":
                capture = self.placement.setdefault(self.dataset, PlacementCapture())
                capture.archetype, capture.model = args[0], result
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route the CLI's layer calls through span-recording wrappers."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in LAYER_CALLS]
        try:
            for (module, attr, name), (_, _, fn) in zip(LAYER_CALLS, originals):
                setattr(module, attr, self._wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__) + "\n")


@dataclass
class LayerTotals:
    seconds: dict[str, float]  # per-layer metric -> summed seconds
    traced_s: float  # summed ROOT_SPAN durations
    attempts: int  # init_centers calls under a ROOT_SPAN
    unmapped: set[str]  # span names under a ROOT_SPAN with no metric
    misnested: int  # spans that outlive their parent

    @property
    def accounted_frac(self) -> float:
        """Self times of the layers and of cli.main over the traced cli.main time."""
        layers = set(SELF_TIME_METRIC.values())
        return sum(self.seconds[m] for m in layers) / self.traced_s


def layer_totals(spans: list[Span], datasets: set[int]) -> LayerTotals:
    """Sum self times per layer metric over the spans of `datasets`.

    A span's self time is its duration minus its direct children's.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    seconds = dict.fromkeys([*SELF_TIME_METRIC.values(), *CHECK_SPAN_METRIC.values()], 0.0)
    totals = LayerTotals(seconds, 0.0, 0, set(), 0)
    for i, s in enumerate(spans):
        if s.dataset not in datasets:
            continue
        root = i
        while spans[root].parent is not None:
            root = spans[root].parent
        if spans[root].name != ROOT_SPAN:
            if s.name in CHECK_SPAN_METRIC:
                seconds[CHECK_SPAN_METRIC[s.name]] += s.end - s.start
            continue
        if s.name not in SELF_TIME_METRIC:
            totals.unmapped.add(s.name)
            continue
        seconds[SELF_TIME_METRIC[s.name]] += own[i]
        totals.attempts += s.name == "placement.init_centers"
        totals.misnested += own[i] < -1e-9
        if root == i:
            totals.traced_s += s.end - s.start
    return totals

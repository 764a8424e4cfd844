"""Drawing labeled datasets from mixture models.

Points follow the direction-times-radius scheme: a uniform direction on
the unit sphere is stretched by the cluster's axes and scaled by a draw
from the normalized radial distribution.  The normal family is the one
exception: there the radius follows chi(dim) rather than |N(0,1)|, which
makes the sampled cluster an exact multivariate normal with the cluster's
covariance, so the Gaussian overlap formulas hold in-sample.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .mixture import Cluster, MixtureModel


@dataclass(frozen=True)
class Dataset:
    """Point matrix, integer labels, and the generating archetype's name."""

    points: np.ndarray
    labels: np.ndarray
    archetype_name: str

    @property
    def n_samples(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def sample_cluster_points(cluster: Cluster, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. points from one cluster (n x dim)."""
    dim = cluster.dim
    if n == 0:
        return np.empty((0, dim))
    dist = cluster.radial_distribution
    if dist.name == "normal":
        scaled = rng.standard_normal((n, dim)) / dist.norm_constant * cluster.axis_lengths
    else:
        directions = rng.standard_normal((n, dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = dist.draw(rng, n)
        scaled = radii[:, None] * directions * cluster.axis_lengths
    return cluster.center + scaled @ cluster.axes.T


def sample_dataset(model: MixtureModel, rng: np.random.Generator) -> Dataset:
    """One labeled dataset: group_sizes[j] points per cluster, rows shuffled."""
    parts = []
    labels = []
    for j, (cluster, size) in enumerate(zip(model.clusters, model.group_sizes)):
        parts.append(sample_cluster_points(cluster, int(size), rng))
        labels.append(np.full(int(size), j, dtype=int))
    points = np.vstack(parts)
    labels = np.concatenate(labels)
    order = rng.permutation(points.shape[0])
    return Dataset(points[order], labels[order], model.archetype_name)


def dataset_to_csv(dataset: Dataset, path) -> None:
    """Write x1..x{dim},label rows with round-trip-stable float formatting.

    The bytes are those of `csv.writer` with its default dialect: `%.17g`
    floats, an integer label, no quoting (no field can hold a comma or a
    quote) and `\r\n` line ends.  One format string covers a whole row.
    """
    header = [f"x{i + 1}" for i in range(dataset.dim)] + ["label"]
    row_format = "%.17g," * dataset.dim + "%d\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(
            [
                row_format % (*row, label)
                for row, label in zip(dataset.points.tolist(), dataset.labels.tolist())
            ]
        )


def dataset_from_csv(path) -> Dataset:
    """Read the x1..x{dim},label rows `dataset_to_csv` writes, every float bit-exact.

    A NaN or infinite field raises ValueError naming its column; the
    dataset carries no archetype name."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if header[-1] != "label":
            raise ValueError(f"{path}: expected trailing 'label' column, got {header[-1]!r}")
        if fh.tell() == os.fstat(fh.fileno()).st_size:  # header only: no rows
            body = np.empty((0, len(header)))
        else:
            body = np.loadtxt(fh, delimiter=",", ndmin=2)
    if body.shape[1] != len(header):
        raise ValueError(f"{path}: rows have {body.shape[1]} fields, the header {len(header)}")
    finite = np.isfinite(body).all(axis=0)
    if not finite.all():
        column = header[np.flatnonzero(~finite)[0]]
        raise ValueError(f"{path}: column {column!r} has a non-finite value")
    labels = body[:, -1]
    if not np.all((labels == np.floor(labels)) & (labels >= -(2.0**63)) & (labels < 2.0**63)):
        raise ValueError(f"{path}: labels must be integers within the int64 range")
    return Dataset(np.ascontiguousarray(body[:, :-1]), labels.astype(int), "")

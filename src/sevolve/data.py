"""Synthetic node-labeling task generator and dataset serialization.

Samples are 4-connected n x n grid graphs. Labels come from a nearest-seed
(Voronoi) assignment over the grid coordinates, so label regions are
contiguous blobs, like an over-segmented image. Contiguity is checked
through the graph layer: the component labelling that coarsening uses
(`graph._components_canonical`) runs over the grid's same-label edges.
Features are per-label prototype vectors plus Gaussian noise, with
normalized grid coordinates appended when the feature dimension allows.

`load_dataset` reads each sample's edge, feature and label blocks through
`network.parse_block`, the reader the checkpoint loader uses too: one
`np.loadtxt` call per block, and a line-by-line pass that names the first
line at fault when a block does not convert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sevolve.graph import LevelGraph, _components_canonical
from sevolve.network import Sample, parse_block, parse_ints, read_lines, write_lines_atomic

_MAX_REGION_RESAMPLES = 200


class DatasetError(Exception):
    """Malformed or incompatible dataset file."""


@dataclass
class GenConfig:
    grid_n: int = 8
    num_labels: int = 4
    num_seeds: int | None = None
    feature_dim: int | None = None
    noise: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.num_seeds is None:
            self.num_seeds = self.num_labels
        if self.feature_dim is None:
            self.feature_dim = self.num_labels + 2
        if self.grid_n < 2:
            raise ValueError(f"grid side must be >= 2, got {self.grid_n}")
        if self.num_labels < 2:
            raise ValueError(f"need at least 2 labels, got {self.num_labels}")
        if not self.num_labels <= self.num_seeds <= self.grid_n ** 2:
            raise ValueError(
                f"num_seeds ({self.num_seeds}) must lie between num_labels "
                f"({self.num_labels}) and the {self.grid_n ** 2} cells of the grid")
        if not 0 <= self.noise < np.inf:
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")
        if self.feature_dim < self.num_labels:
            raise ValueError(
                f"feature_dim ({self.feature_dim}) too small to hold "
                f"{self.num_labels} label prototypes")


def grid_graph(n: int) -> LevelGraph:
    """4-connected n x n grid; node id of cell (row, col) is row * n + col."""
    ids = np.arange(n * n).reshape(n, n)
    right = np.stack((ids[:, :-1].ravel(), ids[:, 1:].ravel()), axis=1)
    down = np.stack((ids[:-1].ravel(), ids[1:].ravel()), axis=1)
    return LevelGraph(n * n, np.concatenate((right, down)))


def _regions_connected(labels, grid: LevelGraph) -> bool:
    # every label's region is one 4-connected blob exactly when the grid's
    # same-label edges leave one component per label
    a, b = grid.edges.T
    same = grid.edges[labels[a] == labels[b]]
    return _components_canonical(grid, same).num_cliques == np.unique(labels).size


def generate_sample(cfg: GenConfig, rng) -> Sample:
    """One grid sample: Voronoi labels (nearest seed, ties to the smaller
    seed index, every label used), prototype features with noise, and
    normalized (x, y) coordinate channels when feature_dim >= labels + 2.

    Seed layouts whose label regions come out disconnected are resampled.
    """
    n = cfg.grid_n
    num_cells = n * n
    k = cfg.num_labels
    rows, cols = np.divmod(np.arange(num_cells), n)
    grid = grid_graph(n)
    for _ in range(_MAX_REGION_RESAMPLES):
        cells = rng.choice(num_cells, size=cfg.num_seeds, replace=False)
        seed_labels = np.concatenate([
            rng.permutation(k),
            rng.integers(0, k, size=cfg.num_seeds - k),
        ])
        d2 = ((rows[:, None] - rows[cells][None, :]) ** 2
              + (cols[:, None] - cols[cells][None, :]) ** 2)
        labels = seed_labels[np.argmin(d2, axis=1)]
        if _regions_connected(labels, grid):
            break
    else:
        raise ValueError(
            f"could not draw contiguous label regions in {_MAX_REGION_RESAMPLES} tries")

    feats = np.zeros((num_cells, cfg.feature_dim))
    feats[np.arange(num_cells), labels] = 1.0
    if cfg.feature_dim >= k + 2:
        feats[:, k] = cols / (n - 1)
        feats[:, k + 1] = rows / (n - 1)
    feats += rng.normal(0.0, cfg.noise, feats.shape)
    return Sample(grid, feats, labels)


def generate_dataset(cfg: GenConfig, count: int) -> "DatasetFile":
    """`count` samples with independently derived rng streams per sample."""
    if count < 0:
        raise ValueError("sample count must be >= 0")
    samples = [generate_sample(cfg, np.random.default_rng([cfg.seed, i]))
               for i in range(count)]
    return DatasetFile(cfg.feature_dim, cfg.num_labels, samples)


DATASET_MAGIC = "SEVOLVE-DS v2"


@dataclass
class DatasetFile:
    feature_dim: int
    num_labels: int
    samples: list

    def __post_init__(self):
        for k, s in enumerate(self.samples):
            if s.features.shape[1] != self.feature_dim:
                raise ValueError(f"sample {k} feature dim {s.features.shape[1]} "
                                 f"!= header D={self.feature_dim}")
            if s.labels.size and s.labels.max() >= self.num_labels:
                raise ValueError(f"sample {k} labels exceed header K={self.num_labels}")

    def __len__(self):
        return len(self.samples)


def save_dataset(path, dataset: DatasetFile):
    """Text format:

    header line  `SEVOLVE-DS v2 D=<d> K=<k> N=<samples>`
    per sample:  `sample nodes=<n> edges=<m>`, m edge lines `a b` in
    canonical order, n feature lines of d full-precision decimals, one
    label line of n ints. Written atomically (write_lines_atomic).
    """
    def lines():
        yield (f"{DATASET_MAGIC} D={dataset.feature_dim} K={dataset.num_labels} "
               f"N={len(dataset.samples)}")
        for s in dataset.samples:
            g = s.graph
            yield f"sample nodes={g.num_nodes} edges={g.num_edges}"
            for a, b in g.edges.tolist():
                yield f"{a} {b}"
            for row in s.features:
                yield " ".join(repr(float(v)) for v in row)
            yield " ".join(str(int(v)) for v in s.labels)

    write_lines_atomic(path, lines())


def _named_ints(tokens, names):
    """The values of the tokens `<name>=<int>`, one per name in `names`
    and in that order, or None when a token does not have that form."""
    fields = [token.partition("=") for token in tokens]
    try:
        if [(key, sep) for key, sep, _ in fields] == [(name, "=") for name in names]:
            return parse_ints([value for _, _, value in fields])
    except ValueError:
        pass
    return None


def load_dataset(path) -> DatasetFile:
    """Inverse of save_dataset; the round trip is lossless. Raises
    DatasetError naming the first offending line, also when the file
    holds fewer or more samples than its header declares.

    Each sample's edge, feature and label blocks are read in that order by
    parse_block, which converts a block with one np.loadtxt call and,
    when it does not convert, names its first line at fault. Label range,
    bad edges and non-finite features are checked per block, and their
    line is looked for only when the check fails."""
    lines = read_lines(path, DatasetError)

    def fail(lineno, msg):
        raise DatasetError(f"{path}:{lineno}: {msg}")

    def bad_edge(r, line):
        return f"bad edge line {line!r}"

    if not lines:
        fail(1, "empty file, expected dataset header")
    head = lines[0].split()
    if len(head) != 5 or " ".join(head[:2]) != DATASET_MAGIC:
        fail(1, f"bad header {lines[0]!r}, expected '{DATASET_MAGIC} D=<d> K=<k> N=<samples>'")
    fields = _named_ints(head[2:], ("D", "K", "N"))
    if fields is None:
        fail(1, f"bad header fields {lines[0]!r}, expected 'D=<d> K=<k> N=<samples>'")
    dim, num_labels, count = fields
    if dim < 1 or num_labels < 1 or count < 0:
        fail(1, f"header needs D >= 1, K >= 1 and N >= 0, got {lines[0]!r}")

    samples = []
    pos = 1
    while len(samples) < count:
        if pos == len(lines):
            fail(pos, f"file ends after {len(samples)} of the {count} samples in the header")
        parts = lines[pos].split()
        record = (_named_ints(parts[1:], ("nodes", "edges"))
                  if len(parts) == 3 and parts[0] == "sample" else None)
        if record is None:
            fail(pos + 1, f"expected 'sample nodes=<n> edges=<m>', got {lines[pos]!r}")
        n, m = record
        if n < 1 or m < 0:
            fail(pos + 1, f"sample needs nodes >= 1 and edges >= 0, got {lines[pos]!r}")
        pos += 1
        if pos + m + n + 1 > len(lines):
            fail(len(lines), f"truncated sample {len(samples)} "
                             f"(needs {m} edge, {n} feature, 1 label line)")
        edge_line, feat_line = pos + 1, pos + m + 1
        edges = parse_block(lines, pos, m, 2, np.intp, fail, bad_edge, bad_edge)
        feats = parse_block(
            lines, pos + m, n, dim, np.float64, fail,
            lambda r, line: f"feature row has {len(line.split())} values, expected {dim}",
            lambda r, line: f"bad feature value in {line!r}")
        (labels,) = parse_block(
            lines, pos + m + n, 1, n, np.intp, fail,
            lambda r, line: f"label row has {len(line.split())} values, expected {n}",
            lambda r, line: f"bad label value in {line!r}")
        pos += m + n + 1
        if np.min(labels) < 0 or np.max(labels) >= num_labels:
            fail(pos, f"label out of range for K={num_labels}")

        try:
            graph = LevelGraph(n, edges)
        except ValueError as exc:
            # LevelGraph reports the first bad edge
            k = next(k for k, (a, b) in enumerate(edges)
                     if a == b or not (0 <= a < n and 0 <= b < n))
            fail(edge_line + k, f"invalid edge: {exc}")
        if graph.num_edges != m:
            seen = set()
            for k, (a, b) in enumerate(edges):
                if (min(a, b), max(a, b)) in seen:
                    fail(edge_line + k, f"repeated edge {a} {b}")
                seen.add((min(a, b), max(a, b)))
        finite = np.isfinite(feats)
        if not finite.all():
            fail(feat_line + int(np.argmin(finite.all(axis=1))), "non-finite feature value")
        samples.append(Sample(graph, feats, labels))
    if pos < len(lines):
        fail(pos + 1, f"extra line after the {count} samples in the header: {lines[pos]!r}")
    return DatasetFile(dim, num_labels, samples)

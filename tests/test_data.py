import hashlib

import numpy as np
import pytest

from sevolve import data
from sevolve.data import (
    DatasetError,
    DatasetFile,
    GenConfig,
    generate_dataset,
    generate_sample,
    grid_graph,
    load_dataset,
    save_dataset,
)
from oracles import bfs_component, neighbor_lists


class TestGridGraph:
    def test_structure(self):
        g = grid_graph(3)
        assert g.num_nodes == 9
        assert g.num_edges == 12  # 2 * 3 * 2 per direction
        nbrs = neighbor_lists(g)
        assert nbrs[4] == [1, 3, 5, 7]  # center cell
        assert nbrs[0] == [1, 3]        # corner

    def test_edge_count_formula(self):
        for n in (2, 4, 8):
            assert grid_graph(n).num_edges == 2 * n * (n - 1)

    def test_matches_per_cell_edges(self):
        for n in (2, 3, 5, 8):
            right = [[i, i + 1] for i in range(n * n) if (i + 1) % n]
            down = [[i, i + n] for i in range(n * n - n)]
            assert grid_graph(n).edges.tolist() == sorted(right + down)


class TestGenConfig:
    def test_defaults_fill_in(self):
        cfg = GenConfig(num_labels=3)
        assert cfg.num_seeds == 3
        assert cfg.feature_dim == 5

    def test_validation(self):
        with pytest.raises(ValueError, match="labels"):
            GenConfig(num_labels=1)
        with pytest.raises(ValueError, match="num_seeds"):
            GenConfig(num_labels=4, num_seeds=2)
        # each seed takes a cell of its own
        with pytest.raises(ValueError, match=r"num_seeds \(6\) .* the 4 cells"):
            GenConfig(grid_n=2, num_labels=2, num_seeds=6)
        assert GenConfig(grid_n=2, num_labels=2, num_seeds=4).num_seeds == 4
        with pytest.raises(ValueError, match="feature_dim"):
            GenConfig(num_labels=4, feature_dim=3)
        with pytest.raises(ValueError, match="noise"):
            GenConfig(noise=-0.1)
        with pytest.raises(ValueError, match="grid side"):
            GenConfig(grid_n=1)


class TestGenerateSample:
    def test_label_regions_connected(self):
        # BFS contiguity oracle over the nearest-seed assignment
        for seed in range(30):
            cfg = GenConfig(grid_n=8, num_labels=4, seed=seed)
            s = generate_sample(cfg, np.random.default_rng(seed))
            n = cfg.grid_n
            adjacency = {}
            for a, b in s.graph.edges:
                adjacency.setdefault(a, []).append(b)
                adjacency.setdefault(b, []).append(a)
            for lab in range(cfg.num_labels):
                nodes = {i for i in range(n * n) if s.labels[i] == lab}
                assert nodes, f"label {lab} unused"
                same_adj = {u: [v for v in adjacency.get(u, ()) if v in nodes]
                            for u in nodes}
                assert bfs_component(nodes, same_adj, min(nodes)) == nodes

    def test_every_label_used(self):
        cfg = GenConfig(grid_n=6, num_labels=4, num_seeds=6, seed=1)
        s = generate_sample(cfg, np.random.default_rng(11))
        assert set(int(v) for v in np.unique(s.labels)) == {0, 1, 2, 3}

    def test_noiseless_same_label_features_differ_only_in_coords(self):
        cfg = GenConfig(grid_n=5, num_labels=2, feature_dim=4, noise=0.0, seed=2)
        s = generate_sample(cfg, np.random.default_rng(3))
        k = cfg.num_labels
        for lab in (0, 1):
            rows = s.features[s.labels == lab]
            proto = rows[0].copy()
            # non-coordinate channels identical across the region
            fixed = np.delete(np.arange(cfg.feature_dim), [k, k + 1])
            assert np.array_equal(rows[:, fixed],
                                  np.tile(proto[fixed], (len(rows), 1)))
            # coordinates vary for a region with more than one cell
            if len(rows) > 1:
                assert not np.array_equal(rows[:, [k, k + 1]],
                                          np.tile(proto[[k, k + 1]], (len(rows), 1)))

    def test_coords_omitted_when_dim_too_small(self):
        cfg = GenConfig(grid_n=4, num_labels=3, feature_dim=4, noise=0.0, seed=4)
        s = generate_sample(cfg, np.random.default_rng(5))
        # only the prototype channels are populated; same-label rows equal
        for lab in range(3):
            rows = s.features[s.labels == lab]
            assert np.array_equal(rows, np.tile(rows[0], (len(rows), 1)))

    def test_same_label_edge_fraction_beats_chance(self):
        for seed in range(20):
            cfg = GenConfig(grid_n=8, num_labels=4, seed=seed)
            s = generate_sample(cfg, np.random.default_rng([seed, 5]))
            ends = s.labels[s.graph.edges]
            assert (ends[:, 0] == ends[:, 1]).mean() > 1.0 / cfg.num_labels

    def test_deterministic_given_stream(self):
        cfg = GenConfig(grid_n=6, num_labels=3, seed=9)
        s1 = generate_sample(cfg, np.random.default_rng(77))
        s2 = generate_sample(cfg, np.random.default_rng(77))
        assert np.array_equal(s1.features, s2.features)
        assert np.array_equal(s1.labels, s2.labels)


class TestGeneratorGolden:
    """save_dataset bytes of fixed generator configs, and the number of
    contiguity checks their resampling takes."""

    @pytest.mark.parametrize("cfg, count, checks, digest", [
        (GenConfig(grid_n=8, num_labels=4, num_seeds=7, seed=2), 8, 53,
         "ee1b39a1c59d3dc3f66b9ac96d3c9503067bc907b28c110cbc7d6bbc06924408"),
        (GenConfig(), 4, 4,
         "a779d8745b7d3b3eba3e1fa7e2f34187fefbc7e52c3c46559698769ef0803eba"),
    ])
    def test_dataset_bytes(self, tmp_path, monkeypatch, cfg, count, checks, digest):
        real = data._regions_connected
        calls = []

        def counted(*args):
            calls.append(real(*args))
            return calls[-1]

        monkeypatch.setattr(data, "_regions_connected", counted)
        path = tmp_path / "data.txt"
        save_dataset(path, generate_dataset(cfg, count))
        assert len(calls) == checks
        assert calls.count(True) == count
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def label_grids(rng):
    """(n, labels) pairs: uniform random labels on small grids, and
    nearest-seed labels, some seeds sharing a label, on larger ones."""
    for n in (2, 3, 4):
        for _ in range(40):
            yield n, rng.integers(0, int(rng.integers(2, 4)), size=n * n)
    for n in (5, 8, 16):
        rows, cols = np.divmod(np.arange(n * n), n)
        for _ in range(30):
            seeds = rng.choice(n * n, size=int(rng.integers(2, 8)), replace=False)
            d2 = (rows[:, None] - rows[seeds]) ** 2 + (cols[:, None] - cols[seeds]) ** 2
            yield n, rng.integers(0, 3, size=seeds.size)[np.argmin(d2, axis=1)]


class TestRegionsConnected:
    def test_matches_bfs_oracle(self):
        seen = set()
        for n, labels in label_grids(np.random.default_rng(12)):
            adjacency = {}
            for a, b in grid_graph(n).edges.tolist():
                if labels[a] == labels[b]:
                    adjacency.setdefault(a, []).append(b)
                    adjacency.setdefault(b, []).append(a)
            expected = True
            for lab in np.unique(labels):
                nodes = set(np.flatnonzero(labels == lab).tolist())
                expected &= bfs_component(nodes, adjacency, min(nodes)) == nodes
            assert data._regions_connected(labels, grid_graph(n)) == expected, (n, labels)
            seen.add(expected)
        assert seen == {True, False}


class TestDatasetRoundTrip:
    def test_save_load_lossless(self, tmp_path):
        ds = generate_dataset(GenConfig(grid_n=5, num_labels=3, seed=6), 7)
        path = tmp_path / "data.txt"
        save_dataset(path, ds)
        loaded = load_dataset(path)
        assert loaded.feature_dim == ds.feature_dim
        assert loaded.num_labels == ds.num_labels
        assert len(loaded.samples) == 7
        for a, b in zip(ds.samples, loaded.samples):
            assert a.graph == b.graph
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.labels, b.labels)

    def test_identical_bytes_same_seed(self, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_dataset(p1, generate_dataset(GenConfig(seed=7), 5))
        save_dataset(p2, generate_dataset(GenConfig(seed=7), 5))
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.txt"
        save_dataset(path, DatasetFile(4, 2, []))
        loaded = load_dataset(path)
        assert loaded.feature_dim == 4
        assert loaded.num_labels == 2
        assert loaded.samples == []

    def test_truncated_file_names_line(self, tmp_path):
        ds = generate_dataset(GenConfig(grid_n=4, num_labels=2, seed=8), 2)
        path = tmp_path / "data.txt"
        save_dataset(path, ds)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        with pytest.raises(DatasetError, match=r"data\.txt:\d+"):
            load_dataset(path)

    @pytest.mark.parametrize("declared, line, message", [
        (1, 25, "extra line after the 1 samples"),
        (3, 47, "file ends after 2 of the 3 samples"),
    ])
    def test_sample_count_must_match_header(self, tmp_path, declared, line, message):
        # two 3x3 samples of 1 + 12 + 9 + 1 lines each after the header
        ds = generate_dataset(GenConfig(grid_n=3, num_labels=2, seed=12), 2)
        path = tmp_path / "data.txt"
        save_dataset(path, ds)
        text = path.read_text()
        assert text.splitlines()[0].endswith(" N=2")
        path.write_text(text.replace(" N=2", f" N={declared}", 1))
        with pytest.raises(DatasetError, match=rf"data\.txt:{line}: {message}"):
            load_dataset(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("SEVOLVE-DS v9 D=4 K=2\n")
        with pytest.raises(DatasetError, match="header"):
            load_dataset(path)

    def test_bad_feature_value_names_line(self, tmp_path):
        ds = generate_dataset(GenConfig(grid_n=4, num_labels=2, seed=9), 1)
        path = tmp_path / "data.txt"
        save_dataset(path, ds)
        lines = path.read_text().splitlines()
        lines[18] = lines[18].replace(lines[18].split()[0], "zero", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match=r"data\.txt:19"):
            load_dataset(path)

    def test_label_out_of_header_range(self, tmp_path):
        ds = generate_dataset(GenConfig(grid_n=4, num_labels=2, seed=10), 1)
        path = tmp_path / "data.txt"
        save_dataset(path, ds)
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].replace("1", "9", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="label out of range"):
            load_dataset(path)

    @pytest.mark.parametrize("old, new, line", [
        ("D=4", "D=-3", 1),
        ("K=2", "K=0", 1),
        ("nodes=16", "nodes=-1", 2),
        ("nodes=16", "nodes=0", 2),
        ("edges=24", "edges=-1", 2),
    ])
    def test_bad_counts_name_line(self, tmp_path, old, new, line):
        ds = generate_dataset(GenConfig(grid_n=4, num_labels=2, seed=11), 2)
        path = tmp_path / "data.txt"
        save_dataset(path, ds)
        text = path.read_text()
        assert old in text.splitlines()[line - 1]
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(DatasetError, match=rf"data\.txt:{line}: .*(D >= 1|nodes >= 1)"):
            load_dataset(path)


class TestDatasetLines:
    """Every malformed record names its own line. A saved 2x2 dataset is
    the header, `sample nodes=4 edges=4`, edge lines 3-6, feature lines
    7-10 and the label line 11."""

    @pytest.fixture
    def lines(self, tmp_path):
        path = tmp_path / "data.txt"
        save_dataset(path, generate_dataset(GenConfig(grid_n=2, num_labels=2, seed=3), 1))
        lines = path.read_text().splitlines()
        assert lines[1] == "sample nodes=4 edges=4" and len(lines) == 11
        return lines

    @pytest.mark.parametrize("line, text, message", [
        (1, "SEVOLVE-DS v2 4 2 1", "bad header fields"),
        (1, "SEVOLVE-DS v2 K=2 D=4 N=1", "bad header fields"),
        (1, "SEVOLVE-DS v2 D=4 K=2 1", "bad header fields"),
        (1, "SEVOLVE-DS v2 D=4 K=2 N=", "bad header fields"),
        # int() alone takes these: '+', '_' and non-ASCII digits
        (1, "SEVOLVE-DS v2 D=4 K=2 N=+1", "bad header fields"),
        (2, "sample nodes=\u0664 edges=0_4", "expected 'sample nodes=<n> edges=<m>'"),
        (3, "0 \uff101", "bad edge line"),
        (11, "0 0 0 0_0", "bad label value"),
        (2, "sample 4 4", "expected 'sample nodes=<n> edges=<m>'"),
        (2, "sample edges=4 nodes=4", "expected 'sample nodes=<n> edges=<m>'"),
        (2, "sample nodes=4 4", "expected 'sample nodes=<n> edges=<m>'"),
        (3, "1 1", "invalid edge: self-loop on node 1"),
        (3, "0 9", r"invalid edge: edge \(0, 9\) out of range"),
        (5, "-1 3", "invalid edge"),
        # an id beyond any fixed-width integer is out of range too
        (4, "0 99999999999999999999", r"invalid edge: edge \(0, 99999999999999999999\) out of range"),
        (4, "0 1", "repeated edge 0 1"),
        (6, "1 0", "repeated edge 1 0"),
        (7, "1.0 2.0 3.0 nan", "non-finite feature value"),
        (10, "inf 2.0 3.0 4.0", "non-finite feature value"),
    ])
    def test_bad_record_names_its_line(self, tmp_path, lines, line, text, message):
        lines[line - 1] = text
        path = tmp_path / "data.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match=rf"data\.txt:{line}: {message}"):
            load_dataset(path)

"""Deterministic file outputs."""

import tracemalloc

import numpy as np

from revivalkit.output import fmt, write_csv


def _joined(header, rows):
    # the whole table formatted in memory, then written at once
    lines = [",".join(header)] + [",".join(fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestWriteCsv:
    def test_matches_joined_table(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = [
            (float(x), complex(x, -y), np.float64(y), i, "even" if i % 2 else "n/a")
            for i, (x, y) in enumerate(rng.standard_normal((50, 2)) * 10.0 ** rng.integers(-300, 300, (50, 2)))
        ]
        rows += [(float("nan"), complex(0.0, -0.0), np.float64(-0.0), -1, "odd")]
        header = ["a", "b", "c", "index", "parity"]
        path = write_csv(tmp_path / "sub" / "t.csv", header, rows)
        assert path.read_bytes() == _joined(header, rows)

    def test_memory_does_not_grow_with_rows(self, tmp_path):
        rows = ((i, 0.1 * i) for i in range(500_000))
        tracemalloc.start()
        try:
            write_csv(tmp_path / "long.csv", ["i", "t"], rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        with open(tmp_path / "long.csv", encoding="utf-8") as f:
            assert sum(1 for _ in f) == 500_001

"""The shared table renderer, and a guard that the paper series under
``benchmarks/`` collects on its own."""

import subprocess
import sys
from pathlib import Path

from repro.util.tables import format_table

ROOT = Path(__file__).resolve().parent.parent


class TestPaperSeries:
    def test_collects_without_the_registry(self):
        """Every ``benchmarks/bench_*.py`` module imports cleanly: a
        leftover import of the deleted experiment registry or its
        runner would be a collection error here."""
        # run from the repo root: pyproject's pytest section puts src/ on
        # the path and makes bench_*.py collectable
        options = ["--collect-only", "-q", "-p", "no:cacheprovider"]
        paths = ["benchmarks", "--ignore=benchmarks/e2e"]
        result = subprocess.run(
            [sys.executable, "-m", "pytest", *options, *paths],
            capture_output=True,
            text=True,
            timeout=300,
            cwd=ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        collected = [
            line
            for line in result.stdout.splitlines()
            if line.startswith("benchmarks/bench_")
        ]
        modules = {line.split("::")[0] for line in collected}
        assert modules == {
            f"benchmarks/{path.name}"
            for path in (ROOT / "benchmarks").glob("bench_*.py")
        }
        assert not any("test_registry" in line for line in collected)


class TestTables:
    def test_empty_rows_from_generator(self):
        """Regression: multi-column headers with an (empty) iterator of
        rows used to crash on an empty star-unpack inside max()."""
        text = format_table("t", ["alpha", "b"], iter([]))
        assert "alpha" in text

    def test_one_shot_generator_consumed_once(self):
        rows = ((i, i * i) for i in range(3))
        text = format_table("t", ["n", "sq"], rows)
        assert "2  4" in text

    def test_short_rows_padded(self):
        text = format_table("t", ["a", "b", "c"], [(1,), (2, 3)])
        assert "1" in text and "3" in text

    def test_column_widths_fit_widest_cell(self):
        text = format_table("t", ["h"], [("wide-cell-value",)])
        _, title, header, row = text.splitlines()
        assert title == "== t =="
        assert header.startswith("h")
        assert len(header) == len(row) == len("wide-cell-value")

    def test_print_table_appends_to_path(self, tmp_path, capsys):
        from repro.util.tables import print_table

        path = tmp_path / "tables.txt"
        print_table("one", ["x"], [(1,)], path=str(path))
        print_table("two", ["y"], [(2,)], path=str(path))
        text = path.read_text()
        assert "== one ==" in text and "== two ==" in text

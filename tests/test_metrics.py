"""Tests for reporting tables and cycle summaries."""

import pytest

from repro.core import ParulelEngine
from repro.lang.parser import parse_program
from repro.obs import Table, format_table, summarize_cycles


class TestFormatTable:
    def test_alignment_and_rule(self):
        out = format_table(
            ["name", "n"], [["alpha", 1], ["b", 22]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("name")
        assert set(lines[2]) <= {"-", " "}
        assert lines[3].endswith("1")
        assert lines[4].endswith("22")

    def test_float_precision(self):
        out = format_table(["x"], [[3.14159]], precision=3)
        assert "3.142" in out

    def test_none_renders_dash(self):
        out = format_table(["x"], [[None]])
        assert out.splitlines()[-1].strip() == "-"


class TestTable:
    def test_add_and_str(self):
        t = Table("demo", ["a", "b"])
        t.add(1, 2)
        assert "demo" in str(t)
        assert "1" in str(t)

    def test_wrong_arity_rejected(self):
        t = Table("demo", ["a", "b"])
        with pytest.raises(ValueError):
            t.add(1)

    def test_csv(self):
        t = Table("demo", ["a", "b"])
        t.add(1, "x")
        assert t.to_csv().splitlines() == ["a,b", "1,x"]

    def test_save_csv(self, tmp_path):
        t = Table("demo", ["a"])
        t.add(5)
        path = tmp_path / "out.csv"
        t.save_csv(str(path))
        assert path.read_text().splitlines() == ["a", "5"]


class TestSummarizeCycles:
    def test_empty(self):
        s = summarize_cycles([])
        assert s["cycles"] == 0
        assert s["mean_firing_set"] == 0.0

    def test_real_run(self):
        src = """
        (literalize f n)
        (literalize g n)
        (p copy (f ^n <n>) --> (make g ^n <n>))
        """
        e = ParulelEngine(parse_program(src))
        for i in range(6):
            e.make("f", n=i)
        result = e.run()
        s = summarize_cycles(result.reports)
        assert s["cycles"] == 1
        assert s["firings"] == 6
        assert s["mean_firing_set"] == 6.0
        assert s["max_firing_set"] == 6
        assert s["wm_changes"] == 6

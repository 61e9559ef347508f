"""Unit tests for the experiment result/report utilities."""

import pytest

from repro.harness.report import ExperimentResult, format_table


def make_result():
    result = ExperimentResult(
        name="demo",
        paper_reference="Figure 0",
        description="demo rows",
        columns=["dataset", "value"],
    )
    result.add_row(dataset="cora", value=1.5)
    result.add_row(dataset="amazon", value=0.003)
    return result


def test_add_row_and_column_access():
    result = make_result()
    assert result.column("dataset") == ["cora", "amazon"]
    assert result.column("value") == [1.5, 0.003]


def test_add_row_extends_columns():
    result = make_result()
    result.add_row(dataset="yelp", value=2.0, extra_metric=7)
    assert "extra_metric" in result.columns
    assert result.rows[-1]["extra_metric"] == 7


def test_row_for_lookup():
    result = make_result()
    assert result.row_for("dataset", "cora")["value"] == 1.5
    with pytest.raises(KeyError):
        result.row_for("dataset", "missing")


def test_to_table_contains_all_cells():
    result = make_result()
    result.notes.append("normalised to GCNAX")
    table = result.to_table()
    assert "demo" in table
    assert "Figure 0" in table
    assert "cora" in table and "amazon" in table
    assert "note: normalised to GCNAX" in table


def test_write_puts_both_renderings_into_a_new_directory(tmp_path):
    result = make_result()
    directory = tmp_path / "reports" / "nested"
    result.write(directory)
    assert (directory / "demo.json").read_text() == result.to_json() + "\n"
    assert (directory / "demo.md").read_text() == result.to_markdown() + "\n"
    assert sorted(path.name for path in directory.iterdir()) == ["demo.json", "demo.md"]


def test_to_dict_round_trip():
    result = make_result()
    result.metadata["seed"] = 0
    as_dict = result.to_dict()
    assert as_dict["name"] == "demo"
    assert as_dict["rows"][0]["dataset"] == "cora"
    assert as_dict["metadata"]["seed"] == 0


def test_format_table_alignment():
    table = format_table(["a", "b"], [{"a": "x", "b": 1}, {"a": "longer", "b": 2.5}])
    lines = table.splitlines()
    assert len(lines) == 4
    header, separator = lines[0], lines[1]
    assert header.startswith("a")
    assert set(separator) <= {"-", " "}


def test_format_table_handles_missing_cells():
    table = format_table(["a", "b"], [{"a": 1}])
    assert "1" in table


def test_format_value_rendering():
    table = format_table(["v"], [{"v": 0.00001}, {"v": 12345.0}, {"v": 0}, {"v": 0.25}])
    assert "1.00e-05" in table
    assert "1.23e+04" in table
    assert "0.25" in table

"""Wire formats: matrix codecs and atomic writes."""

import json
import os
import stat

import numpy as np
import pytest

from hybrid_orbit.jsonio import (
    FormatError,
    _dump_csv,
    dump_json,
    load_json,
    matrix_from_obj,
    matrix_to_obj,
    vector_from_obj,
)


def test_matrix_round_trip_preserves_floats():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(3, 5))
    obj = json.loads(json.dumps(matrix_to_obj(m)))
    assert np.array_equal(matrix_from_obj(obj), m)


def test_matrix_from_obj_diagnostics():
    with pytest.raises(FormatError, match="rows"):
        matrix_from_obj({"cols": 2, "data": [1, 2]})
    with pytest.raises(FormatError, match="rows\\*cols"):
        matrix_from_obj({"rows": 2, "cols": 2, "data": [1.0, 2.0]})
    with pytest.raises(FormatError, match="non-numeric"):
        matrix_from_obj({"rows": 1, "cols": 2, "data": [1.0, "x"]})
    with pytest.raises(FormatError, match="non-finite"):
        matrix_from_obj({"rows": 1, "cols": 1, "data": [float("nan")]})
    with pytest.raises(FormatError, match="jacs.A"):
        matrix_from_obj(["not", "a", "dict"], path="jacs.A")


@pytest.mark.parametrize("entry", ["0.5", True, False, None, [1.0], {"re": 1.0}])
def test_matrix_and_vector_entries_must_be_json_numbers(entry):
    with pytest.raises(FormatError, match=r"A\.data\[1\]: non-numeric"):
        matrix_from_obj({"rows": 1, "cols": 2, "data": [1.0, entry]}, path="A")
    with pytest.raises(FormatError, match=r"v\[0\]: non-numeric"):
        vector_from_obj([entry, 1.0], path="v")


def test_matrix_shape_must_be_json_integers():
    for rows, cols in ((True, 1), (1, True), (1.0, 1), ("1", 1)):
        with pytest.raises(FormatError, match="A.rows/cols"):
            matrix_from_obj({"rows": rows, "cols": cols, "data": [0.5]}, path="A")
    # integer entries are JSON numbers; one too large for a float is not finite
    assert np.array_equal(matrix_from_obj({"rows": 1, "cols": 2, "data": [2, -3]}), [[2.0, -3.0]])
    with pytest.raises(FormatError, match="non-finite"):
        vector_from_obj([10**400])


def test_vector_from_obj_diagnostics():
    assert np.array_equal(vector_from_obj([1, 2.5]), [1.0, 2.5])
    with pytest.raises(FormatError):
        vector_from_obj({"x": 1})
    with pytest.raises(FormatError):
        vector_from_obj([1.0, float("inf")])


def test_dump_json_is_deterministic_and_atomic(tmp_path):
    path = tmp_path / "out.json"
    doc = {"b": [1.0, 2.0], "a": matrix_to_obj(np.eye(2))}
    dump_json(doc, path)
    first = path.read_bytes()
    dump_json(doc, path)
    assert path.read_bytes() == first
    assert not list(tmp_path.glob("*.tmp"))


def test_dump_json_refuses_non_finite_numbers(tmp_path):
    path = tmp_path / "out.json"
    for value in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            dump_json({"a": value}, path)
    assert not list(tmp_path.iterdir())


def test_outputs_get_the_mode_of_a_plain_open(tmp_path):
    old_umask = os.umask(0o022)
    try:
        dump_json({"a": 1}, tmp_path / "out.json")
        _dump_csv([["t", "x1"], ["0.0", "1.0"]], tmp_path / "out.csv")
    finally:
        os.umask(old_umask)
    for name in ("out.json", "out.csv"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o644
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.json"]


def test_load_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"a": 1,\n  broken }')
    with pytest.raises(FormatError, match="line 2"):
        load_json(path)

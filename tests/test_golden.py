"""The CLI's outputs against the golden corpus (tests/golden.py).

Under the corpus's numpy major version the outputs must match byte for
byte.  Under another major, LAPACK and BLAS may round differently, so each
number may move by golden.OTHER_NUMPY_TOL, scaled by max(1, |x|); text,
keys and shapes must still match exactly.
"""

import json

import numpy as np

import golden


def _moved(dest):
    """(name, expected, actual) of each output whose bytes differ."""
    moved = []
    for out, _, _ in golden.COMMANDS:
        expected, actual = (golden.CORPUS / out).read_bytes(), (dest / out).read_bytes()
        if actual != expected:
            moved.append((out, expected.decode(), actual.decode()))
    return moved


def test_cli_outputs_match_the_golden_corpus(tmp_path):
    codes = golden.run(tmp_path)
    assert codes == {out: code for out, code, _ in golden.COMMANDS}
    moved = _moved(tmp_path)
    corpus_numpy = json.loads(golden.VERSIONS.read_text())["numpy"]
    if corpus_numpy.split(".")[0] != np.__version__.split(".")[0]:
        moved = [m for m in moved if not golden.within_other_numpy_tol(*m)]
    assert not moved, "outputs moved from the golden corpus:\n" + "\n".join(
        golden.describe(*m) for m in moved
    )


def test_the_report_names_each_moved_file_with_its_largest_change(tmp_path):
    for out, _, _ in golden.COMMANDS:
        (tmp_path / out).write_bytes((golden.CORPUS / out).read_bytes())
    doc = json.loads((tmp_path / "analyze-stable-3.json").read_text())
    doc["spectral_radius"] *= 1.0 + 1e-6
    (tmp_path / "analyze-stable-3.json").write_text(json.dumps(doc))
    csv_path = tmp_path / "simulate-dlqr-stable-3.csv"
    rows = csv_path.read_bytes().decode().split("\r\n")
    cells = rows[3].split(",")
    cells[2] = repr(float(cells[2]) + 0.5)
    rows[3] = ",".join(cells)
    csv_path.write_bytes("\r\n".join(rows).encode())
    (tmp_path / "verify-paper.json").write_text(json.dumps({"passed": False}))

    report = [golden.describe(*m) for m in _moved(tmp_path)]
    assert [line.split(":")[0] for line in report] == [
        "analyze-stable-3.json", "simulate-dlqr-stable-3.csv", "verify-paper.json",
    ]
    radius = doc["spectral_radius"]
    assert report[0].endswith(f"max abs change {radius - radius / (1.0 + 1e-6):.3e}, "
                              f"max rel change {1e-6 / (1.0 + 1e-6):.3e}")
    assert "max abs change 5.000e-01" in report[1]
    assert report[2] == "verify-paper.json: structure or text changed"
    assert not golden.within_other_numpy_tol(*_moved(tmp_path)[0])

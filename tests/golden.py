"""The golden CLI corpus: one fixed command list, its outputs under
tests/data/golden/, and a report of how far each output moved.

tests/test_golden.py reruns the list through cli.main and compares bytes.
A change that moves outputs on purpose rewrites the corpus with

    PYTHONPATH=src python tests/golden.py

and quotes the test's report of the moves.  To see how far the outputs
move under another numpy or platform, without writing the corpus, run

    PYTHONPATH=src python tests/golden.py --report DIR

which writes the outputs into DIR, prints one line per moved output and
exits 0.
"""

import argparse
import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np

CORPUS = Path(__file__).resolve().parent / "data" / "golden"
VERSIONS = CORPUS / "versions.json"

_SYSTEMS = ("stable-2", "stable-3", "unstable-2", "boundary-2", "uncoupled-2")
_METHODS = ("symmetric", "scale", "dlqr")

# (output file, expected exit code, argv without -o).  An argv entry that
# names a corpus file is read from the corpus, so each command is checked
# on its own inputs, not on a rerun of the command that made them.
COMMANDS = (
    [(f"analyze-{s}.json", 0, ["analyze", "--system", s]) for s in _SYSTEMS]
    + [
        (f"synthesize-{m}-{s}.json", 0, ["synthesize", "-i", f"analyze-{s}.json", "--method", m])
        for s in ("stable-3", "unstable-2")
        for m in _METHODS
    ]
    + [
        # the one catalog design whose theorem-4 ladder passes j = 2 (q_scalings 100, 10, 1000)
        ("synthesize-dlqr-t4-stable-3.json", 0,
         ["synthesize", "-i", "analyze-stable-3.json", "--method", "dlqr", "--enforce-t4"]),
        ("certify-dlqr-stable-3.json", 0, ["certify", "-i", "synthesize-dlqr-stable-3.json"]),
        ("simulate-dlqr-stable-3.csv", 0,
         ["simulate", "--system", "stable-3", "--method", "dlqr", "--cycles", "20"]),
        ("simulate-none-unstable-2.csv", 0,
         ["simulate", "--system", "unstable-2", "--method", "none", "--cycles", "20"]),
        ("verify-paper.json", 0, ["verify-paper"]),
    ]
)

# Under a numpy major other than the corpus's, numbers may move by LAPACK
# and BLAS rounding; they must stay within this bound, scaled by max(1, |x|).
OTHER_NUMPY_TOL = 1e-8


def run(dest: Path, inputs: Path = CORPUS) -> dict[str, int]:
    """Run every command through cli.main, writing into dest; the exit
    code of each output file.  verify-paper's printed table is dropped."""
    from hybrid_orbit.cli import main

    names = {out for out, _, _ in COMMANDS}
    codes = {}
    for out, _, argv in COMMANDS:
        argv = [str(inputs / a) if a in names else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            codes[out] = main(argv + ["-o", str(dest / out)])
    return codes


def moved(dest: Path) -> list[tuple[str, str, str]]:
    """(name, expected, actual) of each output under dest whose bytes
    differ from the corpus.  A missing output is left to the exit codes."""
    out = []
    for name, _, _ in COMMANDS:
        expected, path = (CORPUS / name).read_bytes(), dest / name
        if path.exists() and path.read_bytes() != expected:
            out.append((name, expected.decode(), path.read_bytes().decode()))
    return out


def _leaves(text: str, name: str) -> list:
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text, newline="")))
        return [_number_or_text(cell) for row in rows for cell in row] + [len(r) for r in rows]
    out = []

    def walk(node):
        if isinstance(node, dict):
            for key in sorted(node):
                out.append(key)
                walk(node[key])
        elif isinstance(node, list):
            out.append(len(node))
            for item in node:
                walk(item)
        else:
            out.append(node)

    walk(json.loads(text))
    return out


def _number_or_text(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def number_pairs(name: str, expected: str, actual: str) -> list[tuple[float, float]] | None:
    """The (old, new) pairs of numbers of two outputs, or None when anything
    other than a number differs."""
    old, new = _leaves(expected, name), _leaves(actual, name)
    if len(old) != len(new):
        return None
    pairs = []
    for a, b in zip(old, new):
        if _is_number(a) and _is_number(b):
            pairs.append((float(a), float(b)))
        elif a != b:
            return None
    return pairs


def within_other_numpy_tol(name: str, expected: str, actual: str) -> bool:
    pairs = number_pairs(name, expected, actual)
    return pairs is not None and all(
        abs(b - a) <= OTHER_NUMPY_TOL * max(1.0, abs(a)) for a, b in pairs
    )


def describe(name: str, expected: str, actual: str) -> str:
    """One line: the largest absolute and relative change of a moved output."""
    pairs = number_pairs(name, expected, actual)
    if pairs is None:
        return f"{name}: structure or text changed"
    worst_abs = max((abs(b - a) for a, b in pairs), default=0.0)
    worst_rel = max((abs(b - a) / max(abs(a), abs(b)) for a, b in pairs if a or b), default=0.0)
    return f"{name}: max abs change {worst_abs:.3e}, max rel change {worst_rel:.3e}"


def regenerate() -> None:
    CORPUS.mkdir(parents=True, exist_ok=True)
    codes = run(CORPUS)
    wrong = {out: codes[out] for out, code, _ in COMMANDS if codes[out] != code}
    if wrong:
        raise SystemExit(f"unexpected exit codes {wrong}; fix COMMANDS or the program")
    VERSIONS.write_text(json.dumps({"numpy": np.__version__}, indent=2) + "\n")
    print(f"wrote {len(COMMANDS)} outputs under {CORPUS} (numpy {np.__version__})")


def report(dest: Path) -> None:
    """Run every command into dest and print how far each output moved from
    the corpus, and each exit code that differs; the corpus is not written."""
    dest.mkdir(parents=True, exist_ok=True)
    codes = run(dest)
    corpus_numpy = json.loads(VERSIONS.read_text())["numpy"]
    print(f"golden corpus (numpy {corpus_numpy}) against numpy {np.__version__}:")
    for out, code, _ in COMMANDS:
        if codes[out] != code:
            print(f"{out}: exit code {codes[out]}, expected {code}")
    lines = [describe(*m) for m in moved(dest)]
    print("\n".join(lines) if lines else "no output moved")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite the golden corpus, or report how far outputs moved from it.")
    parser.add_argument("--report", metavar="DIR", type=Path, help="write the outputs into DIR and report the moves")
    args = parser.parse_args()
    if args.report is None:
        regenerate()
    else:
        report(args.report)

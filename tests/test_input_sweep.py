"""A seeded sweep of synthesize and certify input documents against the
exit-code contract.

Each document is drawn from numpy's generator with a fixed seed: 1-3
phases, k and p of 1-3, entries from normal draws at scales 1e-5 to 1e5
mixed with specials near zero, near overflow and around the square-root
overflow.  Every run goes through cli.main with warnings as errors, and
every run must keep the contract: no exception escapes, the exit code is
0 to 3, exits 2 and 3 write nothing, exits 0 and 1 write no NaN or
Infinity, and the written verdict is rho < 1 of the written product.
"""

import json
import warnings

import numpy as np

from hybrid_orbit import cli

SEED = 20261020
N_DOCUMENTS = 600
SPECIALS = (0.0, 1e200, 1e300, 1e-300, 5e-324, 1.7e308, 1e154, 1e155)
RUNS = (
    ["synthesize", "--method", "symmetric"],
    ["synthesize", "--method", "scale"],
    ["synthesize", "--method", "dlqr"],
    ["synthesize", "--method", "dlqr", "--enforce-t4"],
    ["certify"],
)


def _matrix(rng, rows, cols):
    """A matrix object whose entries are normal draws at one scale from
    1e-5 to 1e5, each replaced by a signed special with probability 0.2."""
    data = rng.normal(size=rows * cols) * 10.0 ** rng.uniform(-5.0, 5.0)
    special = rng.random(rows * cols) < 0.2
    data[special] = rng.choice(SPECIALS, size=special.sum()) * rng.choice((-1.0, 1.0), size=special.sum())
    return {"rows": rows, "cols": cols, "data": [float(v) for v in data]}


def _document(rng, certify):
    """A certify document of designed k x k factors, or a synthesize
    document of phases A (k x k) and F (k x p).  One document in ten draws
    each matrix's shape on its own, mostly a shape that does not fit."""
    n_phases, k, p = (int(v) for v in rng.integers(1, 4, size=3))
    free = rng.random() < 0.1

    def shape(rows, cols):
        return tuple(int(v) for v in rng.integers(1, 4, size=2)) if free else (rows, cols)

    if certify:
        return {"designed": [_matrix(rng, *shape(k, k)) for _ in range(n_phases)]}
    phases = [{"A": _matrix(rng, *shape(k, k)), "F": _matrix(rng, *shape(k, p))} for _ in range(n_phases)]
    return {"phases": phases}


def _reject_constant(name):
    raise AssertionError(f"output holds {name}")


def _contract_breach(argv, out, code):
    """What the run broke of the contract, or None."""
    if code not in (0, 1, 2, 3):
        return f"exit code {code!r}"
    written = sorted(p.name for p in out.parent.iterdir())
    if code in (2, 3):
        return f"exit {code} wrote {written}" if written else None
    if written != [out.name]:
        return f"exit {code} wrote {written}"
    try:
        doc = json.loads(out.read_text(), parse_constant=_reject_constant)
    except AssertionError as exc:
        return f"exit {code}: {exc}"
    report = doc if argv[0] == "certify" else doc["report"]
    if argv[0] == "certify":
        rho = report["product_radius"]
    else:
        product = report["product"]
        matrix = np.array(product["data"]).reshape(product["rows"], product["cols"])
        rho = float(np.abs(np.linalg.eigvals(matrix)).max())
        if rho != report["product_radius"]:
            return f"product_radius {report['product_radius']!r}, the written product's {rho!r}"
    if report["verdict"] != ("stable" if rho < 1.0 else "unstable"):
        return f"verdict {report['verdict']} at rho = {rho!r}"
    if code != (0 if rho < 1.0 else 1):
        return f"exit {code} at rho = {rho!r}"
    return None


def test_seeded_documents_keep_the_exit_code_contract(tmp_path, capsys):
    rng = np.random.default_rng(SEED)
    src, out = tmp_path / "in.json", tmp_path / "out" / "out.json"
    out.parent.mkdir()
    breaches, codes = [], []
    for i in range(N_DOCUMENTS):
        run = RUNS[i % len(RUNS)]
        src.write_text(json.dumps(_document(rng, run[0] == "certify")))
        argv = run + ["-i", str(src), "-o", str(out)]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(argv)
        except Exception as exc:  # the contract: nothing escapes cli.main
            breaches.append(f"document {i} {run}: {type(exc).__name__}: {exc}")
            continue
        codes.append(code)
        breach = _contract_breach(argv, out, code)
        if breach:
            breaches.append(f"document {i} {run}: {breach}")
        for path in out.parent.iterdir():
            path.unlink()
    capsys.readouterr()
    assert not breaches, "\n".join(breaches[:20])
    # The sweep reaches every exit code.
    assert set(codes) == {0, 1, 2, 3}

"""A seeded sweep of synthesize and certify input documents, and a sweep
of analyze and simulate flags at edge values, against the exit-code
contract.

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


def _main(argv):
    """The exit code of cli.main(argv) under warnings as errors, or the
    type and text of what escaped it."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return cli.main(argv)
    except Exception as exc:  # the contract: nothing escapes cli.main
        return f"{type(exc).__name__}: {exc}"


def _reject_constant(name):
    raise AssertionError(f"output holds {name}")


def _radius(obj):
    """The spectral radius of a written matrix object."""
    matrix = np.array(obj["data"]).reshape(obj["rows"], obj["cols"])
    return float(np.abs(np.linalg.eigvals(matrix)).max())


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
        rho = _radius(report["product"])
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
        code = _main(argv)
        if isinstance(code, str):
            breaches.append(f"document {i} {run}: {code}")
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


# The flag sweep: analyze and simulate at edge values of the integrator and
# simulation flags, one flag at a time.  Values are passed as --flag=value,
# since argparse reads "--flag -1" as a missing argument.
BASE_STEPS = ("nan", "inf", "-1", "0", "1e-300", "1e-4", "0.3", "1", "5", "50", "60")
FLAG_RUNS = (
    [["analyze", "--system", "stable-3", f"--base-step={v}"] for v in BASE_STEPS]
    + [["simulate", "--system", "stable-3", "--method", "dlqr", "--cycles=2", f"--base-step={v}"] for v in BASE_STEPS]
    + [["simulate", "--system", "unstable-2", "--cycles=2", f"--perturb={v}"]
       for v in ("nan", "inf", "0", "5e-324", "1", "10", "1e154", "1e300")]
    + [["simulate", "--system", "stable-2", "--method", "scale", f"--cycles={v}"] for v in ("-1", "0", "1")]
    + [["simulate", "--system", "stable-2", "--cycles=1", f"--seed={v}"] for v in ("-1", str(2**63))]
)


def _written_breach(argv, out):
    """What a written analyze or simulate output broke of the contract, or
    None.  An analyze document holds no NaN or Infinity, and its
    spectral_radius is the radius of its A_product; a simulate CSV has a
    row of finite numbers for the start and for each cycle."""
    if argv[0] == "simulate":
        lines = out.read_text().splitlines()
        cycles = int(dict(a.split("=") for a in argv if "=" in a)["--cycles"])
        if len(lines) != cycles + 2:
            return f"{len(lines)} lines for {cycles} cycles"
        if not np.isfinite([float(v) for line in lines[1:] for v in line.split(",")]).all():
            return "a value that is not finite"
        return None
    try:
        doc = json.loads(out.read_text(), parse_constant=_reject_constant)
    except AssertionError as exc:
        return str(exc)
    rho = _radius(doc["A_product"])
    if rho != doc["spectral_radius"]:
        return f"spectral_radius {doc['spectral_radius']!r}, the written product's {rho!r}"
    return None


def test_edge_flags_keep_the_exit_code_contract(tmp_path, capsys):
    # The same rules as the document sweep; analyze and simulate give no
    # verdict, so every run that writes exits 0.
    out = tmp_path / "out" / "out"
    out.parent.mkdir()
    breaches, codes = [], []
    for argv in FLAG_RUNS:
        code = _main(argv + ["-o", str(out)])
        if isinstance(code, str):
            breaches.append(f"{argv}: {code}")
            continue
        codes.append(code)
        written = sorted(p.name for p in out.parent.iterdir())
        if code in (2, 3):
            breach = f"exit {code} wrote {written}" if written else None
        elif code != 0 or written != [out.name]:
            breach = f"exit {code!r} wrote {written}"
        else:
            breach = _written_breach(argv, out)
        if breach:
            breaches.append(f"{argv}: {breach}")
        for path in out.parent.iterdir():
            path.unlink()
    capsys.readouterr()
    assert not breaches, "\n".join(breaches)
    # Input errors, numerical failures and written results are all reached.
    assert set(codes) == {0, 2, 3}

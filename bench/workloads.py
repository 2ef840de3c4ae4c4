"""The benchmark's four workloads, one per child process.

Started by ``bench/run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and every BLAS/OpenMP pool capped at one thread:

    python3 bench/workloads.py --workload sweep --seed 1 --seconds 20 \
        --trace 0 --spawned-at <time.monotonic() of the parent>

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns.  Operations come in rounds whose inputs are
a pure function of ``(seed, round, position)``; a run keeps starting rounds
until ``--seconds`` have passed and always finishes the round it is in, so
every run holds the same mix of operations.  Every output is checked after
its operation, outside the timed region.

With ``--trace 0`` the child prints timing statistics for the untraced
loop, in reference seconds (see ``reference.py``), and the run's speed
factor.  With ``--trace 1`` it runs round 0 of every workload traced (the
per-layer numbers; their counts repeat exactly for a seed), then alternates
untraced and traced runs of the same operations of the named workload,
at least once and until ``--seconds`` have passed in all, to measure the
tracing overhead.  The last stdout line is one JSON object.
"""

import argparse
import csv
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

from reference import Gauge
from tracing import Tracer, span

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("design", "closed-loop", "sweep", "cli")

# Integrator settings are the CLI defaults, so library and CLI workloads
# exercise the same configuration.
BASE_STEP = 2e-3

# design: every catalog profile, two and three phases; boundary-2 (radius 1)
# is the slow Newton case with the worst finite-difference error.
DESIGN_SYSTEMS = ("stable-2", "stable-3", "unstable-2", "boundary-2", "unstable-3")
DESIGN_OFFSET = 1e-3
# Newton's flow count depends on the kick direction (24 to 64 flows on
# boundary-2), so directions follow a golden-angle sequence from a seeded
# start angle: the few rounds of a run cover the circle evenly.
GOLDEN = 0.6180339887498949
GAIN_METHODS = ("symmetric", "scale", "dlqr")

# closed-loop: (system, gain method) pairs, 10 cycles from a 1e-2 kick.
CLOSED_LOOP = (("stable-3", "dlqr"), ("unstable-2", "scale"), ("unstable-3", "symmetric"))
CLOSED_LOOP_CYCLES = 10
CLOSED_LOOP_KICK = 1e-2

# sweep: 40 two-phase Jacobian sets per round, alternating the paper's
# shapes (k=3, p=6) with under-actuated ones (k=4, p=2).  Sets 0 and 1 of
# every round (5%) have per-phase radius 30, the rest the paper's 8.1.
SWEEP_SETS_PER_ROUND = 40
SWEEP_SHAPES = ((3, 6), (4, 2))
SWEEP_RADIUS = 8.1
SWEEP_HARD_RADIUS = 30.0
SWEEP_METHODS = {(3, 6): ("symmetric", "scale", "dlqr", "dlqr_t4"), (4, 2): ("symmetric", "scale", "dlqr")}

# Host speed (see reference.py): reference chunks take this share of the
# wall time of the operations, and of the set-up, they follow.
LOOP_REF_SHARE = 0.1
SETUP_REF_SHARE = 0.5

CLI_SYSTEM = "stable-3"
CLI_SIM_CYCLES = 20

# Output checks.  The bounds sit well above today's worst values (orbit
# 3e-5 and Jacobian 7.5e-5 on boundary-2) and far below a broken result.
ORBIT_TOL = 5e-4
JAC_TOL = 5e-4
RADIUS_TOL = 1e-3
VERDICT_TOL = 1e-8
CONTRACTION_SLACK = 10.0
ERROR_FLOOR = 1e-8

PER_LAYER_UNITS = {
    "package.import_s": "s",
    "fixtures.build_synthetic_s": "s",
    "poincare.refine_fixed_point_s": "s",
    "poincare.newton_flows": "count",
    "poincare.phase_jacobians_s": "s",
    "poincare.jacobian_flows": "count",
    **{f"poincare.jac_err.{name}": "1" for name in DESIGN_SYSTEMS},
    "jac_err_max": "1",
    "integrator.simulate_cycle_s": "s",
    "integrator.flows": "count",
    "integrator.s_per_flow": "s",
    "integrator.rhs_per_flow": "calls/flow",
    "integrator.guard_per_flow": "calls/flow",
    "model.callback_s": "s",
    "model.callback_share": "ratio",
    "synthesis.symmetric_s": "s",
    "synthesis.scale_s": "s",
    "synthesis.dlqr_s": "s",
    "synthesis.dlqr_t4_s": "s",
    "synthesis.stability_report_s": "s",
    "synthesis.dlqr_success_ratio": "ratio",
    "synthesis.dlqr_failed_s": "s",
    "synthesis.stable_ratio": "ratio",
    "cli.analyze_s": "s",
    "cli.synthesize_s": "s",
    "cli.certify_s": "s",
    "cli.simulate_s": "s",
    "cli.verify-paper_s": "s",
    "fail_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


class CheckFailed(Exception):
    """An operation returned a wrong or malformed result."""


# Returned by an operation whose input the library declined with its typed error.
REFUSED = object()


@dataclass
class Op:
    """One timed call (``run``) and the untimed check of its result."""

    label: str
    run: Callable
    check: Callable


def _unit(rng, size: int):
    v = rng.normal(size=size)
    return v / float((v @ v) ** 0.5)


def _product_radius(np, matrices) -> float:
    """Spectral radius of M_N ... M_1, computed with numpy alone."""
    product = matrices[0]
    for m in matrices[1:]:
        product = m @ product
    return float(np.max(np.abs(np.linalg.eigvals(product))))


def _contracted(err0: float, err_n: float, rho: float, n: int) -> bool:
    """Final error within slack of what the certified radius predicts."""
    return err_n <= CONTRACTION_SLACK * rho**n * err0 + ERROR_FLOOR


class Design:
    """Find the orbit, measure (A_i, F_i), design three gain sets, certify."""

    name = "design"

    def __init__(self, ctx):
        self.ctx = ctx
        ho = ctx.ho
        self.cfg = ho.IntegratorConfig(base_step=BASE_STEP)
        self.models = {name: ctx.model(name) for name in DESIGN_SYSTEMS}
        # closed-form product radii: of the open loop and of each design
        self.oracle_radius = {}
        for name, model in self.models.items():
            exact = list(model.jacobians)
            radii = {"open": ho.spectral_radius(ho.compose_jacobians(exact))}
            for method in GAIN_METHODS:
                radii[method] = ho.stability_report(exact, ctx.designs[method](exact)).product_radius
            self.oracle_radius[name] = radii

    def ops(self, r: int):
        return [self._op(r, idx, name) for idx, name in enumerate(DESIGN_SYSTEMS)]

    def _op(self, r, idx, name):
        ho, np = self.ctx.ho, self.ctx.np
        model = self.models[name]
        start = model.orbit.fixed_points[-1]  # 2 reduced coordinates on every design system
        turn = np.random.default_rng([self.ctx.seed, idx]).random() + r * GOLDEN
        x0 = start + DESIGN_OFFSET * np.array([np.cos(2 * np.pi * turn), np.sin(2 * np.pi * turn)])

        def run(tracer):
            system = model.system if tracer is None else tracer.instrument(model.system)
            with span(tracer, "poincare.refine_fixed_point"):
                orbit = ho.refine_fixed_point(system, x0, self.cfg)
            with span(tracer, "poincare.phase_jacobians"):
                jacs = ho.phase_jacobians(system, orbit, self.cfg)
            reports = {}
            for method in GAIN_METHODS:
                with span(tracer, f"synthesis.{method}"):
                    gains = self.ctx.designs[method](jacs)
                with span(tracer, "synthesis.stability_report"):
                    reports[method] = ho.stability_report(jacs, gains)
            return orbit, jacs, reports

        def check(result):
            orbit, jacs, reports = result
            orbit_err = max(
                float(np.max(np.abs(x - y)))
                for x, y in zip(orbit.fixed_points, model.orbit.fixed_points)
            )
            jac_err = max(
                max(float(np.max(np.abs(j.A - o.A))), float(np.max(np.abs(j.F - o.F))))
                for j, o in zip(jacs, model.jacobians)
            )
            if orbit_err > ORBIT_TOL:
                raise CheckFailed(f"{name}: orbit off the closed form by {orbit_err:.3e}")
            if jac_err > JAC_TOL:
                raise CheckFailed(f"{name}: A/F off the closed form by {jac_err:.3e}")
            radii = self.oracle_radius[name]
            measured = {"open": ho.spectral_radius(ho.compose_jacobians(jacs))}
            measured.update({m: reports[m].product_radius for m in GAIN_METHODS})
            for key, rho in measured.items():
                if abs(rho - radii[key]) > RADIUS_TOL * max(1.0, radii[key]):
                    raise CheckFailed(
                        f"{name}: {key} product radius {rho:.6f}, closed form {radii[key]:.6f}"
                    )
            return {"system": name, "jac_err": jac_err}

        return Op(name, run, check)


class ClosedLoop:
    """Simulate the closed loop for ten cycles from a seeded kick."""

    name = "closed-loop"

    def __init__(self, ctx):
        self.ctx = ctx
        ho = ctx.ho
        self.cfg = ho.IntegratorConfig(base_step=BASE_STEP)
        # Gains come from the closed-form orbit and Jacobians, so set-up
        # stays short and each operation is one sequential chain of flows.
        self.loops = []
        for name, method in CLOSED_LOOP:
            model = ctx.model(name)
            exact = list(model.jacobians)
            gains = ctx.designs[method](exact)
            law = ho.FeedbackLaw(gains=tuple(gains.gains), orbit=model.orbit)
            rho = ho.stability_report(exact, gains).product_radius
            self.loops.append((name, method, model, law, rho))

    def ops(self, r: int):
        return [self._op(r, idx, *loop) for idx, loop in enumerate(self.loops)]

    def _op(self, r, idx, name, method, model, law, rho):
        ho, np = self.ctx.ho, self.ctx.np
        ref = model.orbit.fixed_points[-1]
        x0 = ref + CLOSED_LOOP_KICK * _unit(np.random.default_rng([self.ctx.seed, r, idx]), ref.size)

        def run(tracer):
            system = model.system if tracer is None else tracer.instrument(model.system)
            with span(tracer, "integrator.simulate_cycle"):
                return ho.simulate_cycle(system, law, x0, CLOSED_LOOP_CYCLES, self.cfg)

        def check(states):
            if len(states) != CLOSED_LOOP_CYCLES:
                raise CheckFailed(f"{name}: {len(states)} cycles returned")
            err_n = float(np.linalg.norm(states[-1] - ref))
            if not _contracted(CLOSED_LOOP_KICK, err_n, rho, CLOSED_LOOP_CYCLES):
                raise CheckFailed(
                    f"{name}/{method}: error {err_n:.3e} after {CLOSED_LOOP_CYCLES} cycles, "
                    f"certified radius {rho:.3g} predicts {rho**CLOSED_LOOP_CYCLES * CLOSED_LOOP_KICK:.3e}"
                )
            return None

        return Op(f"{name}/{method}", run, check)


class Sweep:
    """Design gains for seeded Jacobian sets; no integration."""

    name = "sweep"

    def __init__(self, ctx):
        self.ctx = ctx

    def jacobian_set(self, i: int):
        np = self.ctx.np
        rng = np.random.default_rng([self.ctx.seed, i])
        k, p = SWEEP_SHAPES[i % 2]
        radius = SWEEP_HARD_RADIUS if i % SWEEP_SETS_PER_ROUND < 2 else SWEEP_RADIUS
        phases = []
        for _ in range(2):
            a = rng.normal(size=(k, k))
            a *= radius / float(np.max(np.abs(np.linalg.eigvals(a))))
            phases.append((a, rng.normal(size=(k, p))))
        return (k, p), phases

    def ops(self, r: int):
        out = []
        for i in range(r * SWEEP_SETS_PER_ROUND, (r + 1) * SWEEP_SETS_PER_ROUND):
            shape, jacs = self.jacobian_set(i)
            out.extend(self._op(i, jacs, method) for method in SWEEP_METHODS[shape])
        return out

    def _op(self, i, jacs, method):
        ho, np = self.ctx.ho, self.ctx.np
        design = self.ctx.designs[method]

        def run(tracer):
            with span(tracer, f"synthesis.{method}") as record:
                try:
                    gains = design(jacs)
                except ho.SynthesisError:
                    if record is not None:
                        record["refused"] = True
                    return REFUSED
            with span(tracer, "synthesis.stability_report") as record:
                report = ho.stability_report(jacs, gains)
                if record is not None:
                    record["stable"] = report.stable
            return gains, report

        def check(result):
            if result is REFUSED:
                return None
            gains, report = result
            rho = _product_radius(np, [a - f @ k for (a, f), k in zip(jacs, gains.gains)])
            if abs(rho - report.product_radius) > VERDICT_TOL * max(1.0, rho):
                raise CheckFailed(
                    f"set {i} {method}: product radius {report.product_radius!r}, recomputed {rho!r}"
                )
            if abs(rho - 1.0) > VERDICT_TOL and report.stable != (rho < 1.0):
                raise CheckFailed(f"set {i} {method}: verdict stable={report.stable} at radius {rho!r}")
            return None

        return Op(f"set{i}/{method}", run, check)


class Cli:
    """One ``hybrid-orbit`` subprocess at a time, as a user runs it."""

    name = "cli"

    def __init__(self, ctx):
        self.ctx = ctx
        self.work = OUT_DIR / f"cli-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.first_outputs = {}
        self.verdicts = {}
        self._oracle = None

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def ops(self, r: int):
        ops = [self._op(["analyze", "--system", CLI_SYSTEM, "-o", "jacs.json"], self._check_analyze)]
        for method in GAIN_METHODS:
            ops.append(self._op(
                ["synthesize", "-i", "jacs.json", "--method", method, "-o", f"gains-{method}.json"],
                self._check_synthesize,
            ))
        for method in GAIN_METHODS:
            ops.append(self._op(
                ["certify", "-i", f"gains-{method}.json", "-o", f"cert-{method}.json"],
                self._check_certify,
            ))
        ops.append(self._op(
            ["simulate", "--system", CLI_SYSTEM, "--method", "dlqr", "--cycles", str(CLI_SIM_CYCLES),
             "--seed", str(self.ctx.seed), "-o", "sim.csv"],
            self._check_simulate,
        ))
        ops.append(self._op(["verify-paper", "-o", "verify.json"], self._check_verify_paper))
        return ops

    def _op(self, argv, check_output):
        """Run ``hybrid-orbit <argv>``; its output file follows ``-o``."""
        command, output = argv[0], argv[argv.index("-o") + 1]
        cmd = [sys.executable, "-m", "hybrid_orbit.cli", *argv]

        def run(tracer):
            with span(tracer, f"cli.{command}"):
                return subprocess.run(cmd, cwd=self.work, capture_output=True, timeout=120)

        def check(proc):
            path = self.work / output
            if not path.is_file():
                raise CheckFailed(f"{command}: no output (exit {proc.returncode}): {proc.stderr[-300:]!r}")
            data = path.read_bytes()
            key = " ".join(argv)
            expected = self.first_outputs.setdefault(key, (data, proc.stdout))
            if expected != (data, proc.stdout):
                raise CheckFailed(f"{key}: output differs from the first run of the same command")
            check_output(proc.returncode, data, argv)
            return None

        return Op(command, run, check)

    def _json(self, data: bytes, what: str):
        try:
            return json.loads(data)
        except ValueError as exc:
            raise CheckFailed(f"{what}: invalid JSON ({exc})") from exc

    def _radius(self, matrices) -> float:
        np = self.ctx.np
        return _product_radius(
            np, [np.array(m["data"], dtype=float).reshape(m["rows"], m["cols"]) for m in matrices]
        )

    def _check_analyze(self, code, data, argv):
        np = self.ctx.np
        if code != 0:
            raise CheckFailed(f"analyze: exit {code}")
        doc = self._json(data, "analyze")
        if self._oracle is None:
            self._oracle = self.ctx.model(CLI_SYSTEM)
        for phase, exact in zip(doc["phases"], self._oracle.jacobians):
            for key, ref in (("A", exact.A), ("F", exact.F)):
                m = np.array(phase[key]["data"]).reshape(phase[key]["rows"], phase[key]["cols"])
                if m.shape != ref.shape or float(np.max(np.abs(m - ref))) > JAC_TOL:
                    raise CheckFailed(f"analyze: {key} of phase {phase['phase']} off the closed form")
        if abs(self._radius([p["A"] for p in doc["phases"]]) - doc["spectral_radius"]) > VERDICT_TOL:
            raise CheckFailed("analyze: spectral_radius does not match the product of A")

    def _check_synthesize(self, code, data, argv):
        doc = self._json(data, "synthesize")
        report = doc["report"]
        rho = self._radius(report["designed"])
        if abs(rho - report["product_radius"]) > VERDICT_TOL * max(1.0, rho):
            raise CheckFailed(f"synthesize {argv[4]}: product radius does not match the designed matrices")
        stable = report["verdict"] == "stable"
        if stable != (rho < 1.0) or code != (0 if stable else 1):
            raise CheckFailed(f"synthesize {argv[4]}: verdict {report['verdict']!r} with exit {code}")
        self.verdicts[argv[4]] = (stable, report["product_radius"])

    def _check_certify(self, code, data, argv):
        doc = self._json(data, "certify")
        method = argv[2].removeprefix("gains-").removesuffix(".json")
        stable, rho = self.verdicts[method]
        if doc["product_radius"] != rho or (doc["verdict"] == "stable") != stable:
            raise CheckFailed(f"certify {method}: verdict differs from synthesize")
        if code != (0 if stable else 1):
            raise CheckFailed(f"certify {method}: exit {code}")

    def _check_simulate(self, code, data, argv):
        if code != 0:
            raise CheckFailed(f"simulate: exit {code}")
        rows = list(csv.reader(io.StringIO(data.decode())))
        k = len(rows[0]) - 2
        if rows[0] != ["cycle", "err_norm"] + [f"x{j + 1}" for j in range(k)] or len(rows) != CLI_SIM_CYCLES + 2:
            raise CheckFailed("simulate: malformed CSV")
        errors = [float(row[1]) for row in rows[1:]]
        _, rho = self.verdicts["dlqr"]
        if not _contracted(errors[0], errors[-1], rho, CLI_SIM_CYCLES):
            raise CheckFailed(f"simulate: error {errors[-1]:.3e} after {CLI_SIM_CYCLES} cycles")

    def _check_verify_paper(self, code, data, argv):
        doc = self._json(data, "verify-paper")
        if code != (0 if doc["passed"] else 1) or len(doc["checks"]) < 1:
            raise CheckFailed(f"verify-paper: exit {code} with passed={doc['passed']}")


class Context:
    """Package handle, seed, gain designs and the catalog models shared by workloads."""

    def __init__(self, ho, seed: int, tracer: Tracer | None):
        import numpy

        self.ho = ho
        self.np = numpy
        self.designs = {
            "symmetric": ho.symmetric_matrix_gains,
            "scale": ho.scale_factor_gains,
            "dlqr": ho.dlqr_gains,
            "dlqr_t4": lambda jacs: ho.dlqr_gains(jacs, enforce_theorem4=True),
        }
        self.seed = seed
        self.tracer = tracer
        self._models = {}

    def model(self, name: str):
        if name not in self._models:
            profile, n = name.rsplit("-", 1)
            with span(self.tracer, "fixtures.build_synthetic"):
                self._models[name] = self.ho.build_synthetic(int(n), profile)
        return self._models[name]


WORKLOAD_TYPES = {cls.name: cls for cls in (Design, ClosedLoop, Sweep, Cli)}


class Tally:
    """Outcomes of the operations of one loop."""

    def __init__(self):
        self.times = []
        self.ref_times = []
        self.factor = 1.0
        self.rounds = []
        self.attempted = 0
        self.refused = 0
        self.failures = []
        self.checked = []

    def run(self, op: Op, tracer):
        self.attempted += 1
        start = perf_counter()
        try:
            result = op.run(tracer)
        except Exception:
            self.times.append(perf_counter() - start)
            self.failures.append(f"{op.label}: raised\n{traceback.format_exc(limit=3)}")
            return
        self.times.append(perf_counter() - start)
        if result is REFUSED:
            self.refused += 1
        try:
            self.checked.append(op.check(result))
        except CheckFailed as exc:
            self.failures.append(f"{op.label}: {exc}")
        except Exception:
            self.failures.append(f"{op.label}: malformed result\n{traceback.format_exc(limit=3)}")

    @property
    def failed(self) -> int:
        """Operations that raised or returned a wrong result.

        A typed refusal is the library's answer, not a failed operation: it
        is counted in ``refused`` and in the per-layer ``fail_ratio``.
        """
        return len(self.failures)


def _p90(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def timed_loop(workload, seconds: float, max_ops: int | None) -> Tally:
    """Whole rounds until ``seconds`` have passed, untraced.

    Reference chunks follow every operation, and every operation's time is
    divided by the run's speed factor (``ref_times``).  One factor per run
    cancels the machine's drift between runs; a factor per round or per
    operation would add the chunks' own noise to every sample.  Quantiles
    are kept per round (``rounds``): a round always holds the same mix of
    operations, so its quantiles are comparable across rounds and runs,
    whatever the number of rounds a run completes.
    """
    tally = Tally()
    gauge = Gauge(LOOP_REF_SHARE)
    rounds = []
    begin = time.monotonic()
    r = 0
    while r == 0 or time.monotonic() - begin < seconds:
        first = len(tally.times)
        for op in workload.ops(r):
            if max_ops is not None and tally.attempted >= max_ops:
                break
            tally.run(op, None)
            gauge.pay(tally.times[-1])
        rounds.append(slice(first, len(tally.times)))
        if max_ops is not None and tally.attempted >= max_ops:
            break
        r += 1
    tally.factor = gauge.factor()
    tally.ref_times = [t / tally.factor for t in tally.times]
    for s in rounds:
        times = tally.ref_times[s]
        tally.rounds.append({
            "op_p50_s": statistics.median(times),
            "op_p90_s": _p90(times),
        })
    return tally


def traced_round(ctx, workloads, max_ops: int | None) -> Tally:
    """Round 0 of every workload, traced: the per-layer numbers."""
    tally = Tally()
    for name in WORKLOADS:
        for op in workloads[name].ops(0)[:max_ops]:
            ctx.tracer.op = f"{name}:{op.label}"
            tally.run(op, ctx.tracer)
    ctx.tracer.op = None
    return tally


def overhead_pairs(workload, until: float, max_ops: int | None) -> tuple[Tally, Tally]:
    """Each operation untraced, then traced, from round 1 on, until ``until``.

    The traced copies use a throw-away tracer so the counts of round 0
    stay exact.
    """
    plain, traced, scratch = Tally(), Tally(), Tracer()
    r = 1
    while True:
        for op in workload.ops(r):
            plain.run(op, None)
            traced.run(op, scratch)
            if time.monotonic() >= until or (max_ops is not None and plain.attempted >= max_ops):
                return plain, traced
        r += 1


def per_layer(tracer: Tracer, tally: Tally, import_s: float, overhead: float) -> dict:
    """Per-layer metrics from the traced round 0 of every workload."""
    flow_spans = ("poincare.refine_fixed_point", "poincare.phase_jacobians", "integrator.simulate_cycle")
    flow_s = sum(tracer.total(name) for name in flow_spans)
    flows = tracer.count("reset")
    values = {
        "package.import_s": import_s,
        "fixtures.build_synthetic_s": tracer.total("fixtures.build_synthetic"),
        "poincare.refine_fixed_point_s": tracer.total("poincare.refine_fixed_point"),
        "poincare.newton_flows": tracer.count("reset", {"poincare.refine_fixed_point"}),
        "poincare.phase_jacobians_s": tracer.total("poincare.phase_jacobians"),
        "poincare.jacobian_flows": tracer.count("reset", {"poincare.phase_jacobians"}),
        "integrator.simulate_cycle_s": tracer.total("integrator.simulate_cycle"),
        "integrator.flows": flows,
        "model.callback_s": tracer.callback_s,
        "fail_ratio": (tally.refused + tally.failed) / tally.attempted,
        "trace.overhead_ratio": overhead,
    }
    if flows:
        values["integrator.s_per_flow"] = flow_s / flows
        values["integrator.rhs_per_flow"] = tracer.count("drift") / flows
        values["integrator.guard_per_flow"] = tracer.count("guard") / flows
        values["model.callback_share"] = tracer.callback_s / flow_s
    errors = {}
    for info in tally.checked:
        if isinstance(info, dict) and "jac_err" in info:
            errors[info["system"]] = info["jac_err"]
            values[f"poincare.jac_err.{info['system']}"] = info["jac_err"]
    if errors:
        values["jac_err_max"] = max(errors.values())

    # synthesis: sweep spans only (the design workload's designs are <1% of it)
    sweep = [s for s in tracer.spans if (s["op"] or "").startswith("sweep:")]
    ok_s = {}
    for s in sweep:
        if not s.get("refused"):
            ok_s.setdefault(s["name"], []).append(s["end"] - s["start"])
    for method in ("symmetric", "scale", "dlqr", "dlqr_t4", "stability_report"):
        if ok_s.get(f"synthesis.{method}"):
            values[f"synthesis.{method}_s"] = statistics.median(ok_s[f"synthesis.{method}"])
    dlqr = [s for s in sweep if s["name"] in ("synthesis.dlqr", "synthesis.dlqr_t4")]
    if dlqr:
        failed = [s for s in dlqr if s.get("refused")]
        values["synthesis.dlqr_success_ratio"] = 1.0 - len(failed) / len(dlqr)
        values["synthesis.dlqr_failed_s"] = sum(s["end"] - s["start"] for s in failed)
    reports = [s["stable"] for s in sweep if "stable" in s]
    if reports:
        values["synthesis.stable_ratio"] = sum(reports) / len(reports)
    for command in ("analyze", "synthesize", "certify", "simulate", "verify-paper"):
        if tracer.seconds(f"cli.{command}"):
            values[f"cli.{command}_s"] = statistics.median(tracer.seconds(f"cli.{command}"))
    return {name: {"value": v, "unit": PER_LAYER_UNITS[name]} for name, v in values.items()}


def machine(np, nproc: int) -> dict:
    import scipy

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() just before starting this process")
    parser.add_argument("--setup-only", action="store_true", help="report set-up time and exit")
    parser.add_argument("--max-ops", type=int, help="stop after this many operations (smoke test)")
    args = parser.parse_args(argv)
    # One processor for this process and its subprocesses, so the reference
    # chunks measure the processor the operations ran on.
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    import_start = perf_counter()
    import hybrid_orbit as ho
    import_end = perf_counter()
    package = Path(ho.__file__).resolve()
    if ROOT / "src" not in package.parents:
        print(f"hybrid_orbit imported from {package}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    ctx = Context(ho, args.seed, tracer)
    names = WORKLOADS if args.trace else (args.workload,)
    workloads = {name: WORKLOAD_TYPES[name](ctx) for name in names}
    setup_s = time.monotonic() - args.spawned_at
    if not args.trace:
        gauge = Gauge(SETUP_REF_SHARE)
        gauge.pay(setup_s)
        setup = {"setup_s": setup_s / gauge.factor(), "setup_wall_s": setup_s}
    try:
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        if args.trace:
            begin = time.monotonic()
            tally = traced_round(ctx, workloads, args.max_ops)
            plain, traced = overhead_pairs(workloads[args.workload], begin + args.seconds, args.max_ops)
            overhead = sum(plain.times) / sum(traced.times)
            result = {"per_layer": per_layer(tracer, tally, import_end - import_start, overhead)}
            tally.failures += plain.failures + traced.failures
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            tally = timed_loop(workloads[args.workload], args.seconds, args.max_ops)
            result = {
                **setup,
                "ops_per_s": len(tally.ref_times) / sum(tally.ref_times),
                **{name: statistics.median(r[name] for r in tally.rounds)
                   for name in ("op_p50_s", "op_p90_s")},
                "speed_factor": tally.factor,
                "jac_err_max": max(
                    (c["jac_err"] for c in tally.checked if isinstance(c, dict)), default=None
                ),
            }
    finally:
        for workload in workloads.values():
            if hasattr(workload, "close"):
                workload.close()
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        refused=tally.refused,
        failures=tally.failures,
        peak_rss_mb=peak_rss_mb(),
        machine=machine(ctx.np, nproc),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Commands:
    analyze       section-map Jacobians of a named catalog system (JSON)
    synthesize    gains + stability report from a Jacobians file (JSON)
    certify       certificates for designed Jacobians (JSON)
    simulate      closed-loop per-cycle section errors (CSV)
    verify-paper  consistency suite over the bundled reference matrices

Exit codes: 0 success / stable verdict, 1 unstable verdict, 2 input error,
3 numerical failure.
"""

import argparse
import math
import sys
from dataclasses import asdict

import numpy as np

from . import fixtures, jsonio, synthesis
from .integrator import IntegrationError, IntegratorConfig, simulate_cycle
from .jsonio import FormatError, dump_json, load_json, matrix_from_obj, matrix_to_obj, vector_to_obj
from .model import FeedbackLaw
from .numerics import NumericsError, spectral_radius
from .poincare import FixedPointError, PhaseJacobians, compose_jacobians, orbit_and_jacobians

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_UNSTABLE = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybrid-orbit",
        description="Design and certify event-triggered stabilizing feedback "
        "for periodic orbits of multi-domain hybrid systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="compute section-map Jacobians of a catalog system")
    analyze.add_argument("--system", required=True, help=f"catalog name, one of {', '.join(fixtures.CATALOG)}")
    analyze.add_argument("--output", "-o", required=True, help="output JSON path")
    _add_integrator_flags(analyze)

    synth = sub.add_parser("synthesize", help="design gains from a Jacobians JSON file")
    synth.add_argument("--input", "-i", required=True, help="Jacobians JSON (analyze output)")
    synth.add_argument("--output", "-o", required=True, help="output JSON path")
    synth.add_argument(
        "--method", required=True, choices=("symmetric", "scale", "dlqr"),
        help="gain-design method",
    )
    synth.add_argument("--msym", help="JSON file with the symmetric target matrix")
    synth.add_argument("--eta", type=float, help="scale-factor safety margin in (0, 1]")
    synth.add_argument("--q", type=float, help="DLQR state weight (Q = q I)")
    synth.add_argument("--r", type=float, help="DLQR input weight (R = r I)")
    synth.add_argument(
        "--enforce-t4", action="store_true",
        help="grow Q until the entrywise certificate margin is met",
    )

    certify = sub.add_parser("certify", help="certify designed Jacobians")
    certify.add_argument("--input", "-i", required=True, help="designed-Jacobians JSON")
    certify.add_argument("--output", "-o", required=True, help="output JSON path")

    simulate = sub.add_parser("simulate", help="closed-loop cycle simulation of a catalog system")
    simulate.add_argument("--system", required=True)
    simulate.add_argument("--output", "-o", required=True, help="output CSV path")
    simulate.add_argument(
        "--method", default="none", choices=("none", "symmetric", "scale", "dlqr"),
        help="gain-design method (none = open loop)",
    )
    simulate.add_argument("--cycles", type=int, default=20)
    simulate.add_argument("--perturb", type=float, default=1e-2,
                          help="initial section-error magnitude")
    simulate.add_argument("--seed", type=int, default=0,
                          help="seed for the perturbation direction")
    _add_integrator_flags(simulate)

    verify = sub.add_parser("verify-paper", help="run the reference-fixture consistency suite")
    verify.add_argument("--output", "-o", help="optional JSON report path")

    return parser


def _add_integrator_flags(sub_parser) -> None:
    sub_parser.add_argument("--base-step", type=float, default=IntegratorConfig.base_step,
                            help="integrator base step (default %(default)g)")


def _cmd_analyze(args) -> int:
    cfg = IntegratorConfig(base_step=args.base_step)
    model = fixtures.from_catalog(args.system)
    orbit, jacs = orbit_and_jacobians(model.system, model.orbit.fixed_points[-1], cfg)
    product = compose_jacobians(jacs)
    doc = {
        "system": args.system,
        "phases": [
            {
                "phase": j.phase_index + 1,
                "A": matrix_to_obj(j.A),
                "F": matrix_to_obj(j.F),
                "fixed_point": vector_to_obj(orbit.fixed_points[j.phase_index]),
                "duration": orbit.phase_durations[j.phase_index],
            }
            for j in jacs
        ],
        "A_product": matrix_to_obj(product),
        "spectral_radius": spectral_radius(product),
    }
    dump_json(doc, args.output)
    return EXIT_OK


def _jacobians_from_doc(doc) -> list[PhaseJacobians]:
    if not isinstance(doc, dict) or "phases" not in doc or not isinstance(doc["phases"], list):
        raise FormatError("input: expected an object with a 'phases' list")
    if not doc["phases"]:
        raise FormatError("input.phases: empty")
    jacs = []
    for idx, entry in enumerate(doc["phases"]):
        path = f"phases[{idx}]"
        if not isinstance(entry, dict) or "A" not in entry or "F" not in entry:
            raise FormatError(f"{path}: expected an object with 'A' and 'F' matrices")
        jacs.append(
            PhaseJacobians(
                phase_index=idx,
                A=matrix_from_obj(entry["A"], f"{path}.A"),
                F=matrix_from_obj(entry["F"], f"{path}.F"),
            )
        )
    return jacs


def _synthesize_gains(
    jacs, method, msym=None, eta=None, q=None, r=None, enforce_t4=False
) -> synthesis.GainSet:
    if method != "symmetric" and msym is not None:
        raise FormatError("--msym applies only to --method symmetric")
    if method != "scale" and eta is not None:
        raise FormatError("--eta applies only to --method scale")
    if method != "dlqr" and (q is not None or r is not None or enforce_t4):
        raise FormatError("--q/--r/--enforce-t4 apply only to --method dlqr")

    if method == "symmetric":
        target = None
        if msym is not None:
            target = matrix_from_obj(load_json(msym), "msym")
        return synthesis.symmetric_matrix_gains(jacs, target)
    if method == "scale":
        return synthesis.scale_factor_gains(jacs, eta=1.0 if eta is None else eta)
    q_weight = 1.0 if q is None else q
    r_weight = 1.0 if r is None else r
    if q_weight <= 0.0 or r_weight <= 0.0:
        raise FormatError("--q and --r must be positive")
    q_mats = [q_weight * np.eye(j.A.shape[0]) for j in jacs]
    r_mats = [r_weight * np.eye(j.F.shape[1]) for j in jacs]
    return synthesis.dlqr_gains(jacs, q_mats, r_mats, enforce_theorem4=enforce_t4)


def _certificate_to_obj(cert: synthesis.TheoremCertificate) -> dict:
    return {"passed": cert.passed, "per_phase": cert.per_phase}


def _report_to_obj(report: synthesis.StabilityReport) -> dict:
    return {
        "designed": [matrix_to_obj(m) for m in report.designed],
        "per_phase_radius": report.per_phase_radius,
        "product": matrix_to_obj(report.product),
        "product_radius": report.product_radius,
        "theorem3": _certificate_to_obj(report.cert_theorem3),
        "theorem4": _certificate_to_obj(report.cert_theorem4),
        "verdict": "stable" if report.stable else "unstable",
        "inexact_design": report.inexact_design,
    }


def _cmd_synthesize(args) -> int:
    jacs = _jacobians_from_doc(load_json(args.input))
    gains = _synthesize_gains(
        jacs, args.method, msym=args.msym, eta=args.eta, q=args.q, r=args.r,
        enforce_t4=args.enforce_t4,
    )
    report = synthesis.stability_report(jacs, gains)
    doc = {
        "method": gains.method,
        "gains": [matrix_to_obj(k) for k in gains.gains],
        "residuals": gains.residuals,
        "inexact": gains.inexact,
        "report": _report_to_obj(report),
    }
    if gains.scale_factors is not None:
        doc["scale_factors"] = gains.scale_factors
    if gains.q_scalings is not None:
        doc["q_scalings"] = gains.q_scalings
    dump_json(doc, args.output)
    return EXIT_OK if report.stable else EXIT_UNSTABLE


def _cmd_certify(args) -> int:
    doc, path = load_json(args.input), "input"
    if isinstance(doc, dict) and "designed" not in doc and "report" in doc:
        doc, path = doc["report"], "input.report"
    if not isinstance(doc, dict) or "designed" not in doc:
        raise FormatError(f"{path}: expected a 'designed' list of matrices")
    raw = doc["designed"]
    if not isinstance(raw, list) or not raw:
        raise FormatError(f"{path}.designed: expected a non-empty list")
    report = synthesis.certify_designed(
        [matrix_from_obj(m, f"{path}.designed[{i}]") for i, m in enumerate(raw)]
    )
    full = _report_to_obj(report)
    keys = ("theorem3", "theorem4", "product_radius", "verdict")
    dump_json({key: full[key] for key in keys}, args.output)
    return EXIT_OK if report.stable else EXIT_UNSTABLE


def _cmd_simulate(args) -> int:
    if args.cycles < 0:
        raise FormatError("--cycles must be nonnegative")
    if not np.isfinite(args.perturb):
        raise FormatError("--perturb must be finite")
    cfg = IntegratorConfig(base_step=args.base_step)
    model = fixtures.from_catalog(args.system)
    orbit, jacs = orbit_and_jacobians(model.system, model.orbit.fixed_points[-1], cfg)
    law = None
    if args.method != "none":
        gains = _synthesize_gains(jacs, args.method)
        law = FeedbackLaw(gains=tuple(gains.gains), orbit=orbit)

    reference = orbit.fixed_points[-1]
    rng = np.random.default_rng(args.seed)
    direction = rng.normal(size=reference.size)
    direction /= np.linalg.norm(direction)
    x0 = reference + args.perturb * direction

    states = simulate_cycle(model.system, law, x0, args.cycles, cfg)
    header = ["cycle", "err_norm"] + [f"x{j + 1}" for j in range(reference.size)]
    rows = [
        [cycle, repr(_err_norm(y - reference))] + [repr(float(v)) for v in y]
        for cycle, y in enumerate([x0] + states)
    ]
    jsonio._dump_csv([header] + rows, args.output)
    return EXIT_OK


def _err_norm(d: np.ndarray) -> float:
    """The Euclidean norm of d, finite while d and its norm are.  Only
    where np.linalg.norm's sum of squares overflows does math.hypot, which
    scales, take over, so every row that fits keeps its bytes."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(d))
    return math.hypot(*d) if math.isinf(norm) else norm


def _cmd_verify_paper(args) -> int:
    report = fixtures.verify_paper()
    print(report.format_table())
    if args.output:
        dump_json({"passed": report.passed, "checks": [asdict(c) for c in report.checks]}, args.output)
    return EXIT_OK if report.passed else EXIT_UNSTABLE


_COMMANDS = {
    "analyze": _cmd_analyze,
    "synthesize": _cmd_synthesize,
    "certify": _cmd_certify,
    "simulate": _cmd_simulate,
    "verify-paper": _cmd_verify_paper,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (FormatError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericsError, synthesis.SynthesisError, FixedPointError, IntegrationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    sys.exit(main())

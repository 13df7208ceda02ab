"""Command-line interface.

Subcommands: ``scatter`` (one setup, full observable table), ``sweep``
(CSV over a parameter range), ``limit`` (closed-form limit reports),
``wavefunction`` (grid samples to CSV + metadata sidecar) and ``verify``
(randomized verification suites with a JSON summary).

Energies are in units of mc² when --mass is left at its default of 1;
--mass 0 switches to an arbitrary energy unit with the massless formulas.
Exit codes: 0 success, 1 verification failure, 2 usage/parameter error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .boundary import classify_boundary
from .core import EdgePointError, PhysicalSetup, Regime, classify_regime, kinematics
from .forces import ForceReport, external_force_mean, momentum_flux_bracket
from .gridio import sample, write_csv
from .limits import (
    edge_limit,
    impenetrable_limit,
    infinite_potential_limit,
    nonrelativistic_limit,
)
from .matching import Convention, match, physical_convention
from .observables import coefficients
from .verify import SUITES, run_suite

_CONVENTION_CHOICES = sorted(["auto", *(conv.value for conv in Convention)])
_INF = float("inf")


def _convention(name: str) -> Convention | None:
    """The --convention choice; None for "auto"."""
    return None if name == "auto" else Convention(name)


def _fmt(value, precision: int) -> str:
    if isinstance(value, complex):
        if value.imag == 0.0:
            return f"{value.real:.{precision}g}"
        return f"{value.real:.{precision}g}{value.imag:+.{precision}g}i"
    if isinstance(value, float):
        return f"{value:.{precision}g}"
    return str(value)


def _echo_params(command: str, params: dict, precision: int) -> None:
    print(f"# diracstep {__version__} {command}")
    resolved = "  ".join(f"{k}={_fmt(v, precision)}" for k, v in params.items())
    print(f"# {resolved}")


def _print_table(rows: list[tuple[str, object]], precision: int) -> None:
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {_fmt(value, precision)}")


def scatter_record(setup: PhysicalSetup, conv: Convention | None) -> dict:
    """Full observable record for one setup; edge rows come from the limits.

    Edge rows keep their limit's closed-form force −4(E ∓ mc²), whose last
    bits −V₀ρ(0) would change.

    ``conv=None`` selects the physically transmitting convention for the
    regime (main below/at the Klein zone, traditional for an ordinary
    sub-threshold step and at the lower edge).
    """
    regime = classify_regime(setup)
    if regime in (Regime.EDGE_POINT, Regime.EDGE_LOWER):
        sol = edge_limit(setup, conv)
        b = -_INF if regime is Regime.EDGE_POINT else 0.0
        a, k, kbar_or_kappa, force = sol.a, sol.wave_number, 0.0, sol.force
    else:
        kin = kinematics(setup)
        sol = match(kin, conv or physical_convention(regime))
        a, b, k, kbar_or_kappa = kin.a, kin.b, kin.k, kin.kbar_or_kappa
        force = external_force_mean(sol)
    record = {
        "mass_energy": setup.mass_energy,
        "step_height": setup.step_height,
        "energy": setup.energy,
        "regime": regime.value,
        "convention": sol.convention.value,
        "r": sol.r,
        "t": sol.t,
        "a": a,
        "b": b,
        "k": k,
        "kbar_or_kappa": kbar_or_kappa,
        **vars(coefficients(sol)),  # R, T, rho0, j0, v_t
        "force": force,
        "boundary": classify_boundary(sol).classification.value,
    }
    if sol.convention is Convention.TRADITIONAL and regime is Regime.KLEIN_ZONE:
        record["warning"] = (
            "traditional transmitted wave: R exceeds 1 "
            "(historical Klein-paradox bookkeeping)"
        )
    return record


_SCATTER_FIELDS = (
    "regime", "convention", "a", "b", "k", "kbar_or_kappa", "r", "t",
    "R", "T", "rho0", "j0", "v_t", "force", "boundary",
)


def _cmd_scatter(args) -> int:
    setup = PhysicalSetup(args.mass, args.step_height, args.energy)
    record = scatter_record(setup, _convention(args.convention))
    _echo_params(
        "scatter",
        {
            "mass_energy": setup.mass_energy,
            "step_height": setup.step_height,
            "energy": setup.energy,
            "convention": record["convention"],
        },
        args.precision,
    )
    _print_table([(name, record[name]) for name in _SCATTER_FIELDS], args.precision)
    if "warning" in record:
        print(f"warning: {record['warning']}")
    return 0


_SWEEP_COLUMNS = (
    "step_height", "energy", "regime", "transition", "convention", "a",
    "b_re", "b_im", "k", "kbar_or_kappa", "r_re", "r_im", "t_re", "t_im",
    "R", "T", "rho0", "j0", "v_t", "force", "boundary",
)


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _cmd_sweep(args) -> int:
    if args.points < 2:
        raise ValueError("sweep needs at least 2 points")
    if not (abs(args.start) < _INF and abs(args.stop) < _INF):
        raise ValueError(
            f"sweep range must be finite, got [{args.start}, {args.stop}]"
        )
    if not args.start < args.stop:
        raise ValueError("empty sweep range: --from must be below --to")
    if args.stop - args.start == _INF:
        raise ValueError(
            f"sweep range [{args.start}, {args.stop}] too wide: "
            "--to - --from overflows"
        )
    if args.vary == "step-height" and args.energy is None:
        raise ValueError("varying the step height needs a fixed --energy")
    if args.vary == "energy" and args.step_height is None:
        raise ValueError("varying the energy needs a fixed --step-height")
    values = [
        args.start + i * (args.stop - args.start) / (args.points - 1)
        for i in range(args.points)
    ]
    conv = _convention(args.convention)
    rows = []
    previous_regime = None
    for value in values:
        if args.vary == "step-height":
            setup = PhysicalSetup(args.mass, value, args.energy)
        else:
            setup = PhysicalSetup(args.mass, args.step_height, value)
        record = scatter_record(setup, conv)
        record["transition"] = int(
            previous_regime is not None and record["regime"] != previous_regime
        )
        previous_regime = record["regime"]
        rows.append(record)
    fixed_name, fixed_value = (
        ("energy", args.energy)
        if args.vary == "step-height"
        else ("step_height", args.step_height)
    )
    _echo_params(
        "sweep",
        {
            "vary": args.vary,
            "from": args.start,
            "to": args.stop,
            "points": args.points,
            "mass_energy": args.mass,
            fixed_name: fixed_value,
            "convention": args.convention,
            "out": args.out,
        },
        args.precision,
    )
    lines = [",".join(_SWEEP_COLUMNS)]
    for record in rows:
        b = complex(record["b"])
        r = complex(record["r"])
        t = complex(record["t"])
        cells = {
            **record,
            "b_re": b.real, "b_im": b.imag,
            "r_re": r.real, "r_im": r.imag,
            "t_re": t.real, "t_im": t.imag,
        }
        lines.append(",".join(_csv_cell(cells[c]) for c in _SWEEP_COLUMNS))
    Path(args.out).write_text("\n".join(lines) + "\n", newline="\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_limit(args) -> int:
    conv = _convention(args.convention) or Convention.MAIN
    precision = args.precision
    if args.which == "infinite":
        limit = infinite_potential_limit(args.energy, args.mass)
        _echo_params("limit", {"which": "infinite", "mass_energy": args.mass,
                               "energy": args.energy}, precision)
        _print_table(
            [("a", limit.a), ("b_limit", limit.b_limit), ("R", limit.R),
             ("T", limit.T)],
            precision,
        )
        return 0
    if args.which == "nonrel":
        limit = nonrelativistic_limit(args.energy, args.mass, conv)
        report = classify_boundary(limit)
        _echo_params("limit", {"which": "nonrel", "mass_energy": args.mass,
                               "kinetic_energy": args.energy,
                               "convention": conv.value}, precision)
        _print_table(
            [
                ("kind", limit.kind.value),
                ("wave_number", limit.wave_number),
                ("a_limit", limit.a),
                ("psi0", limit.spinor_at(0.0).upper),
                ("psi_deriv0", limit.nr_derivative_at_origin()),
                ("force", limit.force),
                ("boundary", report.classification.value),
            ],
            precision,
        )
        return 0
    limit = impenetrable_limit(args.energy, args.mass, conv)
    psi0 = limit.spinor_at(0.0)
    forces = ForceReport(
        external_mean=limit.force,
        boundary_mean=momentum_flux_bracket(psi0, args.energy, args.mass),
        nr_boundary_mean=-4.0 * (args.energy - args.mass),
    )
    report = classify_boundary(limit)
    _echo_params("limit", {"which": "impenetrable", "mass_energy": args.mass,
                           "energy": args.energy, "convention": conv.value},
                 precision)
    rows = [
        ("kind", limit.kind.value),
        ("spinor0_upper", psi0.upper),
        ("spinor0_lower", psi0.lower),
        ("R_limit", limit.R_limit),
        ("T_limit", limit.T_limit),
        ("v_t_limit", limit.v_t_limit),
        ("external_force", forces.external_mean),
        ("boundary_force", forces.boundary_mean),
        ("nr_force", forces.nr_boundary_mean),
        ("boundary", report.classification.value),
    ]
    _print_table(rows, precision)
    if not forces.consistent:
        print(
            "warning: external force and boundary quantum force DISAGREE for "
            "this convention (the negative-energy transmitted wave is not "
            "compatible with a perfectly reflecting wall)"
        )
    return 0


def _cmd_wavefunction(args) -> int:
    x_min, x_max = args.range
    conv = _convention(args.convention)
    if args.limit is not None:
        limit = (impenetrable_limit if args.limit == "impenetrable"
                 else nonrelativistic_limit)
        solution = limit(args.energy, args.mass, conv or Convention.MAIN)
        resolved = {"limit": args.limit, "mass_energy": args.mass,
                    "energy": args.energy}
    else:
        if args.step_height is None:
            raise ValueError("provide either --step-height or --limit")
        setup = PhysicalSetup(args.mass, args.step_height, args.energy)
        conv = conv or physical_convention(classify_regime(setup))
        solution = match(kinematics(setup), conv)
        resolved = {"mass_energy": args.mass, "step_height": args.step_height,
                    "energy": args.energy, "convention": conv.value}
    resolved.update({"range": f"[{x_min},{x_max}]", "points": args.points,
                     "out": args.out})
    _echo_params("wavefunction", resolved, args.precision)
    grid = sample(solution, x_min, x_max, args.points)
    write_csv(grid, args.out)
    print(f"wrote {len(grid.xs)} samples to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _echo_params(
        "verify",
        {"suite": args.suite, "seed": args.seed,
         "trials": args.trials if args.trials is not None else "default",
         "output_dir": str(out_dir)},
        args.precision,
    )
    all_passed = True
    for name in names:
        result = run_suite(name, trials=args.trials, seed=args.seed)
        summary_path = out_dir / f"verify_{name}.json"
        summary_path.write_text(
            json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n",
            newline="\n",
        )
        status = "PASS" if result.passed else "FAIL"
        print(
            f"{status} {name}: trials={result.trials} "
            f"max_error={result.max_error:.3e} failures={len(result.failures)} "
            f"summary={summary_path}"
        )
        for failure in result.failures[:10]:
            print(f"  - {failure}")
        all_passed &= result.passed
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=int, default=9,
                        help="significant digits for table display")
    common.add_argument("--output-dir", default=".",
                        help="directory for machine-readable summaries")

    physics = argparse.ArgumentParser(add_help=False)
    physics.add_argument("--energy", type=float, required=True,
                         help="incident energy E (units of mc2 when --mass=1)")
    physics.add_argument("--mass", type=float, default=1.0,
                         help="rest energy mc2 (0 selects the massless formulas)")
    physics.add_argument("--convention", choices=_CONVENTION_CHOICES,
                         default="auto", help="transmitted-wave convention")

    parser = argparse.ArgumentParser(
        prog="diracstep",
        description="1D Dirac step scattering: closed forms, limits, forces, "
                    "and a numerical cross-check oracle.",
    )
    parser.add_argument("--version", action="version",
                        version=f"diracstep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scatter", parents=[common, physics],
                       help="observables for one setup")
    p.add_argument("--step-height", type=float, required=True)
    p.set_defaults(func=_cmd_scatter)

    p = sub.add_parser("sweep", parents=[common],
                       help="sweep a parameter and write a CSV")
    p.add_argument("--vary", choices=("step-height", "energy"), required=True)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--energy", type=float, default=None,
                   help="fixed energy when varying the step height")
    p.add_argument("--step-height", type=float, default=None,
                   help="fixed step height when varying the energy")
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--convention", choices=_CONVENTION_CHOICES, default="auto")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("limit", parents=[common, physics],
                       help="closed-form limit report")
    p.add_argument("--which", choices=("impenetrable", "nonrel", "infinite"),
                   required=True)
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("wavefunction", parents=[common, physics],
                       help="sample a solution on a grid and write CSV")
    p.add_argument("--step-height", type=float, default=None)
    p.add_argument("--limit", choices=("impenetrable", "nonrel"), default=None)
    p.add_argument("--range", type=float, nargs=2, default=(-5.0, 5.0),
                   metavar=("XMIN", "XMAX"))
    p.add_argument("--points", type=int, default=501)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_wavefunction)

    p = sub.add_parser("verify", parents=[common],
                       help="run randomized verification suites")
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(func=_cmd_verify)
    return parser


def _check_counts(args) -> None:
    """Refuse unusable counts before any command writes output."""
    if args.precision < 0:
        raise ValueError(f"--precision must be >= 0, got {args.precision}")
    if getattr(args, "trials", None) is not None and args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        return args.func(args)
    except (ValueError, EdgePointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

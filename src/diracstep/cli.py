"""Command-line interface.

Subcommands: ``scatter`` (one setup, full observable table), ``sweep``
(CSV over a parameter range), ``limit`` (closed-form limit reports),
``wavefunction`` (grid samples to CSV + metadata sidecar) and ``verify``
(randomized verification suites with a JSON summary).

Energies are in units of mc² when --mass is left at its default of 1;
--mass 0 switches to an arbitrary energy unit with the massless formulas.
Exit codes: 0 success, 1 verification failure, 2 usage/parameter error.

``gridio``, ``verify`` and ``json`` are imported inside the commands that
use them, so a one-shot ``scatter`` or ``limit`` process loads neither the
CSV writer nor the verification suites and the oracle they run.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__, table
from .core import PhysicalSetup, Regime, incident_wave
from .limits import (_nr_wall_force, impenetrable_limit, infinite_potential_limit,
                     nonrelativistic_limit)
from .matching import Convention
from .observables import observe

_CONVENTION_CHOICES = sorted(["auto", *(conv.value for conv in Convention)])
_INF = float("inf")
_KLEIN_PARADOX = ("warning: traditional transmitted wave: R exceeds 1 "
                  "(historical Klein-paradox bookkeeping)")
# verify.SUITES in its order, written here so that the parser needs no verify;
# a test keeps the two equal.
_SUITES = ("conservation", "closed-vs-oracle", "limits")


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


_SCATTER_FIELDS = (
    "regime", "convention", "a", "b", "k", "kbar_or_kappa", "r", "t",
    "R", "T", "rho0", "j0", "v_t", "force", "boundary",
)


def _cmd_scatter(args) -> int:
    record = table.record(PhysicalSetup(args.mass, args.step_height, args.energy),
                          _convention(args.convention))
    for part in ("b", "r", "t"):
        record[part] = complex(record[f"{part}_re"], record[f"{part}_im"])
    _echo_params("scatter", {"mass_energy": args.mass, "step_height": args.step_height,
                             "energy": args.energy, "convention": record["convention"]},
                 args.precision)
    _print_table([(name, record[name]) for name in _SCATTER_FIELDS], args.precision)
    if (record["convention"] == Convention.TRADITIONAL.value
            and record["regime"] == Regime.KLEIN_ZONE.value):
        print(_KLEIN_PARADOX)
    return 0


_SWEEP_COLUMNS = (
    "step_height", "energy", "regime", "transition", "convention", "a",
    "b_re", "b_im", "k", "kbar_or_kappa", "r_re", "r_im", "t_re", "t_im",
    "R", "T", "rho0", "j0", "v_t", "force", "boundary",
)


def _cmd_sweep(args) -> int:
    from .gridio import _write_rows

    if args.points < 2:
        raise ValueError("sweep needs at least 2 points")
    if not (abs(args.start) < _INF and abs(args.stop) < _INF):
        raise ValueError(
            f"sweep range must be finite, got [{args.start}, {args.stop}]"
        )
    if not args.start < args.stop:
        raise ValueError("empty sweep range: --from must be below --to")
    span, steps = args.stop - args.start, args.points - 1
    if span == _INF:
        raise ValueError(
            f"sweep range [{args.start}, {args.stop}] too wide: "
            "--to - --from overflows"
        )
    if args.vary == "step-height":
        fixed, fixed_value, varied_value = "energy", args.energy, args.step_height
    else:
        fixed, fixed_value, varied_value = "step-height", args.step_height, args.energy
    if fixed_value is None:
        raise ValueError(f"varying the {args.vary.replace('-', ' ')} needs a fixed --{fixed}")
    if varied_value is not None:
        raise ValueError(f"--{args.vary} is varied from --from to --to and takes no value")
    # i·span may overflow where i·span/steps does not; an exact power-of-two scale avoids it.
    scale = 2.0 ** -steps.bit_length() if steps * span == _INF else 1.0
    values = args.start + np.arange(args.points) * (span * scale) / steps / scale
    step_heights, energies = (values, fixed_value) if fixed == "energy" else (fixed_value, values)
    try:
        columns = table.scatter_table(args.mass, step_heights, energies,
                                      _convention(args.convention))
    except ValueError as exc:  # a refused row, marked by scatter_table
        v0, e = np.broadcast_arrays(step_heights, energies)
        raise ValueError(f"row {exc.row} (V0={float(v0[exc.row])}, E={float(e[exc.row])}): "
                         f"{exc}; {exc.refused} of {args.points} rows refused") from None
    _echo_params("sweep", {"vary": args.vary, "from": args.start, "to": args.stop,
                           "points": args.points, "mass_energy": args.mass,
                           fixed.replace("-", "_"): fixed_value, "convention": args.convention,
                           "out": args.out}, args.precision)
    try:
        _write_rows(Path(args.out), ",".join(_SWEEP_COLUMNS),
                    [columns[name] for name in _SWEEP_COLUMNS])
    except OSError as exc:
        raise OSError(f"cannot write sweep to {args.out}: {exc}") from exc
    print(f"wrote {args.points} rows to {args.out}")
    return 0


def _cmd_limit(args) -> int:
    conv = _convention(args.convention) or Convention.MAIN
    e, m, warning = args.energy, args.mass, None
    if args.which == "infinite":
        obs = infinite_potential_limit(e, m, conv)
        rows = [("a", incident_wave(e, m)[1]), ("b_limit", -1.0), ("R", obs.R), ("T", obs.T)]
        if conv is Convention.TRADITIONAL:
            warning = _KLEIN_PARADOX
    elif args.which == "nonrel":
        limit = nonrelativistic_limit(e, m, conv)
        obs = observe(limit)
        rows = [("kind", limit.kind.value), ("wave_number", limit.wave_number),
                ("a_limit", limit.a), ("psi0", limit.spinor_at(0.0).upper),
                ("psi_deriv0", limit.nr_derivative_at_origin()), ("force", obs.force),
                ("boundary", obs.boundary.value)]
    else:
        limit = impenetrable_limit(e, m, conv)
        psi0, obs = limit.spinor_at(0.0), observe(limit)
        rows = [("kind", limit.kind.value), ("spinor0_upper", psi0.upper),
                ("spinor0_lower", psi0.lower), ("R_limit", obs.R), ("T_limit", obs.T),
                ("v_t_limit", obs.v_t), ("external_force", obs.force),
                ("boundary_force", obs.boundary_force), ("nr_force", _nr_wall_force(e, m)),
                ("boundary", obs.boundary.value)]
        # The two routes agree to a few roundings, relative to the forces
        # themselves, except under the negative-energy wave.
        if abs(obs.force - obs.boundary_force) > 8 * 2.0**-52 * max(abs(obs.force),
                                                                    abs(obs.boundary_force)):
            warning = ("warning: external force and boundary quantum force DISAGREE for "
                       "this convention (the negative-energy transmitted wave is not "
                       "compatible with a perfectly reflecting wall)")
    energy = "kinetic_energy" if args.which == "nonrel" else "energy"
    _echo_params("limit", {"which": args.which, "mass_energy": m, energy: e,
                           "convention": conv.value}, args.precision)
    _print_table(rows, args.precision)
    if warning:
        print(warning)
    return 0


def _cmd_wavefunction(args) -> int:
    from .gridio import sample, write_csv

    x_min, x_max = args.range
    conv = _convention(args.convention)
    if args.limit is not None:
        limit = (impenetrable_limit if args.limit == "impenetrable"
                 else nonrelativistic_limit)
        solution = limit(args.energy, args.mass, conv or Convention.MAIN)
        resolved = {"limit": args.limit, "mass_energy": args.mass,
                    "energy": args.energy}
    else:
        solution = table.solve(PhysicalSetup(args.mass, args.step_height, args.energy),
                               conv)
        resolved = {"mass_energy": args.mass, "step_height": args.step_height,
                    "energy": args.energy, "convention": solution.convention.value}
    resolved.update({"range": f"[{x_min},{x_max}]", "points": args.points,
                     "out": args.out})
    grid = sample(solution, x_min, x_max, args.points)
    _echo_params("wavefunction", resolved, args.precision)
    write_csv(grid, args.out)
    print(f"wrote {len(grid._xs)} samples to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    import json

    from .verify import run_suite

    names = _SUITES if args.suite == "all" else (args.suite,)
    out_dir = Path(args.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out_dir}: {exc}") from exc
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
        try:
            summary_path.write_text(
                json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n",
                newline="\n",
            )
        except OSError as exc:
            raise OSError(f"cannot write verify summary to {summary_path}: {exc}") from exc
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


class _Parser(argparse.ArgumentParser):
    """An argument parser that is its own test of a negative number: every
    argument that float() reads, such as -1e-3, is a value and not an option.
    argparse's own pattern, before Python 3.13, misses exponents."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self

    @staticmethod
    def match(arg: str) -> bool:
        try:
            float(arg)
        except ValueError:
            return False
        return True


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process and shared by every
    ``main`` call: parsing leaves it as it was."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=int, default=9,
                        help="significant digits for table display")

    physics = argparse.ArgumentParser(add_help=False)
    physics.add_argument("--energy", type=float, required=True,
                         help="incident energy E (units of mc2 when --mass=1)")
    physics.add_argument("--mass", type=float, default=1.0,
                         help="rest energy mc2 (0 selects the massless formulas)")
    physics.add_argument("--convention", choices=_CONVENTION_CHOICES,
                         default="auto", help="transmitted-wave convention")

    parser = _Parser(
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
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--step-height", type=float)
    target.add_argument("--limit", choices=("impenetrable", "nonrel"))
    p.add_argument("--range", type=float, nargs=2, default=(-5.0, 5.0),
                   metavar=("XMIN", "XMAX"))
    p.add_argument("--points", type=int, default=501)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_wavefunction)

    p = sub.add_parser("verify", parents=[common],
                       help="run randomized verification suites")
    p.add_argument("--suite", choices=(*_SUITES, "all"), default="all")
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--output-dir", default=".",
                   help="directory for the JSON summaries")
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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help and --version: 0; a usage error: 2
        return exc.code
    try:
        _check_counts(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        if getattr(args, "points", None) is None:
            raise
        print(f"error: {args.points} points do not fit in memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

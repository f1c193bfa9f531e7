"""Command line: JSON scenario in, derived numbers / CSV tables / JSON reports out.

Exit codes: 0 success, 2 bad input or configuration, 3 solver did not converge.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

# Each cmd_* imports the layers it runs; only `oracle` loads numpy, through the solver gpe.
from .errors import BecnloError, ConvergenceError, ValidationError
from .params import GRID_SPAN_FACTOR  # noqa: F401  (public: span of the subcommands' host grid)
from .params import (
    DEFAULT_GRID_POINTS, SystemConfig, check_conditions, check_storage_time, derive_scales,
    energy_shift, load_config, sodium_reference_config, tf_chemical_potential,
)

GRID_POINTS_ENV = "BECNLO_GRID_POINTS"


def _fmt(x) -> str:
    return f"{x:.9g}"


def _resolve_grid_points(args) -> int:
    if args.grid_points is not None:
        return args.grid_points
    raw = os.environ.get(GRID_POINTS_ENV)
    if raw is None:
        return DEFAULT_GRID_POINTS
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"{GRID_POINTS_ENV} must be an integer, got {raw!r}") from exc


def _load(args) -> SystemConfig:
    if args.config is None:
        return sodium_reference_config()
    return load_config(args.config)


def cmd_units(args) -> int:
    config = _load(args)
    scales = derive_scales(config)
    mu = tf_chemical_potential(config, scales)
    flags = check_conditions(config, scales, mu)
    print(f"d = {_fmt(scales.d)} m")
    print(f"e_trap = {_fmt(scales.e_trap)} J")
    print(f"u11 = {_fmt(scales.u11)} J*m^3")
    print(f"u22 = {_fmt(scales.u22)} J*m^3")
    print(f"u12 = {_fmt(scales.u12)} J*m^3")
    print(f"eff_trap_factor = {_fmt(scales.eff_trap_factor)}")
    print(f"omega_tilde = {_fmt(scales.omega_tilde)} rad/s")
    print(f"s = {_fmt(scales.s)} m")
    print(f"a22_tilde = {_fmt(scales.a22_tilde)} m")
    print(f"u22_tilde = {_fmt(scales.u22_tilde)} J*m^3")
    print(f"omega_nl = {_fmt(scales.omega_nl)} rad/s")
    print(f"mu = {_fmt(mu)} J ({_fmt(mu / scales.e_trap)} e_trap)")
    print(f"tf_ratio = {_fmt(flags.tf_ratio)} (ok: {flags.tf_ok})")
    print(f"diluteness = {_fmt(flags.diluteness)} (ok: {flags.dilute_ok})")
    return 0


def cmd_phase(args) -> int:
    config = _load(args)
    scales = derive_scales(config)
    shift = energy_shift(args.n, scales)
    phase = shift * check_storage_time(args.time) / scales.hbar
    print(f"n = {args.n}")
    print(f"delta_e = {_fmt(shift)} J")
    print(f"phase = {_fmt(phase)} rad")
    print(f"phase_mod_2pi = {_fmt(phase % (2.0 * math.pi))} rad")
    return 0


def _parse_amps(text: str) -> list:
    try:
        values = [complex(tok.strip()) for tok in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"cannot parse amplitudes {text!r}") from exc
    if len(values) != 3:
        raise ValidationError(f"need exactly three amplitudes c0,c1,c2, got {len(values)}")
    return values


def cmd_gate(args) -> int:
    from .stored_mode import FockSuperposition, evolve, gate_fidelity, ns_gate_target, ns_gate_time

    config = _load(args)
    scales = derive_scales(config)
    state = FockSuperposition.normalized(_parse_amps(args.amps))
    times = ns_gate_time(scales)
    evolved = evolve(state, times.gate_time, scales)
    fidelity = gate_fidelity(evolved, ns_gate_target(state))
    print(f"gate_time = {_fmt(times.gate_time)} s ({_fmt(times.gate_time / 60.0)} min)")
    print(f"revival_time = {_fmt(times.revival_time)} s ({_fmt(times.revival_time / 60.0)} min)")
    print(f"fidelity = {_fmt(fidelity)}")
    return 0


def cmd_lifetime(args) -> int:
    from .host_tf import tf_host
    from .lifetime import estimate_lifetime

    config = _load(args)
    scales = derive_scales(config)
    host = tf_host(config, scales, _resolve_grid_points(args))
    estimate = estimate_lifetime(config, scales, host)
    print(f"loss_rate_l = {_fmt(estimate.loss_rate_l)} J")
    print(f"tau = {_fmt(estimate.tau)} s")
    return 0


def cmd_validity(args) -> int:
    from .validity import validity_report

    config = _load(args)
    report = validity_report(config, grid_points=_resolve_grid_points(args))
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


def _write(path, text) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"{path}: cannot write output ({exc})") from exc


def _write_csv(path, columns) -> int:
    names = list(columns)
    arrays = [columns[k] for k in names]
    lines = [",".join(names)]
    for i in range(len(arrays[0])):
        lines.append(",".join(_fmt(a[i]) for a in arrays))
    _write(path, "\n".join(lines) + "\n")
    return len(arrays[0])


def cmd_figures(args) -> int:
    from .validity import figure_data

    config = _load(args)
    columns = figure_data(
        config, args.fig, n_rows=args.rows, grid_points=_resolve_grid_points(args)
    )
    out = args.out if args.out else f"fig{args.fig}.csv"
    rows = _write_csv(out, columns)
    print(f"wrote {out} ({rows} rows)")
    return 0


def cmd_oracle(args) -> int:
    from .gpe import compare_tf_vs_gpe, solve_stored_in_host, virial_residual

    config = _load(args)
    grid_points = _resolve_grid_points(args)
    if args.idealized and not args.stored:
        raise ValidationError("--idealized applies only with --stored")
    if args.stored:
        comparison = solve_stored_in_host(
            config, idealized=args.idealized, grid_points=grid_points
        )
        solution = comparison.solution
        payload = {
            "overlap": comparison.overlap,
            "mode_length_m": comparison.mode_length,
            "mu_J": solution.mu,
            "residual": solution.residual,
            "iterations": solution.iterations,
        }
        if args.idealized:  # the virial identity holds only in a harmonic potential
            payload["virial_residual"] = virial_residual(solution)
    else:
        payload = compare_tf_vs_gpe(config, grid_points=grid_points).to_dict()
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        _write(args.out, text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON scenario file (default: bundled sodium)")
    gridded = argparse.ArgumentParser(add_help=False, parents=[common])
    gridded.add_argument(
        "--grid-points",
        type=int,
        metavar="N",
        help=f"radial grid size (default {DEFAULT_GRID_POINTS}, or ${GRID_POINTS_ENV})",
    )
    parser = argparse.ArgumentParser(
        prog="becnlo",
        description="Collisional phase shifts of photon Fock states stored in a two-component condensate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("units", parents=[common], help="derived scales and regime checks")
    p.set_defaults(func=cmd_units)

    p = sub.add_parser("phase", parents=[common], help="Fock-state energy shift and phase after storage")
    p.add_argument("--n", type=int, required=True, help="occupation number")
    p.add_argument("--time", "--t", type=float, required=True, help="storage time in s")
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("gate", parents=[common], help="sign-gate times and fidelity for c0,c1,c2")
    p.add_argument(
        "--amps",
        default="1,1,1",
        help="comma-separated complex amplitudes, normalized for you (default 1,1,1)",
    )
    p.set_defaults(func=cmd_gate)

    p = sub.add_parser("lifetime", parents=[gridded], help="loss rate and lifetime of the stored mode")
    p.set_defaults(func=cmd_lifetime)

    p = sub.add_parser("validity", parents=[gridded], help="approximation checks as JSON")
    p.set_defaults(func=cmd_validity)

    p = sub.add_parser("figures", parents=[gridded], help="energy/density budget tables as CSV")
    p.add_argument("--fig", type=int, choices=(2, 3, 4), required=True, help="which table")
    p.add_argument("--rows", type=int, default=512, help="number of radii (default 512)")
    p.add_argument("--out", metavar="PATH", help="output file (default fig<N>.csv)")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser(
        "oracle", parents=[gridded], help="independent ground-state solve vs the closed forms"
    )
    p.add_argument("--stored", action="store_true", help="solve the stored component instead of the host")
    p.add_argument(
        "--idealized",
        action="store_true",
        help="with --stored: drop the cloud edge, keep only the cancelled trap",
    )
    p.add_argument("--out", metavar="PATH", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BecnloError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

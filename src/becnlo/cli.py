"""Command line: JSON scenario in, derived numbers / CSV tables / JSON reports out.

Exit codes: 0 success, 2 bad input or configuration, 3 solver did not converge.
The options are parsed from the table COMMANDS, not by argparse: argparse and its
gettext and locale imports, and building its parsers, cost more than `units` computes.
"""

from __future__ import annotations

import math
import sys
from types import SimpleNamespace

# Each cmd_* imports the layers it runs; only `oracle` loads the solver gpe, and no command loads numpy.
from .errors import BecnloError, ConvergenceError, ValidationError, _pointwise
from .params import GRID_SPAN_FACTOR  # noqa: F401  (public: bench/worker.py reads the oracle's span)
from .params import (
    DEFAULT_GRID_POINTS, HBAR, SystemConfig, check_conditions, check_storage_time, derive_scales,
    energy_shift, load_config, sodium_reference_config, tf_chemical_potential,
)


def _fmt(x) -> str:
    return f"{x:.9g}"


def _load(args) -> SystemConfig:
    if args.config is None:
        return sodium_reference_config()
    return load_config(args.config)


def cmd_units(config, args) -> int:
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


def cmd_phase(config, args) -> int:
    scales = derive_scales(config)
    shift = energy_shift(args.n, scales)
    time = check_storage_time(args.time)
    phase = _pointwise(lambda t: shift * t / HBAR, time, what=f"the phase after {time:g} s")
    print(f"n = {args.n}")
    print(f"delta_e = {_fmt(shift)} J")
    print(f"phase = {_fmt(phase)} rad")
    print(f"phase_mod_2pi = {_fmt(phase % (2.0 * math.pi))} rad")
    return 0


def _parse_amps(text: str) -> list:
    try:
        return [complex(tok.strip()) for tok in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"cannot parse amplitudes {text!r}") from exc


def cmd_gate(config, args) -> int:
    from .stored_mode import FockSuperposition, evolve, gate_fidelity, ns_gate_target, ns_gate_time

    scales = derive_scales(config)
    state = FockSuperposition.normalized(_parse_amps(args.amps))
    times = ns_gate_time(scales)
    evolved = evolve(state, times.gate_time, scales)
    fidelity = gate_fidelity(evolved, ns_gate_target(state))
    print(f"gate_time = {_fmt(times.gate_time)} s ({_fmt(times.gate_time / 60.0)} min)")
    print(f"revival_time = {_fmt(times.revival_time)} s ({_fmt(times.revival_time / 60.0)} min)")
    print(f"fidelity = {_fmt(fidelity)}")
    return 0


def cmd_lifetime(config, args) -> int:
    from .host_tf import tf_host
    from .lifetime import estimate_lifetime

    scales = derive_scales(config)
    host = tf_host(config, scales)
    estimate = estimate_lifetime(config, scales, host)
    print(f"loss_rate_l = {_fmt(estimate.loss_rate_l)} J")
    print(f"tau = {_fmt(estimate.tau)} s")
    return 0


def cmd_validity(config, args) -> int:
    import json

    from .validity import validity_report

    report = validity_report(config)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


def _write(path, text) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"{path}: cannot write output ({exc})") from exc


def _write_csv(path, columns) -> int:
    rows = list(zip(*columns.values()))
    row_format = ",".join(["%.9g"] * len(columns))  # the bytes of _fmt, one % per row
    _write(path, "\n".join([",".join(columns), *(row_format % row for row in rows)]) + "\n")
    return len(rows)


def cmd_figures(config, args) -> int:
    from .validity import figure_data

    columns = figure_data(config, args.fig, n_rows=args.rows)
    out = args.out if args.out else f"fig{args.fig}.csv"
    rows = _write_csv(out, columns)
    print(f"wrote {out} ({rows} rows)")
    return 0


def cmd_oracle(config, args) -> int:
    import json

    from .gpe import compare_tf_vs_gpe, solve_stored_in_host

    if args.idealized and not args.stored:
        raise ValidationError("--idealized applies only with --stored")
    if args.stored:
        report = solve_stored_in_host(config, idealized=args.idealized, grid_points=args.grid_points)
    else:
        report = compare_tf_vs_gpe(config, grid_points=args.grid_points)
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if args.out:
        _write(args.out, text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


# option -> (attribute, type (None for a flag, a tuple for a choice of ints), default or REQUIRED, help)
REQUIRED = object()
CONFIG_OPTION = {"--config": ("config", str, None, "JSON scenario file (default: bundled sodium)")}
ALIASES = {"--t": "--time"}
HELP = ("-h", "--help")

# subcommand -> (handler, help, its own options; every command also takes CONFIG_OPTION)
COMMANDS = {
    "units": (cmd_units, "derived scales and regime checks", {}),
    "phase": (cmd_phase, "Fock-state energy shift and phase after storage", {
        "--n": ("n", int, REQUIRED, "occupation number"),
        "--time": ("time", float, REQUIRED, "storage time in s"),
    }),
    "gate": (cmd_gate, "sign-gate times and fidelity for c0,c1,c2", {
        "--amps": (
            "amps", str, "1,1,1", "comma-separated complex amplitudes, normalized for you (default 1,1,1)"
        ),
    }),
    "lifetime": (cmd_lifetime, "loss rate and lifetime of the stored mode", {}),
    "validity": (cmd_validity, "approximation checks as JSON", {}),
    "figures": (cmd_figures, "energy/density budget tables as CSV", {
        "--fig": ("fig", (2, 3, 4), REQUIRED, "which table"),
        "--rows": ("rows", int, 512, "number of radii (default 512)"),
        "--out": ("out", str, None, "output file (default fig<N>.csv)"),
    }),
    "oracle": (cmd_oracle, "independent ground-state solve vs the closed forms", {
        "--grid-points": (
            "grid_points", int, DEFAULT_GRID_POINTS, f"radial grid size (default {DEFAULT_GRID_POINTS})"
        ),
        "--stored": ("stored", None, False, "solve the stored component instead of the host"),
        "--idealized": (
            "idealized", None, False, "with --stored: drop the cloud edge, keep only the cancelled trap"
        ),
        "--out": ("out", str, None, "write the JSON report here instead of stdout"),
    }),
}


def _options(command) -> dict:
    return {**CONFIG_OPTION, **COMMANDS[command][2]}


def _with_metavar(name, attr, kind) -> str:
    if isinstance(kind, tuple):
        return name + " {" + ",".join(map(str, kind)) + "}"
    return name if kind is None else f"{name} {attr.upper()}"


def _usage(command) -> str:
    if command is None:
        return "usage: becnlo [-h] {" + ",".join(COMMANDS) + "} ..."
    words = ["usage: becnlo", command, "[-h]"]
    for option, (attr, kind, default, _) in _options(command).items():
        word = _with_metavar(option, attr, kind)
        words.append(word if default is REQUIRED else f"[{word}]")
    return " ".join(words)


def _fail(command, message):
    prog = "becnlo" if command is None else f"becnlo {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _help(command):
    if command is None:
        summary = "Collisional phase shifts of photon Fock states stored in a two-component condensate"
        heading, rows = "commands:", [(name, entry[1]) for name, entry in COMMANDS.items()]
    else:
        summary, heading = COMMANDS[command][1], "options:"
        rows = [(", ".join(HELP), "show this help and exit")]
        for option, (attr, kind, _, text) in _options(command).items():
            names = [option, *(alias for alias, target in ALIASES.items() if target == option)]
            rows.append((", ".join(_with_metavar(name, attr, kind) for name in names), text))
    width = max(len(left) for left, _ in rows) + 2
    print(_usage(command), "", summary, "", heading, sep="\n")
    print("\n".join(f"  {left:<{width}}{text}" for left, text in rows))
    raise SystemExit(0)


def parse_args(argv):
    """The namespace argparse would give for argv, plus `func`, the subcommand's handler.

    Option names are exact (no prefix abbreviations). A usage error writes the usage and a message
    naming the offending argument to stderr and raises SystemExit(2); -h/--help exits 0.
    """
    if not argv:
        _fail(None, "the following arguments are required: command")
    command, *rest = argv
    if command in HELP:
        _help(None)
    if command not in COMMANDS:
        _fail(None, f"argument command: invalid choice: {command!r} (choose from {', '.join(COMMANDS)})")
    handler, options = COMMANDS[command][0], _options(command)
    values = {attr: default for attr, _, default, _ in options.values()}
    tokens = iter(rest)
    for token in tokens:
        if token in HELP:
            _help(command)
        option, has_value, text = token.partition("=")
        spec = options.get(ALIASES.get(option, option))
        if spec is None:
            _fail(command, f"unrecognized arguments: {token}")
        attr, kind, _, _ = spec
        if kind is None:
            if has_value:
                _fail(command, f"argument {option}: ignored explicit argument {text!r}")
            values[attr] = True
            continue
        if not has_value:
            text = next(tokens, None)
            if text is None:
                _fail(command, f"argument {option}: expected one argument")
        convert = int if isinstance(kind, tuple) else kind
        try:
            value = convert(text)
        except ValueError:
            _fail(command, f"argument {option}: invalid {convert.__name__} value: {text!r}")
        if isinstance(kind, tuple) and value not in kind:
            choices = ", ".join(map(str, kind))
            _fail(command, f"argument {option}: invalid choice: {text!r} (choose from {choices})")
        values[attr] = value
    missing = [option for option, (attr, *_) in options.items() if values[attr] is REQUIRED]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(func=handler, **values)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(_load(args), args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BecnloError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

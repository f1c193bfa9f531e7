"""Child processes of the becnlo benchmark; run.py starts them.

    worker.py setup WORKLOAD SEED          import becnlo and build the inputs
    worker.py scan SEED SECONDS [SPANS]    closed-form parameter scan
    worker.py cli SPANS ARG...             traced `becnlo ARG...`
    worker.py sweep SPANS                  traced host solves at three grid sizes

Each imports becnlo from the checkout's src/ (run.py sets PYTHONPATH) and
exits with code 3 if it got another copy.  `scan` prints one JSON line with
its counts and per-round times; `sweep` prints the three oracle reports as JSON.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# param_scan: scenarios per seed, visited in this order in every round.
SCAN_SCENARIOS = 256
SWEEP_POINTS = (512, 1025, 4096)


def import_becnlo():
    import becnlo

    if Path(becnlo.__file__).resolve().parent != SRC / "becnlo":
        print(f"error: imported becnlo from {becnlo.__file__}, want {SRC / 'becnlo'}", file=sys.stderr)
        sys.exit(3)
    return becnlo


def make_scenarios(seed: int, count: int = SCAN_SCENARIOS) -> list:
    """Random stable, trapped, Thomas-Fermi scenarios and gate amplitudes.

    Ranges: mass 1e-26..1.5e-25 kg (Li to Rb), a11 2..6 nm, a12/a11
    0.85..0.99 (trapped: a12 < a11), a22 = (a12^2/a11)(1 + 0.05..0.5)
    (stable: a11 a22 > a12^2), Im a12 -2e-9..-1e-11 m, trap 20..200 Hz,
    n_host 1e5..1e7 (log-uniform), n_stored_max 1..20.  Over these ranges
    R/d >= 3.1 and the peak n1 a11^3 <= 7e-4, inside the regime checks.
    """
    rng = random.Random(seed)
    scenarios = []
    for _ in range(count):
        a11 = rng.uniform(2e-9, 6e-9)
        a12 = a11 * rng.uniform(0.85, 0.99)
        p = {
            "mass_kg": rng.uniform(1.0e-26, 1.5e-25),
            "a11_m": a11,
            "a22_m": a12 * a12 / a11 * (1.0 + rng.uniform(0.05, 0.5)),
            "a12_m": a12,
            "im_a12_m": -rng.uniform(1e-11, 2e-9),
            "omega_rad_s": 2.0 * math.pi * rng.uniform(20.0, 200.0),
            "n_host": int(10.0 ** rng.uniform(5.0, 7.0)),
            "n_stored_max": rng.randint(1, 20),
        }
        amps = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
        scenarios.append((p, amps))
    return scenarios


def build_inputs(becnlo, workload: str, seed: int):
    if workload != "param_scan":
        return []
    return [(p, amps, becnlo.config_from_dict(p)) for p, amps in make_scenarios(seed)]


def scan_op(b, config, amps, gate_span):
    """One scenario through every closed-form layer, as the CLI commands use them.

    The host grid is the one `becnlo lifetime` builds: the CLI's span factor
    and default size.
    """
    scales = b.derive_scales(config)
    mu = b.tf_chemical_potential(config, scales)
    flags = b.check_conditions(config, scales, mu)
    grid = b.RadialGrid(b.cli.GRID_SPAN_FACTOR * b.tf_radius(config, mu), b.cli.DEFAULT_GRID_POINTS)
    host = b.tf_density(config, scales, mu, grid)
    loss = b.estimate_lifetime(config, scales, host)
    report = b.validity_report(config)
    figures = {fig: b.figure_data(config, fig) for fig in (2, 3, 4)}
    with gate_span:
        times = b.ns_gate_time(scales)
        state = b.FockSuperposition.normalized(amps)
        fidelity = b.gate_fidelity(b.evolve(state, times.gate_time, scales), b.ns_gate_target(state))
        shift = b.energy_shift(2, scales)
    return scales, mu, flags, host, loss, report, figures, times, fidelity, shift


def check_scan(p, out) -> list:
    import checks  # numpy; imported late so that traced CLI processes import only what becnlo does

    scales, mu, flags, host, loss, report, figures, times, fidelity, shift = out
    rtol = checks.FLOAT_RTOL
    want = checks.expected(p)
    values = {k: getattr(scales, k) for k in ("d", "omega_tilde", "s", "a22_tilde", "omega_nl")}
    problems = checks.check_scales({**values, "mu": mu}, p, rtol)
    if not (flags.tf_ok and flags.dilute_ok):
        problems.append(f"scenario left the Thomas-Fermi, dilute regime: {flags}")
    checks.expect_close(problems, "tf_ratio", flags.tf_ratio, want["radius"] / want["d"], rtol)
    checks.expect_close(problems, "host.radius", host.radius, want["radius"], rtol)
    problems += checks.check_lifetime({"loss_rate_l": loss.loss_rate_l, "tau": loss.tau}, p, checks.LIFETIME_RTOL)
    problems += checks.check_validity(report.to_dict(), p, rtol)
    for fig, columns in figures.items():
        problems += checks.check_figure(columns, fig, p, checks.FIGURE_ROWS, rtol)
    gate = {"gate_time": times.gate_time, "revival_time": times.revival_time, "fidelity": fidelity}
    problems += checks.check_gate(gate, p, rtol)
    problems += checks.check_phase({"delta_e": shift}, p, 2, None, rtol)
    return problems


def run_scan(seed: int, seconds: float, spans_path: str | None) -> dict:
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer(keep_ops=SCAN_SCENARIOS)
    b = import_becnlo()
    import becnlo.cli  # noqa: F401  (scan_op reads the CLI's grid defaults)

    inputs = build_inputs(b, "param_scan", seed)
    if tracer:
        tracer.install()
    attempted = 0
    failed = 0
    rounds = []  # per round, per scenario: [seconds in scan_op or None if it failed, seconds with the check]
    problems = []
    start = time.perf_counter()
    while True:
        times = []
        for index, (p, amps, config) in enumerate(inputs):
            gate_span = tracer.span("stored_mode.gate") if tracer else contextlib.nullcontext()
            if tracer:
                tracer.op = attempted
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = scan_op(b, config, amps, gate_span)
            except b.BecnloError as exc:
                failed += 1
                problems.append(f"seed {seed} scenario {index}: {exc!r}")
                times.append([None, time.perf_counter() - t0])
                continue
            op_seconds = time.perf_counter() - t0
            problems += [f"seed {seed} scenario {index}: {msg}" for msg in check_scan(p, out)]
            times.append([op_seconds, time.perf_counter() - t0])
        rounds.append(times)
        if time.perf_counter() - start >= seconds:
            break
    if tracer:
        tracer.dump(spans_path)
    return {
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "problems": problems[:20],
        "n_problems": len(problems),
        "traced_ops": min(attempted, SCAN_SCENARIOS) if tracer else 0,
    }


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        build_inputs(import_becnlo(), argv[1], int(argv[2]))
        return 0
    if mode == "scan":
        result = run_scan(int(argv[1]), float(argv[2]), argv[3] if len(argv) > 3 else None)
        print(json.dumps(result))
        return 0
    from tracer import Tracer

    tracer = Tracer()
    b = import_becnlo()
    tracer.install()
    if mode == "cli":
        from becnlo import cli

        try:
            return cli.main(argv[2:])
        finally:
            tracer.dump(argv[1])
    if mode == "sweep":
        config = b.sodium_reference_config()
        reports = {}
        for n in SWEEP_POINTS:
            with tracer.span(f"sweep.n{n}"):
                reports[n] = b.compare_tf_vs_gpe(config, grid_points=n).to_dict()
        tracer.dump(argv[1])
        print(json.dumps(reports))
        return 0
    print(f"error: unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

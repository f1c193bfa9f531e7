"""Output checks for the becnlo benchmark.

Every expected value is computed here from the paper's formulas, with no call
into becnlo, or is a property the method must have.  Nothing is compared with a
stored copy of an earlier output.  Each checker takes plain values (numbers,
dicts, arrays) and returns a list of problems; an empty list means the output
passed.  The parsers turn CLI text into those plain values.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

HBAR = 1.054571817e-34  # J*s, exact by the SI definition

# The paper's sodium scenario, kept here so that the checks do not read the
# numbers under test from the program.
SODIUM = {
    "mass_kg": 3.82e-26,
    "a11_m": 2.75e-9,
    "a22_m": 2.85e-9,
    "a12_m": 2.65e-9,
    "im_a12_m": -1.291883e-9,
    "omega_rad_s": 100.0 * math.pi,
    "n_host": 1_000_000,
    "n_stored_max": 10,
}
SODIUM_FLAGS = (True, True, False, False)

# The CLI prints nine significant digits: rounding moves a value by at most
# 5e-9 of itself, so 1e-8 separates rounding from a wrong number.
PRINT_RTOL = 1e-8
# Values that leave the program as full doubles (JSON, in-process results)
# differ from the same formula here only by operation order, i.e. by a few
# units in the last place.
FLOAT_RTOL = 1e-12
# tau uses a Simpson quadrature of phi^2*n1 on the host grid.  The clipped
# parabola has a kink at R, where Simpson's rule drops to O(h^2); over 2,560
# random scan scenarios on a 512-point grid (8x coarser than the default)
# the error stayed below 1e-8.
LIFETIME_RTOL = 1e-6
# Host GPE oracle: kinetic energy raises mu above the parabola's value by
# about (d/R)^2 ln(R/xi) of it; at R/d ~ 7 that is a few 1e-3.
HOST_MU_EXCESS = (2e-4, 5e-3)
# The virial theorem 2 E_kin - 2 E_pot + 3 E_int = 0 holds exactly for a
# harmonic trap; the discretization leaves ~1e-7 at the default grid.
HOST_VIRIAL_MAX = 1e-4
# Stored oracles against first-order perturbation theory.  The neglected
# second-order term is ~(E_int/(hbar omega~))^2 ~ 1e-5, and the cloud edge of
# the full potential adds ~2e-5; the solver's stopping error is ~3e-8.
STORED_MU_RTOL = 1e-4
# 1 - |<phi|psi>|^2 from the same corrections: ~1e-6 idealized, ~3e-4 full.
STORED_OVERLAP_MIN = 0.999

VALIDITY_THRESHOLD = 1.0  # a ratio below one passes
DEPLETION_COEFF = 8.0 / (3.0 * math.sqrt(math.pi))


def expected(p: dict) -> dict:
    """Closed-form scales of a scenario given in the JSON layout (SI units)."""
    m = p["mass_kg"]
    a11, a22, a12 = p["a11_m"], p["a22_m"], p["a12_m"]
    omega = p["omega_rad_s"]
    n = p["n_host"]

    def u(a):
        return 4.0 * math.pi * HBAR**2 * a / m

    d = math.sqrt(HBAR / (m * omega))
    omega_tilde = omega * math.sqrt(1.0 - a12 / a11)
    s = math.sqrt(HBAR / (m * omega_tilde))
    a22_tilde = a22 - a12**2 / a11
    u22_tilde = u(a22_tilde)
    omega_nl = u22_tilde / (2.0 * (2.0 * math.pi) ** 1.5 * s**3) / HBAR
    mu = 0.5 * HBAR * omega * (15.0 * n * a11 / d) ** 0.4
    return {
        "d": d,
        "e_trap": HBAR * omega,
        "u11": u(a11),
        "u22": u(a22),
        "u12": u(a12),
        "u22_tilde": u22_tilde,
        "im_u12": u(p.get("im_a12_m", 0.0)),
        "omega_tilde": omega_tilde,
        "s": s,
        "a22_tilde": a22_tilde,
        "omega_nl": omega_nl,
        "mu": mu,
        "radius": math.sqrt(2.0 * mu / (m * omega**2)),
    }


def expect_close(problems, name, got, want, rtol):
    """Append a problem unless got is a finite number within rtol of want."""
    if not (isinstance(got, (int, float)) and math.isfinite(got)):
        problems.append(f"{name}: got {got!r}, want {want:.12g}")
    elif abs(got - want) > rtol * abs(want):
        problems.append(f"{name}: got {got:.12g}, want {want:.12g} (rtol {rtol:g})")


# ---------------------------------------------------------------- closed forms


def check_scales(values: dict, p: dict, rtol: float) -> list:
    """d, omega~, s, a22~, Omega and mu against the paper's formulas."""
    want = expected(p)
    problems = []
    for key in ("d", "omega_tilde", "s", "a22_tilde", "omega_nl", "mu"):
        if key not in values:
            problems.append(f"{key}: missing")
        else:
            expect_close(problems, key, values[key], want[key], rtol)
    return problems


def check_phase(values: dict, p: dict, n: int, t: float, rtol: float) -> list:
    """delta_E = (n^2 - n) hbar Omega and, unless t is None, phase = (n^2 - n) Omega t."""
    want = expected(p)
    problems = []
    expect_close(problems, "delta_e", values.get("delta_e"), (n * n - n) * HBAR * want["omega_nl"], rtol)
    if t is not None:
        expect_close(problems, "phase", values.get("phase"), (n * n - n) * want["omega_nl"] * t, rtol)
    return problems


def check_gate(values: dict, p: dict, rtol: float) -> list:
    """Gate time pi/(2 Omega), revival pi/Omega, and a perfect sign gate."""
    want = expected(p)
    problems = []
    expect_close(problems, "gate_time", values.get("gate_time"), math.pi / (2.0 * want["omega_nl"]), rtol)
    expect_close(problems, "revival_time", values.get("revival_time"), math.pi / want["omega_nl"], rtol)
    expect_close(problems, "fidelity", values.get("fidelity"), 1.0, rtol)
    return problems


def mode_host_overlap(p: dict) -> float:
    """4 pi int_0^R r^2 phi^2 n1 dr for the Gaussian mode in the parabola, m^-3.

    With x = r/s and X = R/s, phi^2 = pi^-3/2 s^-3 exp(-x^2) and
    n1 = (mu - a s^2 x^2)/U11, a = m omega^2/2, the integral is
    (4/sqrt(pi))/U11 * (mu J2(X) - a s^2 J4(X)) with the truncated moments
    J2 = sqrt(pi)/4 erf(X) - X exp(-X^2)/2 and J4 = 3/2 J2 - X^3 exp(-X^2)/2.
    """
    want = expected(p)
    s, mu = want["s"], want["mu"]
    a = 0.5 * p["mass_kg"] * p["omega_rad_s"] ** 2
    x = want["radius"] / s
    g = math.exp(-x * x)
    j2 = 0.25 * math.sqrt(math.pi) * math.erf(x) - 0.5 * x * g
    j4 = 1.5 * j2 - 0.5 * x**3 * g
    return 4.0 / math.sqrt(math.pi) / want["u11"] * (mu * j2 - a * s * s * j4)


def check_lifetime(values: dict, p: dict, rtol: float) -> list:
    """tau = hbar ln2 / (|Im U12| * overlap), the overlap integrated here."""
    want = expected(p)
    rate = abs(want["im_u12"]) * mode_host_overlap(p)
    problems = []
    expect_close(problems, "loss_rate_l", values.get("loss_rate_l"), rate, rtol)
    expect_close(problems, "tau", values.get("tau"), HBAR * math.log(2.0) / rate, rtol)
    return problems


def _two_component_bounds(p: dict, exponent: float, scale_at) -> tuple:
    """Lower and upper bound of max over [0, R/2] of C n1^exponent exp(r^2/s^2).

    The log of such a ratio has derivative r*(2/s^2 - 2*exponent*a/f), which
    changes sign at most once, from + to -, so its maximum is at an end or at
    f* = exponent*a*s^2.  A scan over any grid holding both ends lies between
    the larger end value and that maximum.
    """
    want = expected(p)
    s, mu = want["s"], want["mu"]
    a = 0.5 * p["mass_kg"] * p["omega_rad_s"] ** 2
    r_end = 0.5 * want["radius"]
    ends = max(scale_at(0.0), scale_at(r_end))
    r_star_sq = (mu - exponent * a * s * s) / a
    peak = ends
    if 0.0 < r_star_sq < r_end**2:
        peak = max(peak, scale_at(math.sqrt(r_star_sq)))
    return ends, peak


def check_validity(report: dict, p: dict, rtol: float, flags=None) -> list:
    """Four-flag report: ratios from closed forms, flags from the ratios.

    single_tf, single_mf and two_tf are monotone in r, so their worst case
    over [0, R/2] sits at an end point and is known exactly.  The two
    two-component density ratios may peak inside; they are bounded.
    """
    want = expected(p)
    hbar, m, omega = HBAR, p["mass_kg"], p["omega_rad_s"]
    mu, u11, s = want["mu"], want["u11"], want["s"]
    n2_atoms = p["n_stored_max"]
    a11_cubed = p["a11_m"] ** 3
    problems = []
    try:
        ratios = {
            "single_tf": report["single_tf"]["ratio"],
            "single_mf": report["single_mf"]["ratio"],
            "two_tf": report["two_tf"]["ratio"],
            "two_mf_dep": report["two_mf"]["depletion_ratio"],
            "two_mf_std": report["two_mf"]["std_ratio"],
        }
        got_flags = (
            report["single_tf"]["ok"],
            report["single_mf"]["ok"],
            report["two_tf"]["ok"],
            report["two_mf"]["ok"],
        )
        scan_radius = report["scan_radius_m"]
        n_stored = report["n_stored"]
    except (KeyError, TypeError) as exc:
        return [f"validity report malformed: {exc!r}"]

    r_half = 0.5 * want["radius"]
    expect_close(problems, "scan_radius_m", scan_radius, r_half, rtol)
    if n_stored != n2_atoms:
        problems.append(f"n_stored: got {n_stored!r}, want {n2_atoms}")

    def n1(r):
        return (mu - 0.5 * m * omega**2 * r * r) / u11

    def kinetic(r):
        f = mu - 0.5 * m * omega**2 * r * r
        return 3.0 * hbar**2 * omega**2 / (4.0 * f) + hbar**2 * m * omega**4 * r * r / (8.0 * f * f)

    def n2(r):
        return n2_atoms * math.pi**-1.5 * s**-3 * math.exp(-r * r / (s * s))

    def depletion(r):
        return DEPLETION_COEFF * math.sqrt(n1(r) * a11_cubed) * n1(r)

    expect_close(problems, "single_tf.ratio", ratios["single_tf"], kinetic(r_half) / (u11 * n1(r_half)), rtol)
    expect_close(problems, "single_mf.ratio", ratios["single_mf"], depletion(0.0) / n1(0.0), rtol)
    if n2_atoms > 0:
        two_tf = kinetic(r_half) * (want["u12"] / u11) / (want["u22_tilde"] * n2(r_half))
        expect_close(problems, "two_tf.ratio", ratios["two_tf"], two_tf, rtol)
        for key, exponent, ratio in (
            ("two_mf_dep", 1.5, lambda r: depletion(r) / n2(r)),
            ("two_mf_std", 1.25, lambda r: math.sqrt(2.0 * n1(r) * depletion(r)) / n2(r)),
        ):
            lo, hi = _two_component_bounds(p, exponent, ratio)
            got = ratios[key]
            if not (lo * (1.0 - rtol) <= got <= hi * (1.0 + rtol)):
                problems.append(f"{key}: got {got!r}, want within [{lo:.12g}, {hi:.12g}]")

    implied = (
        ratios["single_tf"] < VALIDITY_THRESHOLD,
        ratios["single_mf"] < VALIDITY_THRESHOLD,
        ratios["two_tf"] < VALIDITY_THRESHOLD,
        ratios["two_mf_dep"] < VALIDITY_THRESHOLD and ratios["two_mf_std"] < VALIDITY_THRESHOLD,
    )
    if tuple(got_flags) != implied:
        problems.append(f"flags {tuple(got_flags)} do not follow from the ratios {implied}")
    if flags is not None and tuple(got_flags) != tuple(flags):
        problems.append(f"flags: got {tuple(got_flags)}, want {tuple(flags)}")
    return problems


FIGURE_COLUMNS = {
    2: ("trap_hw", "host_coll_hw", "cross_coll_hw", "kinetic_hw"),
    3: ("rescaled_kinetic_hw", "stored_self_hw"),
    4: ("host_per_d3", "stored_per_d3", "depletion_per_d3", "std_per_d3"),
}
FIGURE_SPAN = 0.95  # the tables run from r = 0 to 0.95 R
FIGURE_ROWS = 512  # the default of `becnlo figures --rows` and of figure_data


def check_figure(columns: dict, fig: int, p: dict, rows: int, rtol: float) -> list:
    """Column layout, the radius column, log10 companions, first host density.

    A log10 column must be the log10 of its raw column.  Both are rounded to
    rtol of themselves, which moves the difference by at most
    rtol/ln(10) + rtol*|log10|; `rtol * max(1, |log10|)` covers it.
    """
    want = expected(p)
    raw = FIGURE_COLUMNS[fig]
    names = ("r_over_d",) + raw + tuple("log10_" + k for k in raw)
    problems = []
    if tuple(columns) != names:
        return [f"fig {fig} columns: got {tuple(columns)}, want {names}"]
    table = {k: np.asarray(v, dtype=float) for k, v in columns.items()}
    if any(v.shape != (rows,) for v in table.values()):
        return [f"fig {fig}: want {rows} rows in every column"]

    r_want = np.linspace(0.0, FIGURE_SPAN * want["radius"] / want["d"], rows)
    bad = np.abs(table["r_over_d"] - r_want) > rtol * np.abs(r_want)
    if bad.any():
        problems.append(f"fig {fig} r_over_d: row {int(np.argmax(bad))} off the uniform grid")

    for name in raw:
        values, logs = table[name], table["log10_" + name]
        zero = values == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            diff = np.abs(logs - np.log10(values))
        ok = np.where(zero, np.isneginf(logs), diff <= rtol * np.maximum(1.0, np.abs(logs)))
        ok &= values >= 0.0
        if not ok.all():
            row = int(np.argmin(ok))
            problems.append(
                f"fig {fig} log10_{name} row {row}: {logs[row]!r} is not log10({values[row]!r})"
            )
    if fig == 4:
        first = want["mu"] * want["d"] ** 3 / want["u11"]
        expect_close(problems, "fig 4 host_per_d3[0]", float(table["host_per_d3"][0]), first, rtol)
    return problems


# ------------------------------------------------------------------ oracles


def check_host_oracle(payload: dict, p: dict) -> list:
    """mu_GPE sits a little above mu_TF and the virial theorem holds."""
    want = expected(p)
    problems = []
    try:
        mu_tf, mu_gpe = payload["mu_tf_J"], payload["mu_gpe_J"]
        virial, iterations = payload["virial_residual"], payload["iterations"]
        central_tf = payload["central_density_tf_m3"]
    except (KeyError, TypeError) as exc:
        return [f"host oracle report malformed: {exc!r}"]
    expect_close(problems, "mu_tf_J", mu_tf, want["mu"], FLOAT_RTOL)
    expect_close(problems, "central_density_tf_m3", central_tf, want["mu"] / want["u11"], FLOAT_RTOL)
    excess = (mu_gpe - want["mu"]) / want["mu"]
    lo, hi = HOST_MU_EXCESS
    if not lo <= excess <= hi:
        problems.append(f"mu_gpe_J: relative excess over mu_TF {excess:.3e}, want in [{lo:g}, {hi:g}]")
    if not 0.0 <= virial < HOST_VIRIAL_MAX:
        problems.append(f"virial_residual: {virial!r}, want below {HOST_VIRIAL_MAX:g}")
    if not (isinstance(iterations, int) and iterations >= 1):
        problems.append(f"iterations: {iterations!r}")
    return problems


def stored_mu_expected(p: dict, idealized: bool) -> float:
    """First-order perturbation theory for the stored ground state.

    mu = 1.5 hbar omega~ + U22 N/((2 pi)^(3/2) s^3), plus the constant
    (U12/U11) mu_TF inside the cloud for the full potential.  stored_problem
    solves with the bare U22 and N = max(n_stored_max, 1).
    """
    want = expected(p)
    n = max(p["n_stored_max"], 1)
    mu = 1.5 * HBAR * want["omega_tilde"] + want["u22"] * n / ((2.0 * math.pi) ** 1.5 * want["s"] ** 3)
    if not idealized:
        mu += want["u12"] / want["u11"] * want["mu"]
    return mu


def check_stored_oracle(payload: dict, p: dict, idealized: bool) -> list:
    """mu against perturbation theory, overlap near 1, width s.

    The stored virial_residual is not checked: the clipped-parabola
    potential is not a power law, so the residual is ~2 by construction.
    """
    want = expected(p)
    problems = []
    try:
        mu, overlap = payload["mu_J"], payload["overlap"]
        width, iterations = payload["mode_length_m"], payload["iterations"]
    except (KeyError, TypeError) as exc:
        return [f"stored oracle report malformed: {exc!r}"]
    expect_close(problems, "mu_J", mu, stored_mu_expected(p, idealized), STORED_MU_RTOL)
    expect_close(problems, "mode_length_m", width, want["s"], FLOAT_RTOL)
    if not STORED_OVERLAP_MIN <= overlap <= 1.0 + 1e-9:
        problems.append(f"overlap: {overlap!r}, want in [{STORED_OVERLAP_MIN}, 1]")
    if not (isinstance(iterations, int) and iterations >= 1):
        problems.append(f"iterations: {iterations!r}")
    return problems


# ------------------------------------------------------------------ parsers


def parse_key_values(text: str) -> dict:
    """`name = number unit ...` lines of the text subcommands."""
    values = {}
    for line in text.splitlines():
        key, sep, rest = line.partition(" = ")
        if sep:
            try:
                values[key] = float(rest.split()[0])
            except (IndexError, ValueError):
                values[key] = rest
    return values


def parse_csv(text: str) -> dict:
    """CSV table into name -> list of floats (`-inf` parses as float)."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return {}
    header, body = rows[0], rows[1:]
    return {name: [float(row[i]) for row in body] for i, name in enumerate(header)}


def check_cli_output(command: list, stdout: str, p: dict, files: dict) -> list:
    """Route one `becnlo` subcommand's output to its checker.

    `files` maps an output path named on the command line to its contents.
    """
    name = command[0]
    try:
        if name == "units":
            return check_scales(parse_key_values(stdout), p, PRINT_RTOL)
        if name == "phase":
            n = int(command[command.index("--n") + 1])
            t = float(command[command.index("--time") + 1])
            return check_phase(parse_key_values(stdout), p, n, t, PRINT_RTOL)
        if name == "gate":
            return check_gate(parse_key_values(stdout), p, PRINT_RTOL)
        if name == "lifetime":
            return check_lifetime(parse_key_values(stdout), p, max(PRINT_RTOL, LIFETIME_RTOL))
        if name == "validity":
            return check_validity(json.loads(stdout), p, FLOAT_RTOL, flags=SODIUM_FLAGS)
        if name == "figures":
            fig = int(command[command.index("--fig") + 1])
            out = command[command.index("--out") + 1]
            problems = []
            if stdout != f"wrote {out} ({FIGURE_ROWS} rows)\n":
                problems.append(f"figures stdout: {stdout!r}")
            return problems + check_figure(parse_csv(files[out]), fig, p, FIGURE_ROWS, PRINT_RTOL)
        if name == "oracle":
            payload = json.loads(stdout)
            if "--stored" in command:
                return check_stored_oracle(payload, p, idealized="--idealized" in command)
            return check_host_oracle(payload, p)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"{name}: unreadable output ({exc!r})"]
    return [f"no checker for subcommand {name!r}"]

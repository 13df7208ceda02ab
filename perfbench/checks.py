"""Independent references and output checks.

Nothing here calls diracstep.  The references are written from the physics,
not from the package's code:

* Sauter's exact reflection coefficient of the tanh step
  V(x) = V0 (1 + tanh(2x/w)) / 2 (F. Sauter, Z. Phys. 73 (1932) 547), in an
  overflow-safe log-sinh form, and its w -> 0 limit, the sharp-step R;
* the sharp-step continuity solution [1, a] + r [1, -a] = t u at x = 0 for
  the transmitted spinor u of each convention, used for the negative-energy
  convention (which has no Sauter counterpart) and for wavefunction values.

Natural units (hbar = c = 1) and mc2 = 1 throughout, as in the workloads.
Every check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import cmath
import math

MASS = 1.0
# Tolerances, fixed before measuring.
CONSERVATION_TOL = 1e-12   # |R + T - 1| / max(1, R), as the package's own suite
SHARP_R_TOL = 1e-9         # |R - R_sharp| / max(1, R_sharp)
ORACLE_R_TOL = 1e-9        # |R_num - R_sauter| / max(1, R_sauter) at tol = 1e-10
WAVE_TOL = 1e-9            # spinor values and currents, relative to the local scale


def regime(e: float, v0: float, m: float = MASS) -> str:
    if v0 == e + m:
        return "EdgePoint"
    if v0 == e - m:
        return "EdgeLower"
    if v0 > e + m:
        return "KleinZone"
    if v0 < e - m:
        return "Transmission"
    return "Evanescent"


def physical_convention(reg: str) -> str:
    return {"Transmission": "traditional", "EdgeLower": "traditional"}.get(reg, "main")


def _log_abs_sinh(x: float) -> float:
    x = abs(x)
    return x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0)


def _wave_numbers(e: float, v0: float, m: float = MASS) -> tuple[float, float]:
    d = e - v0
    return math.sqrt((e - m) * (e + m)), math.sqrt(abs((d - m) * (d + m)))


def sauter_R(e: float, v0: float, width: float, conv: str, m: float = MASS) -> float:
    """Exact R of the tanh step for the main / traditional boundary condition.

    Klein zone, main: f(V0+k+kb) f(V0-k-kb) / [f(V0+k-kb) f(V0-k+kb)] with
    f(z) = sinh(pi w z / 4); traditional there: 1/R.  Transmission regime,
    traditional: the same expression with kb -> -kb, which is again 1/R.
    Evanescent: R = 1.
    """
    reg = regime(e, v0, m)
    if reg == "Evanescent":
        return 1.0
    k, kb = _wave_numbers(e, v0, m)
    c = math.pi * width / 4.0
    log_r = (_log_abs_sinh(c * (v0 + k + kb)) + _log_abs_sinh(c * (v0 - k - kb))
             - _log_abs_sinh(c * (v0 + k - kb)) - _log_abs_sinh(c * (v0 - k + kb)))
    return math.exp(-log_r if conv == "traditional" else log_r)


def sharp_state(e: float, v0: float, conv: str, m: float = MASS):
    """Continuity solution of the sharp step: (a, k, r, t, u, q).

    The state is [1, a] e^{ikx} + r [1, -a] e^{-ikx} for x < 0 and
    t u e^{iqx} for x > 0.
    """
    reg = regime(e, v0, m)
    k, kb = _wave_numbers(e, v0, m)
    d = e - v0
    a = math.sqrt((e - m) / (e + m))
    if reg == "Evanescent":
        b = -1j * kb / (d + m)
        q_t = -1j * kb
    else:
        b = complex(kb / (d + m))
        q_t = complex(kb)
    u, q = {
        "main": ((1.0, -b), -q_t),
        "lower": ((-1.0 / b, 1.0), -q_t),
        "traditional": ((1.0, b), q_t),
        "negative": ((-b, 1.0), q_t),
    }[conv]
    r = (a * u[0] - u[1]) / (a * u[0] + u[1])
    t = (1.0 + r) / u[0] if abs(u[0]) >= abs(u[1]) else a * (1.0 - r) / u[1]
    return a, k, r, t, u, q


def sharp_R(e: float, v0: float, conv: str, m: float = MASS) -> float:
    """Sharp-step R: the w -> 0 limit of Sauter's formula where it applies
    (main / lower / traditional), else |r|^2 of the continuity solution."""
    reg = regime(e, v0, m)
    if reg == "Evanescent":
        return 1.0
    if conv == "negative":
        return abs(sharp_state(e, v0, conv, m)[2]) ** 2
    k, kb = _wave_numbers(e, v0, m)
    ratio = (v0 + k + kb) * (v0 - k - kb) / ((v0 + k - kb) * (v0 - k + kb))
    return 1.0 / ratio if conv == "traditional" else ratio


def _rel(err: float, scale: float) -> float:
    return err / max(1.0, abs(scale))


# ------------------------------------------------------------------- checks


def check_oracle(req: dict, R_num: float, T_num: float) -> tuple[list[str], float]:
    """Oracle R against Sauter's exact R at the same width; returns the
    failures and the relative error."""
    exact = sauter_R(req["e"], req["v0"], req["w"], req["conv"])
    err = _rel(abs(R_num - exact), exact)
    fails = []
    if not err <= ORACLE_R_TOL:
        fails.append(f"R_num {R_num!r} vs Sauter {exact!r}: rel err {err:.2e}")
    if not _rel(abs(R_num + T_num - 1.0), R_num) <= 1e-8:
        fails.append(f"R_num + T_num - 1 = {R_num + T_num - 1.0:.2e}")
    return fails, err


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:-1]]


def check_sweep(req: dict, text: str) -> list[str]:
    """Every sweep row: row count, regime, convention, R + T = 1, R against
    the sharp-step closed form, and R = 1, T = 0 on evanescent and edge rows."""
    fails = []
    header, rows = parse_csv(text)
    if len(rows) != req["rows"]:
        return [f"{len(rows)} rows, expected {req['rows']}"]
    col = {name: i for i, name in enumerate(header)}
    for row in rows:
        v0 = float(row[col["step_height"]])
        e = float(row[col["energy"]])
        reg = regime(e, v0)
        conv = req["conv"] if req["conv"] != "auto" else physical_convention(reg)
        R = float(row[col["R"]])
        T = float(row[col["T"]])
        where = f"E={e!r} V0={v0!r} {conv}"
        if row[col["regime"]] != reg or row[col["convention"]] != conv:
            fails.append(f"{where}: regime/convention {row[col['regime']]}/"
                         f"{row[col['convention']]}, expected {reg}/{conv}")
            continue
        if not _rel(abs(R + T - 1.0), R) <= CONSERVATION_TOL:
            fails.append(f"{where}: R + T - 1 = {R + T - 1.0:.3e}")
        if reg in ("Evanescent", "EdgePoint", "EdgeLower"):
            if not (abs(R - 1.0) <= CONSERVATION_TOL and abs(T) <= CONSERVATION_TOL):
                fails.append(f"{where}: R={R!r} T={T!r}, expected total reflection")
        else:
            ref = sharp_R(e, v0, conv)
            if not _rel(abs(R - ref), ref) <= SHARP_R_TOL:
                fails.append(f"{where}: R={R!r} vs sharp-step {ref!r}")
        if len(fails) > 10:
            break
    return fails


def _wave_physics(argv: list[str]) -> dict:
    opts = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--") and i + 1 < len(argv):
            opts[tok[2:]] = argv[i + 1]
    return opts


def check_wavefunction(argv: list[str], text: str, expected_points: int) -> list[str]:
    """Grid size, rho = |phi|^2 + |chi|^2 on every row, a constant current
    equal to j_in (1 - R), and spinor values against the sharp-step state on
    a subset of rows (open regimes) or the limit eigenstates' j = 0."""
    opts = _wave_physics(argv)
    header, rows = parse_csv(text)
    if header != ["x", "phi_re", "phi_im", "chi_re", "chi_im", "rho", "j"]:
        return [f"unexpected header {header}"]
    xs = [float(row[0]) for row in rows]
    straddles = xs and xs[0] <= 0.0 <= xs[-1]
    if len(rows) != expected_points + (1 if straddles else 0):
        return [f"{len(rows)} rows for {expected_points} points"]
    e = float(opts["energy"])
    state = None
    j_expected = 0.0
    if "step-height" in opts:
        v0 = float(opts["step-height"])
        reg = regime(e, v0)
        conv = opts.get("convention", "auto")
        conv = physical_convention(reg) if conv == "auto" else conv
        state = sharp_state(e, v0, conv)
        a = state[0]
        j_expected = 2.0 * a * (1.0 - abs(state[2]) ** 2)
    fails = []
    stride = max(1, len(rows) // 16)
    previous_x = None
    for i, row in enumerate(rows):
        x, pr, pi, cr, ci, rho, j = (float(c) for c in row)
        scale = max(1.0, rho)
        if abs(pr * pr + pi * pi + cr * cr + ci * ci - rho) > WAVE_TOL * scale:
            fails.append(f"x={x!r}: rho inconsistent")
        if abs(j - j_expected) > WAVE_TOL * scale:
            fails.append(f"x={x!r}: current {j!r}, expected {j_expected!r}")
        if state is not None and i % stride == 0:
            a, k, r, t, u, q = state
            right = x > 0.0 or (x == 0.0 and previous_x == 0.0)
            if right:
                ph = cmath.exp(1j * q * x)
                phi, chi = t * u[0] * ph, t * u[1] * ph
            else:
                pin, pre = cmath.exp(1j * k * x), cmath.exp(-1j * k * x)
                phi, chi = pin + r * pre, a * pin - r * a * pre
            err = max(abs(complex(pr, pi) - phi), abs(complex(cr, ci) - chi))
            if err > WAVE_TOL * max(1.0, abs(phi), abs(chi)):
                fails.append(f"x={x!r}: spinor off the sharp-step state by {err:.2e}")
        previous_x = x
        if len(fails) > 10:
            break
    return fails


def _table(stdout: str) -> dict[str, str]:
    table = {}
    for line in stdout.splitlines():
        if line.startswith("#") or line.startswith("warning:") or not line.strip():
            continue
        parts = line.split()
        if len(parts) == 2:
            table[parts[0]] = parts[1]
    return table


def check_invocation(req: dict, code: int, stdout: str, stderr: str,
                     csv_text: str | None) -> list[str]:
    """Exit code; R + T = 1 at the printed precision; an ``error:`` line on
    refused requests; the written grid for wavefunctions."""
    if code != req["expect"]:
        return [f"exit {code}, expected {req['expect']}: {stderr.strip()[-200:]}"]
    if req["expect"] == 2:
        if not any(line.startswith("error: ") for line in stderr.splitlines()):
            return ["refused without an 'error:' line"]
        return []
    if req["op"] == "wavefunction":
        if csv_text is None:
            return ["no CSV written"]
        return check_wavefunction(req["argv"], csv_text, req["points"])
    table = _table(stdout)
    precision = int(req["argv"][req["argv"].index("--precision") + 1])
    names = {"scatter": ("R", "T"), "limit": ("R", "T") if req["tag"] == "infinite"
             else ("R_limit", "T_limit")}[req["op"]]
    if req["tag"] == "nonrel":
        expected = "DirichletNR" if "negative" not in req["argv"] else "NeumannNR"
        if table.get("boundary") != expected:
            return [f"nonrel boundary {table.get('boundary')}, expected {expected}"]
        return []
    try:
        R, T = (float(table[n]) for n in names)
    except (KeyError, ValueError):
        return [f"no {names} in the printed table"]
    if abs(R + T - 1.0) > 10.0 ** (1 - precision) * max(1.0, abs(R), abs(T)):
        return [f"printed R + T - 1 = {R + T - 1.0:.3e} at precision {precision}"]
    return []

"""The benchmark's four workloads: seeded inputs, the calls, the checks.

Each workload hands out tasks in rounds.  A round has a fixed mix of task
kinds; only the numbers in it come from the seed, drawn one per stratum
where a range is sampled, so two seeds give the same mix and nearly the
same spread of inputs.  The library sees only the generated floats.

``run(task)`` is the timed call.  ``check(task, out)`` runs after the
timed phase and returns None or the reason the output is wrong.
``known_defect(task, exc)`` says whether an exception is the documented
solver defect on the close pair (100, 99), which is kept in the inputs
and counted rather than filtered out.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import random
import re
import subprocess
import sys

import ljchain as lj

PAIRS = ((12.0, 6.0), (7.0, 6.0), (8.0, 6.0), (6.0, 3.0), (100.0, 99.0))
# Two defects of the close pair (100, 99), kept in the inputs and counted:
# solve_delta raises BracketError when the residual at the feasibility edge
# rounds to >= 0 (at A = 2, for much of 1.2 < A < 2, and once delta**(m+1)
# underflows at A > ~840), and bipartite_energy raises OverflowError at
# A > ~600, where hurwitz_zeta(100, a) overflows for a ~ 1/(2A)
DEFECT_PAIR = (100.0, 99.0)
DEFECTS = (lj.BracketError, OverflowError)
SIGMA = 1.01                   # hard-core radius of the sweep's constrained rows
RESIDUAL_TOL = 1e-11
CROSS_TOL = 1e-8               # the tolerance `ljchain validate` uses
MIN_STEP = 1e-2                # Delta*(1 +- MIN_STEP) must cost energy


def _strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """k draws from [lo, hi], one per equal-width stratum, shuffled."""
    xs = [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]
    rng.shuffle(xs)
    return xs


def _log_strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    return [math.exp(v) for v in _strata(rng, math.log(lo), math.log(hi), k)]


# ------------------------------------------------------------- checks

def _energy(spec, A: float, Delta: float) -> float:
    return lj.bipartite_energy(spec, A, Delta).value


def check_delta(spec, A: float, Delta: float, branch: str, A_c: float,
                Delta_max: float | None = None) -> str | None:
    """Branch, bound, residual and local-minimum checks on one gap ratio.

    Delta may equal 2A - 1 only in floating point: at large A the margin
    to the bound is below one ulp of Delta, which solve_delta documents.
    """
    if branch == "trivial":
        if Delta != 1.0:
            return f"trivial branch with Delta={Delta!r}"
        if A > A_c * (1.0 + 1e-12):
            return f"trivial branch at A={A!r} above A_c={A_c!r}"
        return None
    if branch != "bipartite":
        return f"branch {branch!r}"
    if A <= A_c:
        return f"bipartite branch at A={A!r} below A_c={A_c!r}"
    if not 1.0 < Delta <= 2.0 * A - 1.0:
        return f"Delta={Delta!r} outside (1, 2A-1] at A={A!r}"
    if Delta_max is not None and Delta > Delta_max:
        return f"Delta={Delta!r} above the hard-core bound {Delta_max!r}"
    res = abs(lj.stationarity_residual(spec, A, 1.0 / (1.0 + Delta)))
    if not res <= RESIDUAL_TOL:
        return f"residual {res:.3e} at A={A!r}"
    e0 = _energy(spec, A, Delta)
    for d in (Delta * (1.0 + MIN_STEP), _lower_probe(Delta)):
        if not e0 < _energy(spec, A, d):
            return f"Delta={Delta!r} at A={A!r} is not a local energy minimum"
    return None


def _lower_probe(Delta: float) -> float:
    """Delta*(1 - k*MIN_STEP) for the first k in (1, 2) whose energy differs.

    The energy is even in log(Delta), so a probe below 1 is the mirror
    point 1/probe; near log(Delta) = MIN_STEP/2 that mirror falls back
    onto Delta itself and the comparison would be between equal energies.
    """
    eps = math.log(Delta)
    for k in (1, 2):
        d = Delta * (1.0 - k * MIN_STEP)
        if abs(abs(math.log(d)) - eps) >= MIN_STEP / 4:
            return d
    return d


def _rel_close(value: float, ref: float, scale: float) -> str | None:
    if abs(value - ref) <= CROSS_TOL * scale:
        return None
    return f"{value!r} vs closed form {ref!r} (scale {scale:.3e})"


# ----------------------------------------------------------- workloads

class Workload:
    name = ""
    tail = 99                  # tail percentile, fixed so runs compare
    calibration = "loop"       # reference work for the speed scale (speed.py)
    count_rounds = 1           # rounds in the fixed-size count pass

    def __init__(self, seed: int, root: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.root = root

    def warm_up(self) -> None:
        for task in self.round():
            try:
                self.run(task)
            except DEFECTS:
                pass

    def round(self) -> list:
        raise NotImplementedError

    def run(self, task):
        raise NotImplementedError

    def check(self, task, out) -> str | None:
        raise NotImplementedError

    def known_defect(self, task, exc: BaseException) -> bool:
        return False


class Sweep(Workload):
    """Energy-curve, delta-sweep and hard-core rows for fixed Mie pairs."""
    name = "sweep"

    def __init__(self, seed: int, root: str):
        super().__init__(seed, root)
        self.specs = {p: lj.mie_potential(*p) for p in PAIRS}
        self.A_c = {p: lj.critical_point(s).A_c for p, s in self.specs.items()}
        self.configs = {p: lj.HardCoreConfig(s, SIGMA) for p, s in self.specs.items()}

    def round(self) -> list:
        rng = self.rng
        tasks = []
        for p in PAIRS:
            near = self.A_c[p] * (1.0 + 10.0 ** rng.uniform(-8.0, -3.0))
            default = _strata(rng, 0.9, 3.0, 5)       # the CLI's default spans
            far = _log_strata(rng, 3.0, 1e4, 2)
            tasks += [("delta", p, A) for A in default[:3]]
            tasks += [("energy", p, A) for A in default[3:]]
            tasks += [("delta", p, far[0]), ("energy", p, far[1]),
                      ("delta", p, near),
                      ("hardcore", p, rng.uniform(SIGMA, 3.0))]
        tasks += [("delta", DEFECT_PAIR, 2.0), ("delta", DEFECT_PAIR, 1e3)]
        rng.shuffle(tasks)
        return tasks

    def run(self, task):
        kind, p, A = task
        if kind == "delta":
            return lj.delta_sweep(self.specs[p], [A])[0]
        if kind == "energy":
            return lj.energy_curve(self.specs[p], [A])[0]
        return lj.hardcore_sweep(self.configs[p], [A])[0]

    def check(self, task, out) -> str | None:
        kind, p, A = task
        spec, A_c = self.specs[p], self.A_c[p]
        if out.A != A:
            return f"row for A={out.A!r}, asked {A!r}"
        if kind == "delta":
            return check_delta(spec, A, out.Delta, out.branch, A_c)
        if kind == "energy":
            branch = "trivial" if out.phase == "equidistant" else "bipartite"
            if branch == "trivial" and out.E_ground != out.E_equidistant_continuation:
                return "equidistant row with two different energies"
            eq = lj.equidistant_energy(spec, A).value
            if out.E_equidistant_continuation != eq:
                return f"equidistant energy {out.E_equidistant_continuation!r} vs {eq!r}"
            if branch == "bipartite":
                if out.E_ground != _energy(spec, A, out.Delta):
                    return "ground energy is not the energy at Delta"
                if not out.E_ground <= eq + 1e-12 * abs(eq):
                    return f"dimerized energy above the equidistant one at A={A!r}"
            return check_delta(spec, A, out.Delta, branch, A_c)
        return self._check_hardcore(p, A, out)

    def _check_hardcore(self, p, A: float, sol) -> str | None:
        spec, A_c = self.specs[p], self.A_c[p]
        bound = 2.0 * A / SIGMA - 1.0
        try:
            A_star = lj.junction(self.configs[p]).A_star
        except lj.NoJunctionError:
            A_star = None
        if sol.branch == "boundary":
            if A_star is not None and A < A_star:
                return f"boundary branch at A={A!r} below A_star={A_star!r}"
            if abs(sol.Delta - bound) > 4e-16 * bound:
                return f"boundary Delta={sol.Delta!r} vs 2A/sigma-1={bound!r}"
            # a feasible probe: log(Delta) shrunk by MIN_STEP, still above 1
            inner = sol.Delta ** (1.0 / (1.0 + MIN_STEP))
            if not _energy(spec, A, sol.Delta) < _energy(spec, A, inner):
                return f"boundary Delta at A={A!r} is not a constrained minimum"
            return None
        if A_star is not None and sol.branch == "bipartite" and A >= A_star:
            return f"bipartite branch at A={A!r} beyond A_star={A_star!r}"
        return check_delta(spec, A, sol.Delta, sol.branch, A_c, bound)

    def known_defect(self, task, exc) -> bool:
        return isinstance(exc, DEFECTS) and task[1] == DEFECT_PAIR


class Scan(Workload):
    """One fresh non-integer (n, m) pair per task: nothing is reused."""
    name = "scan"
    count_rounds = 10

    def round(self) -> list:
        rng = self.rng
        m = rng.uniform(2.5, 12.0)
        n = m + math.exp(rng.uniform(math.log(0.5), math.log(20.0)))
        return [("scan", n, m,
                 rng.uniform(0.9, 3.0),                  # default span
                 10.0 ** rng.uniform(-8.0, -3.0),        # A/A_c - 1 near onset
                 math.exp(rng.uniform(math.log(3.0), math.log(1e3))),
                 10.0 ** rng.uniform(-9.0, -0.05))]      # (sigma-1)/(A_c-1)

    def run(self, task):
        _, n, m, A1, near, A3, u = task
        spec = lj.mie_potential(n, m)
        tp = lj.critical_point(spec)
        sols = [lj.solve_delta(spec, A) for A in (A1, tp.A_c * (1.0 + near), A3)]
        sigma = 1.0 + (tp.A_c - 1.0) * u
        return spec, tp, sols, sigma, lj.junction(lj.HardCoreConfig(spec, sigma))

    def check(self, task, out) -> str | None:
        spec, tp, sols, sigma, jp = out
        if not (tp.sign_change_verified and tp.E4_at_Ac > 0.0):
            return f"crossing of {spec.mie} not verified as continuous"
        for sol in sols:
            why = check_delta(spec, sol.A, sol.Delta, sol.branch, tp.A_c)
            if why:
                return f"{spec.mie}: {why}"
        if not jp.residual <= RESIDUAL_TOL:
            return f"junction residual {jp.residual:.3e}"
        if abs(jp.Delta_star - (2.0 * jp.A_star / sigma - 1.0)) > 1e-10 * jp.Delta_star:
            return "junction off the boundary branch"
        if not jp.A_star > tp.A_c:
            return f"junction A_star={jp.A_star!r} below A_c={tp.A_c!r}"
        return None

    def warm_up(self) -> None:
        # a separate stream, so no timed pair is precomputed
        timed = self.rng
        self.rng = random.Random(f"{self.name}-warm:{timed.random()}")
        for _ in range(2):
            for task in self.round():
                self.run(task)
        self.rng = timed


class Crosscheck(Workload):
    """Independent routes against the closed forms; no solver, no odd series."""
    name = "crosscheck"
    count_rounds = 2

    def __init__(self, seed: int, root: str):
        super().__init__(seed, root)
        self.specs = {p: lj.mie_potential(*p) for p in PAIRS}

    def round(self) -> list:
        rng = self.rng
        pick = lambda: PAIRS[rng.randrange(len(PAIRS))]
        gap = lambda: math.exp(rng.uniform(0.0, math.log(5.0)))
        tasks = [("direct", rng.uniform(2.5, 30.0), A, gap())
                 for A in _strata(rng, 0.9, 3.0, 3)]
        tasks += [("quadrature", pick(), A, gap()) for A in _strata(rng, 0.9, 3.0, 4)]
        tasks.append(("landau", pick(), rng.uniform(0.9, 3.0)))
        rng.shuffle(tasks)
        return tasks

    def run(self, task):
        kind = task[0]
        if kind == "direct":
            _, s, A, Delta = task
            return lj.direct_bipartite_sum(s, A, Delta, 1e-11)
        if kind == "quadrature":
            _, p, A, Delta = task
            return lj.bipartite_energy_quadrature(self.specs[p], A, Delta)
        _, p, A = task
        return lj.landau_coefficients_quadrature(self.specs[p], A)

    def check(self, task, out) -> str | None:
        kind = task[0]
        if kind == "direct":
            _, s, A, Delta = task
            ref = lj.riesz_lattice_sum(s, A, Delta)
            return _rel_close(out.value, ref, ref)
        if kind == "quadrature":
            _, p, A, Delta = task
            spec = self.specs[p]
            scale = sum(abs(c.coefficient * lj.riesz_lattice_sum(c.exponent, A, Delta))
                        for c in spec.components)
            return _rel_close(out.value, lj.bipartite_energy(spec, A, Delta).value, scale)
        _, p, A = task
        spec = self.specs[p]
        ref = lj.landau_closed(spec, A)
        parts = [lj.landau_component_closed(c.exponent, A) for c in spec.components]
        coefs = [c.coefficient for c in spec.components]
        for k, field in enumerate(("E2", "E4", "E6")):
            scale = sum(abs(cf * pt[k]) for cf, pt in zip(coefs, parts))
            why = _rel_close(getattr(out, field), getattr(ref, field), scale)
            if why:
                return f"{field} at A={A!r}: {why}"
        return _rel_close(out.E_eq, ref.E_eq, abs(ref.E_eq))


# ----------------------------------------------------------------- cli

SUBCOMMANDS = {
    "energy-curve": (["A", "E_ground", "E_equidistant_continuation", "phase", "Delta"], 111),
    "phase-diagram": (["n", "A_c"], 95),
    "delta-sweep": (["A", "Delta", "branch", "residual", "error"], 41),
    "beta-fit": (["A_minus_Ac", "Delta_minus_1", "error"], 20),
    "hardcore-sweep": (["A", "Delta", "branch", "residual", "error"], 39),
    "tau-fit": (["sigma_minus_1", "A_star", "delta_star", "error"], 12),
}
VALIDATE_CHECKS = 7             # `validate --quick`
# hardcore-sweep has no default radius; this is the README's example.
# validate runs its quick set, the one that stays well under a second.
EXTRA_ARGS = {"hardcore-sweep": ["--sigma", "1.01"], "validate": ["--quick"]}
COMMANDS = sorted(SUBCOMMANDS) + ["validate"]
_ELAPSED = re.compile(rb" \(\d+\.\ds\)\n$")


def _without_elapsed(stdout: bytes) -> bytes:
    """validate's output without the run time on its summary line."""
    return _ELAPSED.sub(b"\n", stdout)


def _fmt(v) -> str:
    return f"{v:.15g}" if isinstance(v, float) else str(v)


def reference_validate() -> bytes:
    """`ljchain validate --quick` run in this process."""
    from ljchain import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(["validate", *EXTRA_ARGS["validate"]])
    return _without_elapsed(buf.getvalue().encode())


def reference_rows(cmd: str) -> list[list[str]]:
    """The table rows of `ljchain <cmd>` with default flags, from the library."""
    import numpy as np      # only for the CLI's own grid spacing

    spec = lj.mie_potential(12.0, 6.0)
    if cmd == "energy-curve":
        return [[_fmt(float(v)) for v in (r.A, r.E_ground, r.E_equidistant_continuation)]
                + [r.phase, _fmt(r.Delta)]
                for r in lj.energy_curve(spec, np.linspace(0.9, 2.0, 111))]
    if cmd == "phase-diagram":
        return [[_fmt(float(n)), _fmt(lj.critical_point(lj.mie_potential(float(n), 6.0)).A_c)]
                for n in np.linspace(6.5, 30.0, 95)]
    if cmd == "delta-sweep":
        sols = [lj.solve_delta(spec, float(A)) for A in np.linspace(1.0, 3.0, 41)]
        return [[_fmt(s.A), _fmt(s.Delta), s.branch, _fmt(s.residual), ""] for s in sols]
    if cmd == "beta-fit":
        A_c = lj.critical_point(spec).A_c
        return [[_fmt(float(x)), _fmt(lj.solve_delta(spec, A_c + float(x)).Delta - 1.0), ""]
                for x in np.geomspace(1e-8, 1e-4, 20)]
    if cmd == "hardcore-sweep":
        config = lj.HardCoreConfig(spec, 1.01)
        sols = [lj.constrained_delta(config, float(A)) for A in np.linspace(1.1, 3.0, 39)]
        return [[_fmt(s.A), _fmt(s.Delta), s.branch, _fmt(s.residual), ""] for s in sols]
    rows = []
    for x in np.geomspace(1e-12, 1e-9, 12):
        jp = lj.junction(lj.HardCoreConfig(spec, 1.0 + float(x)))
        rows.append([_fmt(float(x)), _fmt(jp.A_star), _fmt(jp.delta_star), ""])
    return rows


class Cli(Workload):
    """Fresh `ljchain` processes, one at a time, in a seeded order.

    `mode` is "plain" for the timed run; a traced run switches it to
    "importtime" (python -X importtime) or "traced" (the layer tracer in
    the child, which writes its summary and spans next to `out_dir`).
    """
    name = "cli"
    tail = 90
    calibration = "process"

    def __init__(self, seed: int, root: str):
        super().__init__(seed, root)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.mode = "plain"
        self.out_dir = ""
        self.children: list[str] = []      # output stem of each traced child
        self.first: dict[str, bytes] = {}
        self.refs: dict[str, list[list[str]]] = {}

    def warm_up(self) -> None:
        subprocess.run([sys.executable, "-m", "ljchain.cli", "--help"], env=self.env,
                       cwd=self.root, stdout=subprocess.DEVNULL, check=True, timeout=60)

    def round(self) -> list:
        cmds = list(COMMANDS)
        self.rng.shuffle(cmds)
        return [("cli", c) for c in cmds]

    def run(self, task):
        cmd = task[1]
        if self.mode == "plain":
            pre = ["-m", "ljchain.cli"]
        elif self.mode == "importtime":
            pre = ["-X", "importtime", "-m", "ljchain.cli"]
        else:
            stem = os.path.join(self.out_dir, f"cli-child-{len(self.children)}")
            self.children.append(stem)
            pre = [os.path.join(self.root, "perfbench", "clirun.py"), stem]
        argv = [sys.executable, *pre, cmd, *EXTRA_ARGS.get(cmd, [])]
        p = subprocess.run(argv, env=self.env, cwd=self.root, capture_output=True, timeout=120)
        return p.returncode, p.stdout, p.stderr

    def check(self, task, out) -> str | None:
        cmd = task[1]
        rc, stdout, stderr = out
        if rc != 0:
            return f"{cmd} exited {rc}: {stderr.decode(errors='replace')[-300:]}"
        if cmd == "validate":
            stdout = _without_elapsed(stdout)
        first = self.first.setdefault(cmd, stdout)
        if stdout != first:
            return f"{cmd}: output differs between two invocations"
        if cmd == "validate":
            return self._check_validate(stdout)
        header, nrows = SUBCOMMANDS[cmd]
        rows = list(csv.reader(io.StringIO(stdout.decode())))
        table = [r for r in rows if not (r and r[0].startswith("#"))]
        if not table or table[0] != header:
            return f"{cmd}: header {table[:1]!r}"
        if len(table) - 1 != nrows:
            return f"{cmd}: {len(table) - 1} rows, expected {nrows}"
        if cmd not in self.refs:
            self.refs[cmd] = reference_rows(cmd)
        if table[1:] != self.refs[cmd]:
            return f"{cmd}: rows differ from the in-process library call"
        return None

    def _check_validate(self, stdout: bytes) -> str | None:
        lines = stdout.decode().splitlines()
        passed = sum(1 for line in lines if line.startswith("ok   "))
        summary = f"{VALIDATE_CHECKS} checks, 0 failures"
        if passed != VALIDATE_CHECKS or lines[-1:] != [summary]:
            return f"validate: {passed} checks passed, summary {lines[-1:]!r}"
        if "validate" not in self.refs:
            self.refs["validate"] = reference_validate()
        if stdout != self.refs["validate"]:
            return "validate: output differs from the in-process run"
        return None


WORKLOADS = {w.name: w for w in (Sweep, Scan, Crosscheck, Cli)}

"""Command-line front end: verification suites, claim sweeps, report files.

Exit codes: 0 on success, 2 when a hard identity misses its tolerance,
3 when --strict-claims is set and an audited claim is VIOLATED, 4 on I/O
failure, 64 on invalid configuration.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import fresnel, laplace, rhfe, traces
from .amplitudes import AmplitudeSpec
from .errors import DomainError, InsufficientPrecisionError
from .quad import QuadSpec
from .report import (CLAIM_IDS, IDENTITY_LABELS, ClaimReport, ClaimStatus,
                     make_report, reports_to_csv, reports_to_json)
from .specfun import theta, zeta_star

EXIT_OK = 0
EXIT_IDENTITY = 2
EXIT_CLAIMS = 3
EXIT_IO = 4
EXIT_CONFIG = 64

_SUITES = ("race", "reflection", "laplace", "fresnel", "theta",
           "newton-leibnitz", "trace-algebra", "all")


@dataclass
class RunConfig:
    command: str
    suite: str = "all"
    out: str | None = None
    format: str = "json"
    seed: int = 0
    digits: int = 60
    tol: float | None = None
    strict_claims: bool = False
    re: float = 0.75
    im: float = -2.0
    n: int = 1
    big_l: int = 5
    grid: bool = False


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with the config exit code."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


_CONFIG_COERCE = {
    "suite": str,
    "out": str,
    "format": str,
    "seed": int,
    "digits": int,
    "tol": float,
    "strict_claims": lambda s: s.strip().lower() in ("1", "true", "yes", "on"),
    "re": float,
    "im": float,
    "n": int,
    "l": int,
    "grid": lambda s: s.strip().lower() in ("1", "true", "yes", "on"),
}


def _load_config_file(path: str) -> dict:
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"line {ln}: expected key=value")
                key, val = line.split("=", 1)
                key = key.strip().lower().replace("-", "_")
                if key not in _CONFIG_COERCE:
                    raise ValueError(f"line {ln}: unknown key {key!r}")
                values[key] = _CONFIG_COERCE[key](val.strip())
    except OSError as exc:
        print(f"error: cannot read config file: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG) from exc
    except ValueError as exc:
        print(f"error: bad config file: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG) from exc
    return values


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--out", default=None, help="write the report here")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--digits", type=int, default=60)
    common.add_argument("--tol", type=float, default=None,
                        help="override the suite pass tolerance")
    common.add_argument("--strict-claims", action="store_true",
                        help="exit 3 if any audited claim is VIOLATED")
    common.add_argument("--config", default=None,
                        help="key=value file; explicit flags win")

    parser = _Parser(prog="zetacheck",
                     description="identity checks and claim audits")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run hard-identity suites")
    p_verify.add_argument("--suite", choices=_SUITES, default="all")

    p_traces = sub.add_parser("traces", parents=[common],
                              help="trace-sum audits at one argument")
    p_traces.add_argument("--re", type=float, default=0.75)
    p_traces.add_argument("--im", type=float, default=-2.0)
    p_traces.add_argument("--n", type=int, default=1)
    p_traces.add_argument("--l", dest="big_l", type=int, default=5)

    p_rhfe = sub.add_parser("rhfe", parents=[common],
                            help="final functional-equation audit")
    p_rhfe.add_argument("--re", type=float, default=0.75)
    p_rhfe.add_argument("--im", type=float, default=-2.0)
    p_rhfe.add_argument("--grid", action="store_true",
                        help="sweep the default region grid")

    sub.add_parser("gram", parents=[common],
                   help="kernel positive-definiteness audits")
    sub.add_parser("cm", parents=[common],
                   help="complete-monotonicity scan")
    sub.add_parser("ledger", parents=[common],
                   help="emit one report per manifest claim")
    return parser


def parse_args(argv: list[str]) -> RunConfig:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.config:
        file_vals = _load_config_file(ns.config)
        # Explicit flags win; file values fill in everything else.
        explicit = {tok[2:].split("=", 1)[0].replace("-", "_")
                    for tok in argv if tok.startswith("--")}
        for key, val in file_vals.items():
            if key in explicit:
                continue
            dest = "big_l" if key == "l" else key
            if hasattr(ns, dest):
                setattr(ns, dest, val)
    if ns.digits is not None and not (15 <= ns.digits <= 200):
        parser.error("digits must lie in [15, 200]")
    if ns.tol is not None and not (0.0 < ns.tol < 1.0):
        parser.error("tol must lie in (0, 1)")
    cfg = RunConfig(
        command=ns.command,
        suite=getattr(ns, "suite", "all"),
        out=ns.out,
        format=ns.format,
        seed=ns.seed,
        digits=ns.digits,
        tol=ns.tol,
        strict_claims=ns.strict_claims,
        re=getattr(ns, "re", 0.75),
        im=getattr(ns, "im", -2.0),
        n=getattr(ns, "n", 1),
        big_l=getattr(ns, "big_l", 5),
        grid=getattr(ns, "grid", False),
    )
    return cfg


# --------------------------------------------------------------------------
# Hard-identity suites.
# --------------------------------------------------------------------------


def _suite_race(tol: float | None) -> tuple[list[ClaimReport], bool]:
    thr = tol if tol is not None else 1e-8
    reports = []
    ok = True
    for u in (0.2, 0.35, 0.5, 0.65, 0.8):
        for v in (2.0, 6.5, 11.0, 15.5, 20.0):
            rep = rhfe.race_report(complex(u, v))
            reports.append(rep)
            ok = ok and rep.abs_residual <= thr
    return reports, ok


def _suite_reflection(tol: float | None) -> tuple[list[ClaimReport], bool]:
    thr = tol if tol is not None else 1e-9
    reports = []
    ok = True
    for t in (2.0, 5.0, 10.0, 14.0):
        s = complex(0.3, t)
        rep = make_report("race", IDENTITY_LABELS["race"],
                          {"check": "reflection", "s": s},
                          lhs=zeta_star(s), rhs=zeta_star(1.0 - s),
                          error_estimate=1e-13)
        reports.append(rep)
        ok = ok and rep.abs_residual <= thr
        rep2 = make_report("race", IDENTITY_LABELS["race"],
                           {"check": "critical-line-real", "t": t},
                           lhs=zeta_star(complex(0.5, t)).imag, rhs=0.0,
                           error_estimate=1e-13)
        reports.append(rep2)
        ok = ok and rep2.abs_residual <= thr
    return reports, ok


def _suite_laplace(tol: float | None) -> tuple[list[ClaimReport], bool]:
    reports = []
    ok = True
    inv_pts = [2.0 + 0.0j, 1.0 + 1.0j, 0.25 + 10.0j, 0.5 - 3.0j, 4.0 + 0.5j,
               0.3 + 0.0j, 1.5 - 0.7j, 0.25 - 1.0j, 3.0 + 8.0j, 0.8 + 2.2j]
    thr_inv = tol if tol is not None else 1e-8
    for z in inv_pts:
        rep = laplace.rep_inverse_z(z)
        reports.append(rep)
        ok = ok and rep.abs_residual <= thr_inv
    quad_pts = [1.0 + 0.0j, 3.0 + 4.0j, 0.5 + 2.0j, 2.0 - 1.0j, 1.0 + 5.0j,
                0.7 + 0.3j, 4.0 - 2.0j, 1.2 - 0.4j, 2.5 + 2.5j, 0.9 - 6.0j]
    thr_quad = tol if tol is not None else 1e-6
    for z in quad_pts:
        rep = laplace.rep_green_complex(z)
        reports.append(rep)
        ok = ok and rep.abs_residual <= thr_quad
    return reports, ok


def _suite_fresnel(tol: float | None, seed: int) -> tuple[list[ClaimReport], bool]:
    reports = []
    ok = True
    spec = QuadSpec(abs_tol=1e-11, rel_tol=1e-11)
    thr_closed = tol if tol is not None else 1e-9
    for nu in (0.5, 1.0, 2.0):
        for kind, closed in (("sin", fresnel.closed_form_sin),
                             ("cos", fresnel.closed_form_cos)):
            amp = AmplitudeSpec.exponential(1.0)
            got = (fresnel.fresnel_sin(amp, nu, spec) if kind == "sin"
                   else fresnel.fresnel_cos(amp, nu, spec))
            rep = make_report(
                "fresnel-closed-form", IDENTITY_LABELS["fresnel-closed-form"],
                {"check": f"closed-{kind}", "nu": nu},
                lhs=float(np.real(got.value)), rhs=closed(amp, nu),
                error_estimate=got.error_estimate + 1e-13,
            )
            reports.append(rep)
            ok = ok and rep.abs_residual <= thr_closed
    thr_classic = tol if tol is not None else 1e-6
    for nu in (0.5, 1.0, 2.0):
        got = fresnel.fresnel_sin(AmplitudeSpec.reciprocal(), nu, spec)
        rep = make_report(
            "fresnel-closed-form", IDENTITY_LABELS["fresnel-closed-form"],
            {"check": "half-pi", "nu": nu},
            lhs=float(np.real(got.value)), rhs=math.pi / 2.0,
            error_estimate=got.error_estimate + 1e-13,
        )
        reports.append(rep)
        ok = ok and rep.abs_residual <= thr_classic
        got2 = fresnel.fresnel_classic(nu, spec)
        rep2 = make_report(
            "fresnel-closed-form", IDENTITY_LABELS["fresnel-closed-form"],
            {"check": "classic", "nu": nu},
            lhs=float(np.real(got2.value)),
            rhs=fresnel.fresnel_classic_value(nu),
            error_estimate=got2.error_estimate + 1e-13,
        )
        reports.append(rep2)
        ok = ok and rep2.abs_residual <= thr_classic
    thr_deriv = tol if tol is not None else 1e-7
    for amp in (AmplitudeSpec.exponential(1.0), AmplitudeSpec.gaussian(1.0),
                AmplitudeSpec.rational(2.0)):
        resid, budget = fresnel.derivative_identity(amp, 1.5, spec)
        rep = make_report(
            "fresnel-derivative", IDENTITY_LABELS["fresnel-derivative"],
            {"check": "derivative", "family": amp.family.name},
            lhs=resid, rhs=0.0, error_estimate=budget,
        )
        reports.append(rep)
        ok = ok and resid <= thr_deriv
    audit = fresnel.positivity_audit(seed=20260815 + seed)
    reports.append(audit)
    ok = ok and audit.status == ClaimStatus.CONFIRMED
    return reports, ok


def _suite_theta(tol: float | None) -> tuple[list[ClaimReport], bool]:
    thr = tol if tol is not None else 1e-12
    reports = []
    ok = True
    for x in np.linspace(0.1, 10.0, 20):
        lhs = 2.0 * theta(1.0 / x) + 1.0
        rhs = math.sqrt(x) * (2.0 * theta(x) + 1.0)
        rep = make_report("theta-jacobi", IDENTITY_LABELS["theta-jacobi"],
                          {"x": float(x)}, lhs=lhs, rhs=rhs,
                          error_estimate=1e-14)
        reports.append(rep)
        ok = ok and rep.abs_residual <= thr
    return reports, ok


def _suite_newton_leibnitz(tol: float | None,
                           seed: int) -> tuple[list[ClaimReport], bool]:
    thr = tol if tol is not None else 1e-9
    rng = np.random.default_rng(20260815 + seed)
    worst = 0.0
    done = 0
    while done < 100:
        w = float(rng.uniform(-3.0, 2.0))
        v = float(rng.uniform(0.25, 8.0)
                  * (1.0 if rng.random() < 0.5 else -1.0))
        big_n = float(rng.uniform(0.1, 2.0 * math.pi))
        if big_n * w > 8.0:
            continue
        closed = rhfe.newton_leibnitz(w, v, big_n)
        quad = rhfe.newton_leibnitz_quadrature(w, v, big_n)
        worst = max(worst, abs(closed - float(np.real(quad.value))))
        done += 1
    rep = make_report(
        "newton-leibnitz", IDENTITY_LABELS["newton-leibnitz"],
        {"samples": 100, "seed": seed},
        lhs=worst, rhs=0.0, error_estimate=1e-11,
        notes="lhs is the worst |closed form - quadrature| over the samples",
    )
    return [rep], worst <= thr


def _suite_trace_algebra(tol: float | None,
                         seed: int) -> tuple[list[ClaimReport], bool]:
    thr_dec = tol if tol is not None else 1e-11
    thr_bridge = tol if tol is not None else 1e-12
    rng = np.random.default_rng(20260815 + seed)
    worst_dec = 0.0
    worst_bridge = 0.0
    for _ in range(200):
        j = int(rng.integers(0, 101))
        s = complex(rng.uniform(0.05, 0.95), rng.uniform(0.5, 9.0)
                    * (1.0 if rng.random() < 0.5 else -1.0))
        rep = traces.trace_decomposition_check(j, s)
        worst_dec = max(worst_dec, rep.abs_residual)
        worst_bridge = max(worst_bridge, traces.bridge_residual(j, s))
    reports = [
        make_report(
            "trace-decomposition", IDENTITY_LABELS["trace-decomposition"],
            {"samples": 200, "seed": seed}, lhs=worst_dec, rhs=0.0,
            error_estimate=1e-13,
            notes="lhs is the worst residual over the samples"),
        make_report(
            "bridge", IDENTITY_LABELS["bridge"],
            {"samples": 200, "seed": seed}, lhs=worst_bridge, rhs=0.0,
            error_estimate=1e-14,
            notes="lhs is the worst termwise bridge residual over the samples"),
    ]
    return reports, worst_dec <= thr_dec and worst_bridge <= thr_bridge


def run_verify(cfg: RunConfig) -> tuple[list[ClaimReport], int]:
    picked = _SUITES[:-1] if cfg.suite == "all" else (cfg.suite,)
    reports: list[ClaimReport] = []
    all_ok = True
    for name in picked:
        if name == "race":
            rs, ok = _suite_race(cfg.tol)
        elif name == "reflection":
            rs, ok = _suite_reflection(cfg.tol)
        elif name == "laplace":
            rs, ok = _suite_laplace(cfg.tol)
        elif name == "fresnel":
            rs, ok = _suite_fresnel(cfg.tol, cfg.seed)
        elif name == "theta":
            rs, ok = _suite_theta(cfg.tol)
        elif name == "newton-leibnitz":
            rs, ok = _suite_newton_leibnitz(cfg.tol, cfg.seed)
        else:
            rs, ok = _suite_trace_algebra(cfg.tol, cfg.seed)
        reports.extend(rs)
        all_ok = all_ok and ok
    return reports, EXIT_OK if all_ok else EXIT_IDENTITY


# --------------------------------------------------------------------------
# Claim-audit commands.
# --------------------------------------------------------------------------


def _series_headroom(n_max: int, digits_floor: int) -> tuple[int, int]:
    """j_max and digits large enough for the exp(pi*n^2) series peak."""
    peak = math.ceil(math.pi * n_max * n_max)
    j_max = max(400, 4 * peak + 50)
    digits = max(digits_floor, 40,
                 17 + math.ceil(math.pi * n_max * n_max / math.log(10.0)))
    return j_max, digits


def run_traces(cfg: RunConfig) -> list[ClaimReport]:
    if not 0.0 < cfg.re < 1.0:
        # The Poisson routes run at s and at 1 - s, so both need re > 0.
        raise DomainError(f"traces needs re(s) in the open strip (0, 1), "
                          f"got {cfg.re}")
    s = complex(cfg.re, cfg.im)
    n_top = max(3, cfg.n)
    j_max, digits = _series_headroom(n_top, cfg.digits)
    p = traces.TraceParams(s, j_max=j_max, n_max=n_top, digits=digits)
    reports = [traces.trace_decomposition_check(cfg.n, s)]
    reports.append(traces.hausdorff_moment_audit(
        s, 20, 20, cfg.digits, allow_outside_region=True))
    reports.append(traces.tr_cg_total(p))
    if s.imag > 0:
        reports.append(traces.poisson_vanishing_audit(cfg.n, s, cfg.big_l))
    else:
        reports.append(traces.poisson_vanishing_audit(
            cfg.n, s.conjugate(), cfg.big_l))
    j_max_dec, digits_dec = _series_headroom(max(1, cfg.n),
                                             max(cfg.digits, 50))
    reports.append(rhfe.decomposition_audit(
        cfg.n, s, cfg.big_l,
        traces.TraceParams(s, j_max_dec, max(1, cfg.n), 5, digits_dec)))
    return reports


def run_rhfe(cfg: RunConfig) -> list[ClaimReport]:
    j_max, digits = _series_headroom(3, cfg.digits)
    if cfg.grid:
        reports = []
        for u in (0.55, 0.65, 0.75, 0.85, 0.95):
            for v in (-2.0, -4.0, -6.0, -8.0, -10.0):
                p = traces.TraceParams(complex(u, v), j_max=j_max, n_max=3,
                                       digits=digits)
                reports.append(rhfe.rhfe_residual(complex(u, v), p))
        return reports
    s = complex(cfg.re, cfg.im)
    p = traces.TraceParams(s, j_max=j_max, n_max=3, digits=digits)
    return [rhfe.rhfe_residual(s, p, allow_outside_region=True)]


def run_gram(cfg: RunConfig) -> list[ClaimReport]:
    diag = laplace.GramSample(points=tuple((t, t) for t in
                                           (0.2, 0.5, 1.0, 2.0, 5.0)))
    pair = laplace.GramSample(points=((1.0, 0.1), (0.1, 1.0)),
                              weights=(1.0, -1.0))
    return [
        laplace.gram_psd_check(diag),
        laplace.gram_psd_check(pair),
        laplace.lhpd_falsify(seed=20260815 + cfg.seed),
    ]


def run_cm(cfg: RunConfig) -> list[ClaimReport]:
    grid = laplace.GridRect(0.5, 2.5, 0.5, 2.5, nx=5, ny=5)
    return [laplace.cm_scan(grid, order=1, h=0.05),
            laplace.cm_scan(grid, order=2, h=0.05)]


def run_ledger(cfg: RunConfig) -> list[ClaimReport]:
    """One report per manifest claim id, in manifest order, deterministic."""
    s_audit = 0.75 - 2.0j
    p_audit = traces.TraceParams(s_audit, j_max=400, n_max=3,
                                 digits=max(cfg.digits, 50))
    direct, factored = laplace.rep_green_fresnel(1.0 + 0.0j)
    pair = laplace.GramSample(points=((1.0, 0.1), (0.1, 1.0)),
                              weights=(1.0, -1.0))
    by_id = {
        "gram-psd": lambda: laplace.gram_psd_check(pair),
        "lhpd-search": lambda: laplace.lhpd_falsify(seed=20260815 + cfg.seed),
        "cm-scan": lambda: laplace.cm_scan(
            laplace.GridRect(0.5, 2.5, 0.5, 2.5, nx=5, ny=5), order=2),
        "green-fresnel-direct": lambda: direct,
        "green-fresnel-factored": lambda: factored,
        "fresnel-positivity": lambda: fresnel.positivity_audit(
            seed=20260815 + cfg.seed),
        "poisson-vanishing": lambda: traces.poisson_vanishing_audit(),
        "hausdorff-moments": lambda: traces.hausdorff_moment_audit(
            s_audit, 20, 20, cfg.digits),
        "j-decomposition": lambda: rhfe.decomposition_audit(
            1, s_audit, 5, p_audit),
        "trace-total-positivity": lambda: traces.tr_cg_total(p_audit),
        "rhfe": lambda: rhfe.rhfe_residual(s_audit, p_audit),
    }
    return [by_id[claim_id]() for claim_id in CLAIM_IDS]


# --------------------------------------------------------------------------
# Entry point.
# --------------------------------------------------------------------------


def _emit(reports: list[ClaimReport], cfg: RunConfig) -> int:
    payload = (reports_to_json(reports) if cfg.format == "json"
               else reports_to_csv(reports))
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    cfg = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if cfg.command == "verify":
            reports, code = run_verify(cfg)
        else:
            runner = {"traces": run_traces, "rhfe": run_rhfe,
                      "gram": run_gram, "cm": run_cm,
                      "ledger": run_ledger}[cfg.command]
            reports = runner(cfg)
            code = EXIT_OK
    except (DomainError, InsufficientPrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    io_code = _emit(reports, cfg)
    if io_code != EXIT_OK:
        return io_code
    if code != EXIT_OK:
        return code
    if cfg.strict_claims and any(r.status == ClaimStatus.VIOLATED
                                 for r in reports):
        return EXIT_CLAIMS
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

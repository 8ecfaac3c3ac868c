"""Command-line front end: verification suites, claim sweeps, report files.

Exit codes: 0 on success, 2 when a hard identity misses its tolerance,
3 when --strict-claims is set and an audited claim is VIOLATED, 4 on I/O
failure, 64 on invalid configuration.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from . import fresnel, laplace, rhfe, traces
from .amplitudes import AmplitudeSpec
from .errors import DomainError, InsufficientPrecisionError
from .quad import QuadSpec
from .report import (CLAIM_IDS, ClaimReport, ClaimStatus, make_report,
                     reports_to_csv, reports_to_json)
from .specfun import theta, zeta_star

EXIT_OK = 0
EXIT_IDENTITY = 2
EXIT_CLAIMS = 3
EXIT_IO = 4
EXIT_CONFIG = 64

_FORMATS = ("json", "csv")


# --------------------------------------------------------------------------
# Hard-identity suites.
# --------------------------------------------------------------------------
# Package functions are called through their module attribute when a check
# runs, not bound into the table, so a wrapper installed on the attribute
# (as perfbench/spans.py does) sees every call.

_SEED_BASE = 20260815
_SPEC_FRESNEL = QuadSpec(abs_tol=1e-11, rel_tol=1e-11)


class _Check(NamedTuple):
    """Reports of one check and the bound each must meet.

    A report passes when its abs_residual is at most --tol, or `threshold`
    without --tol.  With `threshold` None it must be CONFIRMED instead,
    whatever --tol says.
    """

    threshold: float | None
    evaluate: Callable[[int], list[ClaimReport]]


def _over(points, *audits: Callable[[Any], ClaimReport]
          ) -> Callable[[int], list[ClaimReport]]:
    """Evaluator running each audit at each point, audits innermost."""
    return lambda seed: [audit(x) for x in points for audit in audits]


def _reflection(t: float) -> ClaimReport:
    t0 = time.perf_counter()
    s = complex(0.3, t)
    return make_report("race", {"check": "reflection", "s": s},
                       lhs=zeta_star(s), rhs=zeta_star(1.0 - s),
                       error_estimate=1e-13, started=t0)


def _critical_line_real(t: float) -> ClaimReport:
    t0 = time.perf_counter()
    return make_report("race", {"check": "critical-line-real", "t": t},
                       lhs=zeta_star(complex(0.5, t)).imag, rhs=0.0,
                       error_estimate=1e-13, started=t0)


def _fresnel_closed(kind: str) -> Callable[[float], ClaimReport]:
    def check(nu: float) -> ClaimReport:
        t0 = time.perf_counter()
        amp = AmplitudeSpec.exponential(1.0)
        if kind == "sin":
            got = fresnel.fresnel_sin(amp, nu, _SPEC_FRESNEL)
            closed = fresnel.closed_form_sin(amp, nu)
        else:
            got = fresnel.fresnel_cos(amp, nu, _SPEC_FRESNEL)
            closed = fresnel.closed_form_cos(amp, nu)
        return make_report("fresnel-closed-form",
                           {"check": f"closed-{kind}", "nu": nu},
                           lhs=float(np.real(got.value)), rhs=closed,
                           error_estimate=got.error_estimate + 1e-13,
                           started=t0)
    return check


def _half_pi(nu: float) -> ClaimReport:
    t0 = time.perf_counter()
    got = fresnel.fresnel_sin(AmplitudeSpec.reciprocal(), nu, _SPEC_FRESNEL)
    return make_report("fresnel-closed-form", {"check": "half-pi", "nu": nu},
                       lhs=float(np.real(got.value)), rhs=math.pi / 2.0,
                       error_estimate=got.error_estimate + 1e-13, started=t0)


def _fresnel_classic(nu: float) -> ClaimReport:
    t0 = time.perf_counter()
    got = fresnel.fresnel_classic(nu, _SPEC_FRESNEL)
    return make_report("fresnel-closed-form", {"check": "classic", "nu": nu},
                       lhs=float(np.real(got.value)),
                       rhs=fresnel.fresnel_classic_value(nu),
                       error_estimate=got.error_estimate + 1e-13, started=t0)


def _fresnel_derivative(amp: AmplitudeSpec) -> ClaimReport:
    t0 = time.perf_counter()
    resid, budget = fresnel.derivative_identity(amp, 1.5, _SPEC_FRESNEL)
    return make_report("fresnel-derivative",
                       {"check": "derivative", "family": amp.family.name},
                       lhs=resid, rhs=0.0, error_estimate=budget, started=t0)


def _theta_jacobi(x: float) -> ClaimReport:
    t0 = time.perf_counter()
    return make_report("theta-jacobi", {"x": float(x)},
                       lhs=2.0 * theta(1.0 / x) + 1.0,
                       rhs=math.sqrt(x) * (2.0 * theta(x) + 1.0),
                       error_estimate=1e-14, started=t0)


def _newton_leibnitz(seed: int) -> list[ClaimReport]:
    t0 = time.perf_counter()
    rng = np.random.default_rng(_SEED_BASE + seed)
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
    return [make_report(
        "newton-leibnitz", {"samples": 100, "seed": seed},
        lhs=worst, rhs=0.0, error_estimate=1e-11, started=t0,
        notes="lhs is the worst |closed form - quadrature| over the samples",
    )]


def _trace_samples(seed: int) -> list[tuple[int, complex]]:
    """The 200 seeded (j, s) samples shared by the trace-algebra checks."""
    rng = np.random.default_rng(_SEED_BASE + seed)
    samples = []
    for _ in range(200):
        j = int(rng.integers(0, 101))
        samples.append((j, complex(rng.uniform(0.05, 0.95),
                                   rng.uniform(0.5, 9.0)
                                   * (1.0 if rng.random() < 0.5 else -1.0))))
    return samples


def _worst_trace_residual(claim_id: str,
                          residual: Callable[[int, complex], float],
                          error_estimate: float,
                          notes: str) -> Callable[[int], list[ClaimReport]]:
    """Evaluator reporting the worst residual over the trace samples."""
    def evaluate(seed: int) -> list[ClaimReport]:
        t0 = time.perf_counter()
        worst = 0.0
        for j, s in _trace_samples(seed):
            worst = max(worst, residual(j, s))
        return [make_report(claim_id, {"samples": 200, "seed": seed},
                            lhs=worst, rhs=0.0, error_estimate=error_estimate,
                            started=t0, notes=notes)]
    return evaluate


_NUS = (0.5, 1.0, 2.0)

# Suite name -> checks, run in order; `verify --suite all` runs every suite
# in table order.
_SUITES: dict[str, tuple[_Check, ...]] = {
    "race": (
        _Check(1e-8, _over([complex(u, v) for u in (0.2, 0.35, 0.5, 0.65, 0.8)
                            for v in (2.0, 6.5, 11.0, 15.5, 20.0)],
                           lambda s: rhfe.race_report(s))),
    ),
    "reflection": (
        _Check(1e-9, _over((2.0, 5.0, 10.0, 14.0),
                           _reflection, _critical_line_real)),
    ),
    "laplace": (
        _Check(1e-8, _over((2.0 + 0.0j, 1.0 + 1.0j, 0.25 + 10.0j, 0.5 - 3.0j,
                            4.0 + 0.5j, 0.3 + 0.0j, 1.5 - 0.7j, 0.25 - 1.0j,
                            3.0 + 8.0j, 0.8 + 2.2j),
                           lambda z: laplace.rep_inverse_z(z))),
        _Check(1e-6, _over((1.0 + 0.0j, 3.0 + 4.0j, 0.5 + 2.0j, 2.0 - 1.0j,
                            1.0 + 5.0j, 0.7 + 0.3j, 4.0 - 2.0j, 1.2 - 0.4j,
                            2.5 + 2.5j, 0.9 - 6.0j),
                           lambda z: laplace.rep_green_complex(z))),
    ),
    "fresnel": (
        _Check(1e-9, _over(_NUS, _fresnel_closed("sin"),
                           _fresnel_closed("cos"))),
        _Check(1e-6, _over(_NUS, _half_pi, _fresnel_classic)),
        _Check(1e-7, _over((AmplitudeSpec.exponential(1.0),
                            AmplitudeSpec.gaussian(1.0),
                            AmplitudeSpec.rational(2.0)),
                           _fresnel_derivative)),
        _Check(None, lambda seed: [
            fresnel.positivity_audit(seed=_SEED_BASE + seed)]),
    ),
    "theta": (
        _Check(1e-12, _over(np.linspace(0.1, 10.0, 20), _theta_jacobi)),
    ),
    "newton-leibnitz": (_Check(1e-9, _newton_leibnitz),),
    "trace-algebra": (
        _Check(1e-11, _worst_trace_residual(
            "trace-decomposition",
            lambda j, s: traces.trace_decomposition_check(j, s).abs_residual,
            1e-13, "lhs is the worst residual over the samples")),
        _Check(1e-12, _worst_trace_residual(
            "bridge", lambda j, s: traces.bridge_residual(j, s), 1e-14,
            "lhs is the worst termwise bridge residual over the samples")),
    ),
}
_SUITE_CHOICES = (*_SUITES, "all")


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


def _one_of(choices: tuple[str, ...]) -> Callable[[str], str]:
    def coerce(value: str) -> str:
        if value not in choices:
            raise ValueError(f"{value!r} is not one of {', '.join(choices)}")
        return value
    return coerce


_CONFIG_COERCE = {
    "suite": _one_of(_SUITE_CHOICES),
    "out": str,
    "format": _one_of(_FORMATS),
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
    common.add_argument("--format", choices=_FORMATS, default="json")
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
    p_verify.add_argument("--suite", choices=_SUITE_CHOICES, default="all")

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


def run_verify(cfg: RunConfig) -> tuple[list[ClaimReport], int]:
    names = list(_SUITES) if cfg.suite == "all" else [cfg.suite]
    reports: list[ClaimReport] = []
    all_ok = True
    for name in names:
        for threshold, evaluate in _SUITES[name]:
            for rep in evaluate(cfg.seed):
                reports.append(rep)
                if threshold is None:
                    ok = rep.status == ClaimStatus.CONFIRMED
                else:
                    bound = cfg.tol if cfg.tol is not None else threshold
                    ok = rep.abs_residual <= bound
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
        laplace.lhpd_falsify(seed=_SEED_BASE + cfg.seed),
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
        "lhpd-search": lambda: laplace.lhpd_falsify(
            seed=_SEED_BASE + cfg.seed),
        "cm-scan": lambda: laplace.cm_scan(
            laplace.GridRect(0.5, 2.5, 0.5, 2.5, nx=5, ny=5), order=2),
        "green-fresnel-direct": lambda: direct,
        "green-fresnel-factored": lambda: factored,
        "fresnel-positivity": lambda: fresnel.positivity_audit(
            seed=_SEED_BASE + cfg.seed),
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

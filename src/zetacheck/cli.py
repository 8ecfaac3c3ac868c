"""Command-line front end: verification suites, claim sweeps, report files.

Exit codes: 0 on success, 2 when a hard identity misses its tolerance or
does not read CONFIRMED, 3 when --strict-claims is set and an audited claim
is VIOLATED, 4 on I/O failure, 64 on invalid configuration.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from . import fresnel, laplace, quad, rhfe, traces
from .amplitudes import AmplitudeSpec
from .errors import DomainError, InsufficientPrecisionError
from .quad import OscKind, QuadResult, QuadSpec
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

    A report passes when it is CONFIRMED and its abs_residual is at most
    --tol, or `threshold` without --tol.  A CONFIRMED sign audit has
    abs_residual 0, so its threshold is 0.
    """

    threshold: float
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


def _closed_forms(nus: tuple[float, ...],
                  *checks: tuple[str, Callable[[list[float]],
                                               list[QuadResult]],
                                 Callable[[float], float]]
                  ) -> Callable[[int], list[ClaimReport]]:
    """Evaluator auditing Fresnel transforms against their closed forms.

    A check is (name, transforms, closed): transforms(nus) gives the
    transform at every nu in one call, closed(nu) its exact value.  The
    reports come as _over orders them, checks innermost, each timed from
    the start of the batch.
    """
    def evaluate(seed: int) -> list[ClaimReport]:
        t0 = time.perf_counter()
        got = [transforms(list(nus)) for _, transforms, _ in checks]
        return [make_report("fresnel-closed-form", {"check": name, "nu": nu},
                            lhs=float(np.real(res[i].value)), rhs=closed(nu),
                            error_estimate=res[i].error_estimate + 1e-13,
                            started=t0, converged=res[i].converged)
                for i, nu in enumerate(nus)
                for (name, _, closed), res in zip(checks, got)]
    return evaluate


def _transforms(amp: AmplitudeSpec, kind: OscKind
                ) -> Callable[[list[float]], list[QuadResult]]:
    """The transforms of amp at a list of frequencies, in one call."""
    return lambda nus: quad.integrate_oscillatory_rows(
        [amp] * len(nus), nus, kind, _SPEC_FRESNEL)


def _fresnel_derivatives(amps: tuple[AmplitudeSpec, ...], nu: float
                         ) -> Callable[[int], list[ClaimReport]]:
    """Evaluator of the derivative identity of every amplitude at nu, in
    one call, each report timed from the start of the batch."""
    def evaluate(seed: int) -> list[ClaimReport]:
        t0 = time.perf_counter()
        rows = fresnel.derivative_identity_rows(amps, [nu] * len(amps),
                                                _SPEC_FRESNEL)
        return [make_report("fresnel-derivative",
                            {"check": "derivative", "family": amp.family.name},
                            lhs=resid, rhs=0.0, error_estimate=budget,
                            started=t0, converged=ok)
                for amp, (resid, budget, ok) in zip(amps, rows)]
    return evaluate


def _theta_jacobi(x: float) -> ClaimReport:
    t0 = time.perf_counter()
    return make_report("theta-jacobi", {"x": float(x)},
                       lhs=2.0 * theta(1.0 / x) + 1.0,
                       rhs=math.sqrt(x) * (2.0 * theta(x) + 1.0),
                       error_estimate=1e-14, started=t0)


def _newton_leibnitz_samples(seed: int) -> list[tuple[float, float, float]]:
    """The 100 seeded (w, v, N) samples, N w <= 8, of the newton-leibnitz
    check."""
    rng = np.random.default_rng(_SEED_BASE + seed)
    samples = []
    while len(samples) < 100:
        w = float(rng.uniform(-3.0, 2.0))
        v = float(rng.uniform(0.25, 8.0)
                  * (1.0 if rng.random() < 0.5 else -1.0))
        big_n = float(rng.uniform(0.1, 2.0 * math.pi))
        if big_n * w <= 8.0:
            samples.append((w, v, big_n))
    return samples


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


def _worst_residual(claim_id: str, samples: Callable[[int], list[tuple]],
                    residual: Callable[..., tuple[float, bool]],
                    error_estimate: float,
                    notes: str) -> Callable[[int], list[ClaimReport]]:
    """Evaluator reporting the worst residual over samples(seed), where
    residual(*sample) gives a sample's residual and whether it converged;
    the report converged when every sample did."""
    def evaluate(seed: int) -> list[ClaimReport]:
        t0 = time.perf_counter()
        drawn = samples(seed)
        resid, converged = zip(*(residual(*x) for x in drawn))
        # np.max propagates NaN, so one NaN sample makes the report VIOLATED.
        worst = float(np.max(resid, initial=0.0))
        return [make_report(claim_id, {"samples": len(drawn), "seed": seed},
                            lhs=worst, rhs=0.0, error_estimate=error_estimate,
                            started=t0, converged=all(converged),
                            notes=notes)]
    return evaluate


def _newton_leibnitz_residual(w: float, v: float,
                              big_n: float) -> tuple[float, bool]:
    """|closed form - quadrature| of one newton-leibnitz sample, and
    whether the quadrature converged."""
    q = rhfe.newton_leibnitz_quadrature(w, v, big_n)
    return (abs(rhfe.newton_leibnitz(w, v, big_n) - float(np.real(q.value))),
            q.converged)


_NUS = (0.5, 1.0, 2.0)
_RACE_POINTS = tuple(complex(u, v) for u in (0.2, 0.35, 0.5, 0.65, 0.8)
                     for v in (2.0, 6.5, 11.0, 15.5, 20.0))

# Suite name -> checks, run in order; `verify --suite all` runs every suite
# in table order.
_SUITES: dict[str, tuple[_Check, ...]] = {
    "race": (
        _Check(1e-8, lambda seed: rhfe.race_reports(_RACE_POINTS)),
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
        _Check(1e-9, _closed_forms(
            _NUS,
            ("closed-sin", _transforms(AmplitudeSpec.exponential(1.0),
                                       OscKind.SIN),
             lambda nu: fresnel.closed_form_sin(
                 AmplitudeSpec.exponential(1.0), nu)),
            ("closed-cos", _transforms(AmplitudeSpec.exponential(1.0),
                                       OscKind.COS),
             lambda nu: fresnel.closed_form_cos(
                 AmplitudeSpec.exponential(1.0), nu)))),
        _Check(1e-6, _closed_forms(
            _NUS,
            ("half-pi", _transforms(AmplitudeSpec.reciprocal(), OscKind.SIN),
             lambda nu: fresnel.closed_form_sin(
                 AmplitudeSpec.reciprocal(), nu)),
            ("classic",
             lambda nus: fresnel.fresnel_classic_rows(nus, _SPEC_FRESNEL),
             lambda nu: fresnel.fresnel_classic_value(nu)))),
        _Check(1e-7, _fresnel_derivatives((AmplitudeSpec.exponential(1.0),
                                           AmplitudeSpec.gaussian(1.0),
                                           AmplitudeSpec.rational(2.0)),
                                          1.5)),
        _Check(0.0, lambda seed: [
            fresnel.positivity_audit(seed=_SEED_BASE + seed)]),
    ),
    "theta": (
        _Check(1e-12, _over(np.linspace(0.1, 10.0, 20), _theta_jacobi)),
    ),
    "newton-leibnitz": (
        _Check(1e-9, _worst_residual(
            "newton-leibnitz", _newton_leibnitz_samples,
            _newton_leibnitz_residual, 1e-11,
            "lhs is the worst |closed form - quadrature| over the samples")),
    ),
    "trace-algebra": (
        _Check(1e-11, _worst_residual(
            "trace-decomposition", _trace_samples,
            lambda j, s: (traces.trace_decomposition_check(j, s).abs_residual,
                          True),
            1e-13, "lhs is the worst residual over the samples")),
        _Check(1e-12, _worst_residual(
            "bridge", _trace_samples,
            lambda j, s: (traces.bridge_residual(j, s), True), 1e-14,
            "lhs is the worst termwise bridge residual over the samples")),
    ),
}
_SUITE_CHOICES = (*_SUITES, "all")


# --------------------------------------------------------------------------
# Run configuration and the verify command.
# --------------------------------------------------------------------------


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


def run_verify(cfg: RunConfig) -> tuple[list[ClaimReport], int]:
    names = list(_SUITES) if cfg.suite == "all" else [cfg.suite]
    reports: list[ClaimReport] = []
    all_ok = True
    for name in names:
        for threshold, evaluate in _SUITES[name]:
            for rep in evaluate(cfg.seed):
                reports.append(rep)
                bound = cfg.tol if cfg.tol is not None else threshold
                all_ok = (all_ok and rep.status == ClaimStatus.CONFIRMED
                          and rep.abs_residual <= bound)
    return reports, EXIT_OK if all_ok else EXIT_IDENTITY


# --------------------------------------------------------------------------
# Claim-audit commands.
# --------------------------------------------------------------------------


def run_traces(cfg: RunConfig) -> list[ClaimReport]:
    if cfg.n < 1:
        raise DomainError(f"--n must be >= 1, got {cfg.n}")
    if cfg.big_l < 0:
        raise DomainError(f"--l must be >= 0, got {cfg.big_l}")
    if not 0.0 < cfg.re < 1.0:
        # The Poisson routes run at s and at 1 - s, so both need re > 0.
        raise DomainError(f"traces needs re(s) in the open strip (0, 1), "
                          f"got {cfg.re}")
    s = complex(cfg.re, cfg.im)
    p = traces.TraceParams(s, max(3, cfg.n), cfg.digits)
    reports = [traces.trace_decomposition_check(cfg.n, s)]
    reports.append(traces.hausdorff_moment_audit(
        s, cfg.digits, allow_outside_region=True))
    reports.append(traces.tr_cg_total(p))
    reports.append(traces.poisson_vanishing_audit(
        cfg.n, complex(s.real, abs(s.imag)), cfg.big_l))
    reports.append(rhfe.decomposition_audit(cfg.n, s, cfg.big_l, cfg.digits))
    return reports


def run_rhfe(cfg: RunConfig) -> list[ClaimReport]:
    if cfg.grid:
        return [rhfe.rhfe_residual(complex(u, v), cfg.digits)
                for u in (0.55, 0.65, 0.75, 0.85, 0.95)
                for v in (-2.0, -4.0, -6.0, -8.0, -10.0)]
    return [rhfe.rhfe_residual(complex(cfg.re, cfg.im), cfg.digits,
                               allow_outside_region=True)]


# The signed sample shared by gram and ledger.
_SIGNED_PAIR = laplace.GramSample(points=((1.0, 0.1), (0.1, 1.0)),
                                  weights=(1.0, -1.0))


def run_gram(cfg: RunConfig) -> list[ClaimReport]:
    diag = laplace.GramSample(points=tuple((t, t) for t in
                                           (0.2, 0.5, 1.0, 2.0, 5.0)))
    return [
        laplace.gram_psd_check(diag),
        laplace.gram_psd_check(_SIGNED_PAIR),
        laplace.lhpd_falsify(seed=_SEED_BASE + cfg.seed),
    ]


def run_cm(cfg: RunConfig) -> list[ClaimReport]:
    return [laplace.cm_scan(order=1), laplace.cm_scan(order=2)]


def run_ledger(cfg: RunConfig) -> list[ClaimReport]:
    """One report per manifest claim id, in manifest order, deterministic."""
    s_audit = 0.75 - 2.0j
    digits = max(cfg.digits, 50)
    direct, factored = laplace.rep_green_fresnel(1.0 + 2.0j)
    by_id = {
        "gram-psd": lambda: laplace.gram_psd_check(_SIGNED_PAIR),
        "lhpd-search": lambda: laplace.lhpd_falsify(
            seed=_SEED_BASE + cfg.seed),
        "cm-scan": lambda: laplace.cm_scan(order=2),
        "green-fresnel-direct": lambda: direct,
        "green-fresnel-factored": lambda: factored,
        "fresnel-positivity": lambda: fresnel.positivity_audit(
            seed=_SEED_BASE + cfg.seed),
        "poisson-vanishing": lambda: traces.poisson_vanishing_audit(),
        "hausdorff-moments": lambda: traces.hausdorff_moment_audit(
            s_audit, cfg.digits),
        "j-decomposition": lambda: rhfe.decomposition_audit(
            1, s_audit, 5, digits),
        "trace-total-positivity": lambda: traces.tr_cg_total(
            traces.TraceParams(s_audit, digits=digits)),
        "rhfe": lambda: rhfe.rhfe_residual(s_audit, digits),
    }
    return [by_id[claim_id]() for claim_id in CLAIM_IDS]


# --------------------------------------------------------------------------
# Subcommands and their options.
# --------------------------------------------------------------------------

# A runner returns the reports and the exit code they earn before
# --strict-claims is applied.
_Runner = Callable[[RunConfig], tuple[list[ClaimReport], int]]


def _audits(run: Callable[[RunConfig], list[ClaimReport]]) -> _Runner:
    """Runner for a claim-audit command, whose reports set no exit code."""
    return lambda cfg: (run(cfg), EXIT_OK)


class _Command(NamedTuple):
    help: str
    run: _Runner


_COMMANDS: dict[str, _Command] = {
    "verify": _Command("run hard-identity suites", run_verify),
    "traces": _Command("trace-sum audits at one argument",
                       _audits(run_traces)),
    "rhfe": _Command("final functional-equation audit", _audits(run_rhfe)),
    "gram": _Command("kernel positive-definiteness audits",
                     _audits(run_gram)),
    "cm": _Command("complete-monotonicity scan", _audits(run_cm)),
    "ledger": _Command("emit one report per manifest claim",
                       _audits(run_ledger)),
}

_EVERY_COMMAND = tuple(_COMMANDS)


class _Option(NamedTuple):
    """One flag: the subcommands that take it and its add_argument keywords.

    Its default lives in RunConfig alone.  The flag name with "-" written
    as "_" is its config-file key.
    """

    commands: tuple[str, ...]
    kwargs: dict[str, Any]


_OPTIONS: dict[str, _Option] = {
    "--out": _Option(_EVERY_COMMAND, {"help": "write the report here"}),
    "--format": _Option(_EVERY_COMMAND, {"choices": _FORMATS}),
    "--seed": _Option(_EVERY_COMMAND, {"type": int}),
    "--digits": _Option(_EVERY_COMMAND, {"type": int}),
    "--tol": _Option(_EVERY_COMMAND, {
        "type": float, "help": "override the suite pass tolerance"}),
    "--strict-claims": _Option(_EVERY_COMMAND, {
        "action": "store_true",
        "help": "exit 3 if any audited claim is VIOLATED"}),
    "--suite": _Option(("verify",), {"choices": _SUITE_CHOICES}),
    "--re": _Option(("traces", "rhfe"), {"type": float}),
    "--im": _Option(("traces", "rhfe"), {"type": float}),
    "--n": _Option(("traces",), {"type": int}),
    "--l": _Option(("traces",), {"dest": "big_l", "type": int}),
    "--grid": _Option(("rhfe",), {"action": "store_true",
                                  "help": "sweep the default region grid"}),
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with the config exit code."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # A negative number is a value, not a flag, in exponent form too
        # (--im -1e-3), and so are -inf and -nan, which the commands then
        # reject as not finite; argparse itself takes only -12 and -1.5.
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$",
            re.IGNORECASE)

    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _file_value(kwargs: dict[str, Any], text: str) -> Any:
    """A config-file value checked as its flag's argument would be."""
    if kwargs.get("action") == "store_true":
        return _file_value({"choices": _TRUE + _FALSE}, text.lower()) in _TRUE
    value = kwargs.get("type", str)(text)
    if "choices" in kwargs and value not in kwargs["choices"]:
        raise ValueError(f"{text!r} is not one of "
                         f"{', '.join(kwargs['choices'])}")
    return value


def _load_config_file(path: str) -> dict:
    """RunConfig field -> value for every key=value line of the file."""
    options = {flag[2:].replace("-", "_"): opt.kwargs
               for flag, opt in _OPTIONS.items()}
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
                if key not in options:
                    raise ValueError(f"line {ln}: unknown key {key!r}")
                kwargs = options[key]
                values[kwargs.get("dest", key)] = _file_value(kwargs,
                                                              val.strip())
    except OSError as exc:
        print(f"error: cannot read config file: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG) from exc
    except ValueError as exc:
        print(f"error: bad config file: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG) from exc
    return values


@functools.cache
def build_parser() -> _Parser:
    """Parser whose namespace holds only the command and the flags given.

    Built once per process, on first use rather than at import.
    """
    parser = _Parser(prog="zetacheck",
                     description="identity checks and claim audits")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, opt in _OPTIONS.items():
            if name in opt.commands:
                p.add_argument(flag, default=argparse.SUPPRESS, **opt.kwargs)
        p.add_argument("--config", default=argparse.SUPPRESS,
                       help="key=value file; explicit flags win")
    return parser


def parse_args(argv: list[str]) -> RunConfig:
    parser = build_parser()
    given = vars(parser.parse_args(argv))
    path = given.pop("config", None)
    file_values = _load_config_file(path) if path else {}
    # Explicit flags win; file values fill in everything else.
    cfg = RunConfig(**{**file_values, **given})
    if not 15 <= cfg.digits <= 200:
        parser.error("digits must lie in [15, 200]")
    if cfg.tol is not None and not 0.0 < cfg.tol < 1.0:
        parser.error("tol must lie in (0, 1)")
    if cfg.seed < 0:
        parser.error("seed must be nonnegative")
    return cfg


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
        reports, code = _COMMANDS[cfg.command].run(cfg)
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

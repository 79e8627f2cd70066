"""Command-line entry point.

Subcommands
-----------
* ``eval``          Monte Carlo estimate of a compiled loss between two sample
                    sources (files, subprocess generators, or known vectors).
* ``verify``        Run the exact-oracle check suite; nonzero exit on any failure.
* ``demo-bias``     Table showing where the biased plug-in squared loss puts
                    its optimum on a coin domain.
* ``compile-info``  Degrees and minimal sample sizes for a divergence.
* ``cramer``        Empirical-CDF losses over real-valued sample files.

Machine-readable output (``--format machine``) is line-oriented
``key=value`` pairs followed by one JSON record on the final line; parsing
and re-rendering that output reproduces it byte for byte.  The default seed
comes from the ``PROPERLOSS_SEED`` environment variable when set.

Exit codes: 0 success, 2 configuration or numeric error, 3 verification failure,
4 sample-source or protocol error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

from .compiler import (
    CompiledLoss,
    bregman_known_target,
    compile_known_target,
    compile_two_sample,
    cross_entropy_poisson,
    cross_entropy_poisson_fixed_target,
    entropy_poisson,
    kl_poisson,
)
from .continuous import RealSample, cramer_distance_oracle, cramer_loss, crps, energy_loss, load_real_sample, load_vector_sample, projected_cramer_loss
from .divergences import (
    Monomial,
    PolyDivergence,
    SeriesDivergence,
    SeriesKind,
    builtin_brier,
    builtin_l2,
    builtin_lk_even,
    simplex_grid,
    squared_norm_gradient,
    squared_norm_polynomial,
)
from .domain import Distribution, Domain, Histogram, Mode, empirical
from .errors import (
    DegreeGateError,
    ProperLossError,
    SourceExhaustedError,
    SubprocessFailureError,
    TokenUnknownError,
)
from .estimators import ExponentVector
from .sampling import FileSource, InternalSource, SubprocessSource, estimate_loss
from .verify import (
    check_implements,
    degree_gate_bypass_exists,
    enumerate_histograms,
    expected_losses,
    gradient_check,
    naive_plugin_bias_demo,
    naive_plugin_loss,
    poisson_expected_loss,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_SOURCE = 4


# ----------------------------------------------------------------------
# output plumbing
# ----------------------------------------------------------------------

def render_machine(pairs: Sequence[tuple[str, str]]) -> str:
    """key=value lines plus a final single-line JSON record of the same pairs."""
    lines = [f"{k}={v}" for k, v in pairs]
    lines.append(json.dumps(dict(pairs), sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def parse_machine(text: str) -> tuple[list[tuple[str, str]], dict]:
    lines = text.rstrip("\n").split("\n")
    record = json.loads(lines[-1])
    pairs = []
    for line in lines[:-1]:
        key, _, value = line.partition("=")
        pairs.append((key, value))
    return pairs, record


def _emit(pairs: list[tuple[str, str]], fmt: str) -> None:
    if fmt == "machine":
        sys.stdout.write(render_machine(pairs))
    else:
        width = max(len(k) for k, _ in pairs)
        for k, v in pairs:
            print(f"{k:<{width}}  {v}")


# ----------------------------------------------------------------------
# divergence and source parsing
# ----------------------------------------------------------------------

SERIES_NAMES = {
    "cross-entropy": SeriesKind.CROSS_ENTROPY,
    "kl": SeriesKind.KL,
    "entropy": SeriesKind.SHANNON_ENTROPY,
}


def load_divergence_spec(path: str) -> PolyDivergence:
    """JSON spec: {"monomials": [{"coeff": 1 | "1/3", "p_exps": [...], "q_exps": [...]}]}"""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    monomials = []
    for item in data["monomials"]:
        coeff = item["coeff"]
        if isinstance(coeff, str):
            coeff = Fraction(coeff)
        monomials.append(
            Monomial(coeff, ExponentVector(tuple(item["p_exps"])), ExponentVector(tuple(item["q_exps"])))
        )
    return PolyDivergence(tuple(monomials))


def parse_divergence(name: str, dim: int):
    if name == "l2":
        return builtin_l2(dim)
    if name.startswith("lk:"):
        return builtin_lk_even(dim, int(name.split(":", 1)[1]))
    if name == "brier":
        return builtin_brier(dim)
    if name in SERIES_NAMES:
        return SeriesDivergence(SERIES_NAMES[name])
    if os.path.exists(name):
        return load_divergence_spec(name)
    raise ValueError(f"unknown divergence {name!r} (builtins: l2, lk:K, brier, cross-entropy, kl, entropy, or a spec file)")


def _parse_probs(text: str, mode: Mode) -> Distribution:
    parts = [tok.strip() for tok in text.split(",") if tok.strip()]
    if mode is Mode.EXACT:
        return Distribution.exact([Fraction(tok) for tok in parts])
    return Distribution.floating([float(tok) for tok in parts])


def _build_source(args: argparse.Namespace, side: str, domain: Optional[Domain], mode: Mode):
    """The source ``side`` names, or ``None``; a ``--*-cmd`` child is started here."""
    probs = getattr(args, f"{side}_probs")
    path = getattr(args, f"{side}_file")
    cmd = getattr(args, f"{side}_cmd")
    given = [v for v in (probs, path, cmd) if v is not None]
    if len(given) > 1:
        raise ValueError(f"give at most one of --{side}-probs / --{side}-file / --{side}-cmd")
    if probs is not None:
        dist = _parse_probs(probs, mode)
        return InternalSource(dist, domain if domain is not None else Domain.of_size(dist.dim))
    if path is not None:
        if domain is None:
            raise ValueError(f"--{side}-file needs --labels or --labels-file to map tokens to outcomes")
        if not os.path.exists(path):
            raise ValueError(f"sample file {path!r} does not exist")
        return FileSource(path, domain)
    if cmd is not None:
        if domain is None:
            raise ValueError(f"--{side}-cmd needs --labels or --labels-file to map tokens to outcomes")
        return SubprocessSource(cmd, domain)
    return None


def _resolve_domain(args: argparse.Namespace) -> Optional[Domain]:
    if args.labels is not None and args.labels_file is not None:
        raise ValueError("give at most one of --labels / --labels-file")
    if args.labels_file is not None:
        if not os.path.exists(args.labels_file):
            raise ValueError(f"labels file {args.labels_file!r} does not exist")
        with open(args.labels_file, encoding="utf-8") as handle:
            return Domain(tuple(line.strip() for line in handle if line.strip()))
    if args.labels:
        return Domain(tuple(tok.strip() for tok in args.labels.split(",")))
    for side in ("model", "target"):
        probs = getattr(args, f"{side}_probs")
        if probs is not None:
            return Domain.of_size(len([t for t in probs.split(",") if t.strip()]))
    return None


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------

def _reject_series_sizes(args: argparse.Namespace, kind: SeriesKind) -> None:
    """A series divergence takes no ``--n``; only cross-entropy takes ``--m`` (its fixed-size target)."""
    if args.n is not None:
        raise ValueError(f"--n does not apply to {args.divergence}: power-series losses draw Poisson-size samples")
    if args.m is not None and kind is not SeriesKind.CROSS_ENTROPY:
        raise ValueError(f"--m does not apply to {args.divergence}: only cross-entropy takes a fixed target size")


def _reject_rates(args: argparse.Namespace, names: Sequence[str], reason: str) -> None:
    for name in names:
        if getattr(args, name) is not None:
            raise ValueError(f"--{name} does not apply to {args.divergence}: {reason}")


def _build_loss(args: argparse.Namespace, divergence, dim: int, mode: Mode) -> CompiledLoss:
    if isinstance(divergence, PolyDivergence):
        _reject_rates(args, ("alpha", "beta"), "polynomial divergences draw fixed-size samples (--n, --m)")
        if args.n is None or args.m is None:
            raise ValueError("polynomial divergences need --n and --m")
        return compile_two_sample(divergence, args.n, args.m, mode)
    kind = divergence.kind
    _reject_series_sizes(args, kind)
    if kind is SeriesKind.CROSS_ENTROPY:
        if args.alpha is None:
            raise ValueError("cross-entropy needs --alpha")
        if args.m is not None:
            _reject_rates(args, ("beta",), f"with --m {args.m} the target draws a fixed-size sample")
            return cross_entropy_poisson_fixed_target(args.alpha, args.m, mode)
        if args.beta is None:
            raise ValueError("cross-entropy needs --beta (or --m for a fixed-size target)")
        return cross_entropy_poisson(args.alpha, args.beta, mode)
    if kind is SeriesKind.KL:
        if args.alpha is None or args.beta is None:
            raise ValueError("kl needs --alpha and --beta")
        return kl_poisson(args.alpha, args.beta, mode)
    _reject_rates(args, ("alpha",), "entropy scores the target alone, with no model sample")
    if args.beta is None:
        raise ValueError("entropy needs --beta")
    return entropy_poisson(args.beta, mode)


def _describe_source(args: argparse.Namespace, side: str) -> str:
    for kind in ("probs", "file", "cmd"):
        value = getattr(args, f"{side}_{kind}")
        if value is not None:
            return f"{kind}:{value}"
    return "-"


def cmd_eval(args: argparse.Namespace) -> int:
    mode = Mode.FLOAT if args.mode == "float" else Mode.EXACT
    domain = _resolve_domain(args)
    divergence_dim = domain.size if domain is not None else 2
    divergence = parse_divergence(args.divergence, divergence_dim)
    loss = _build_loss(args, divergence, divergence_dim, mode)

    # every source built is closed on every path: a child started for one
    # side must not outlive a configuration error found on the other
    sources = []
    failure = None
    try:
        for side in ("target", "model"):
            sources.append(_build_source(args, side, domain, mode))
        target, model = sources
        if target is None:
            raise ValueError("a target source is required (--target-probs / --target-file / --target-cmd)")
        if model is None and loss.scheme_p is not None:
            raise ValueError("a model source is required (--model-probs / --model-file / --model-cmd)")
        report = estimate_loss(model, target, loss, args.replicates, args.seed)
    except BaseException as exc:
        failure = exc
    for src in sources:
        if src is None:
            continue
        try:
            src.close()
        except SubprocessFailureError as late:
            # the first failure is the one reported; a later one (a child
            # exiting nonzero after a short read, say) adds a note
            if failure is None:
                failure = late
            else:
                failure.add_note(f"closing a source afterwards also failed: {late}")
    if failure is not None:
        raise failure

    pairs = [
        ("command", "eval"),
        ("divergence", args.divergence),
        ("scheme", loss.provenance),
        ("model", _describe_source(args, "model")),
        ("target", _describe_source(args, "target")),
        ("labels", args.labels or (f"file:{args.labels_file}" if args.labels_file else "-")),
        ("replicates", str(report.replicates)),
        ("seed", str(report.seed)),
        ("mode", args.mode),
        ("mean", repr(report.mean)),
        ("std_error", repr(report.std_error)),
        ("ci_low", repr(report.ci_low)),
        ("ci_high", repr(report.ci_high)),
    ]
    _emit(pairs, args.format)
    return EXIT_OK


# ----------------------------------------------------------------------
# verify suite
# ----------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    tag: str  # "exact" or "truncated"
    gap: str
    detail: str = ""


#: What a check body returns: (passed, gap, detail).
Outcome = tuple[bool, str, str]


def _grid_pairs(d: int, denominator: int) -> list:
    points = simplex_grid(d, denominator)
    return [(p, q) for p in points for q in points]


def _check_plugin_bias(seed: int) -> Outcome:
    q = Distribution.exact([Fraction(1, 10), Fraction(9, 10)])
    below = True
    for n in range(2, 21):
        demo = naive_plugin_bias_demo(q, n)
        below = below and demo.closed_form < Fraction(1, 10)
    demo10 = naive_plugin_bias_demo(q, 10)
    agree = abs(float(demo10.closed_form) - demo10.grid_argmin) <= 1e-4
    exact_value = demo10.closed_form == Fraction(1, 18)
    ok = below and agree and exact_value
    detail = f"optimum at n=10 is {demo10.closed_form} (grid {demo10.grid_argmin:.4f}), below 1/10 for n=2..20"
    return ok, f"{abs(float(demo10.closed_form) - demo10.grid_argmin):.2e}", detail


def _check_plugin_improper(seed: int) -> Outcome:
    q = Distribution.exact([Fraction(1, 10), Fraction(9, 10)])
    n = 10
    loss = naive_plugin_loss(n)
    points = [(p, q) for p in simplex_grid(2, 8) if 0 < p.probs[0] < 1]
    reports = check_implements(loss, builtin_l2(2), points)
    # the plug-in loss must FAIL exact implementation at every interior model
    all_failed = all(not r.passed for r in reports)
    expected_gap = all(
        r.gap == 2 * p.probs[0] * (1 - p.probs[0]) / n for r, (p, _) in zip(reports, points)
    )
    detail = f"{len(reports)} interior models all show a positive exact gap"
    return all_failed and expected_gap, "summed-frequency-variance", detail


def _check_compiled_l2(compile_l2: Callable, sizes: Sequence[tuple], combination: str) -> Outcome:
    """The l2 loss compiled at each of ``sizes`` against the squared distance on a d=2 and a d=3 grid, exactly."""
    worst = Fraction(0)
    count = 0
    for d, denom in ((2, 8), (3, 4)):
        pairs = _grid_pairs(d, denom)
        l2 = builtin_l2(d)
        # every size revisits the grid, so each (p, q) pair is evaluated once
        divergence = SimpleNamespace(evaluate=functools.lru_cache(maxsize=None)(l2.evaluate))
        for size in sizes:
            reports = check_implements(compile_l2(l2, *size), divergence, pairs)
            count += len(reports)
            if any(not r.passed for r in reports):
                worst = max(worst, max(r.gap for r in reports))
    return worst == 0, str(worst), f"{count} ({combination}) combinations, exact equality"


def _check_squared_known_target(seed: int) -> Outcome:
    return _check_compiled_l2(compile_known_target, [(n,) for n in (2, 3, 4, 5)], "model, target, n")


def _check_squared_two_sample(seed: int) -> Outcome:
    return _check_compiled_l2(compile_two_sample, [(n, m) for n in (2, 3) for m in (2, 3)], "model, target, n, m")


def _check_compiler_exact(seed: int) -> Outcome:
    cases = [
        ("l2", builtin_l2(2), 2, 2),
        ("lk:4", builtin_lk_even(2, 4), 4, 4),
        ("brier", builtin_brier(2), 2, 1),
    ]
    pairs = _grid_pairs(2, 4)
    worst = Fraction(0)
    for _, divergence, n, m in cases:
        loss = compile_two_sample(divergence, n, m)
        reports = check_implements(loss, divergence, pairs)
        if any(not r.passed for r in reports):
            worst = max(worst, max(r.gap for r in reports))
    return worst == 0, str(worst), "l2, lk:4, brier compiled at their degrees match exactly on the grid"


def _check_compiler_gates(seed: int) -> Outcome:
    cases = [
        (builtin_l2(2), 2, 2),
        (builtin_lk_even(2, 4), 4, 4),
        (builtin_brier(2), 2, 1),
    ]
    ok = True
    for divergence, n, m in cases:
        compile_two_sample(divergence, n, m)  # must succeed at the boundary
        for bad_n, bad_m in ((n - 1, m), (n, m - 1)):
            try:
                compile_two_sample(divergence, bad_n, bad_m)
                ok = False
            except DegreeGateError:
                pass
        try:
            compile_known_target(divergence, n - 1)
            ok = False
        except DegreeGateError:
            pass
    return ok, "0", "compilation succeeds at the degree boundary and refuses one draw below it"


def _inner_product_divergence(d: int) -> PolyDivergence:
    return PolyDivergence(
        tuple(
            Monomial(1, ExponentVector.unit(d, x), ExponentVector.unit(d, x))
            for x in range(d)
        )
    )


def _check_degree_one_affine(seed: int) -> Outcome:
    loss = compile_two_sample(_inner_product_divergence(2), 1, 1)
    grid = simplex_grid(2, 8)
    targets = (Distribution.uniform(2), Distribution.exact([Fraction(1, 4), Fraction(3, 4)]))
    values = expected_losses(loss, [(p, q) for q in targets for p in grid])
    rows = [values[i : i + len(grid)] for i in range(0, len(values), len(grid))]  # one row per target
    ok = True
    for row in rows:
        # the grid is evenly spaced in p1, so affine means vanishing second differences
        seconds = [row[i + 1] - 2 * row[i] + row[i - 1] for i in range(1, len(row) - 1)]
        ok = ok and all(s == 0 for s in seconds)
    uniform_vals = rows[0]
    constant = max(uniform_vals) - min(uniform_vals) == 0
    detail = "one-draw expected losses are affine in the model; constant under a uniform target"
    return ok and constant, str(max(uniform_vals) - min(uniform_vals)), detail


def _check_single_draw_infeasible(seed: int) -> Outcome:
    q = Distribution.uniform(2)
    points = [
        Distribution.exact([1, 0]),
        Distribution.uniform(2),
        Distribution.exact([0, 1]),
    ]
    bypass = degree_gate_bypass_exists(builtin_l2(2), q, points)
    detail = "no single-draw loss of ANY form matches the squared distance on three collinear models"
    return not bypass, "0", detail


def _check_bregman(seed: int) -> Outcome:
    ok = True
    potential = squared_norm_polynomial(2)
    gradient = squared_norm_gradient(2)
    grad_err = gradient_check(potential, gradient, simplex_grid(2, 4))
    ok = ok and grad_err < 1e-5
    for n in (2, 3):
        bloss = bregman_known_target(potential, gradient, n)
        squared = compile_known_target(builtin_l2(2), n)
        for h in enumerate_histograms(2, n):
            for q in simplex_grid(2, 4):
                if bloss.evaluator(h, q) != squared.evaluator(h, q):
                    ok = False
    # mean of the potential at the empirical distribution exceeds the potential
    # at the truth by exactly the summed frequency variance
    def at_empirical(h: Histogram, _) -> Fraction:
        return potential.evaluate(empirical(h).probs, empirical(h).probs)

    grid = simplex_grid(2, 4)
    for n in (2, 3, 4):
        means = expected_losses(at_empirical, [(p, None) for p in grid], n)
        for p, mean in zip(grid, means):
            gap = mean - potential.evaluate(p.probs, p.probs)
            expected = sum(px * (1 - px) for px in p.probs) / n
            if gap != expected:
                ok = False
    detail = "Bregman loss equals the closed squared-loss form pointwise; mean-vs-truth gap is the summed variance"
    return ok, "0", detail


def _check_cross_entropy(seed: int) -> Outcome:
    loss = cross_entropy_poisson(6.0, 6.0)
    half = Distribution.exact([Fraction(1, 2), Fraction(1, 2)])
    est1 = poisson_expected_loss(loss, half, half, tail_eps=1e-10)
    gap1 = abs(est1.value - math.log(2))
    skew = Distribution.exact([Fraction(1, 4), Fraction(3, 4)])
    est2 = poisson_expected_loss(loss, skew, half, tail_eps=1e-10)
    target2 = -(0.5 * math.log(0.25) + 0.5 * math.log(0.75))
    gap2 = abs(est2.value - target2)
    # the loss itself stays finite even where the divergence is infinite
    finite = math.isfinite(float(loss.evaluator(Histogram((0, 4)), Histogram((3, 0)))))
    ok = gap1 <= 1e-4 and gap2 <= 1e-4 and finite
    detail = f"truncated expectations match -sum q ln p at two points (tail {est1.omitted_mass:.1e})"
    return ok, f"{max(gap1, gap2):.2e}", detail


def _check_entropy_kl(seed: int) -> Outcome:
    half = Distribution.exact([Fraction(1, 2), Fraction(1, 2)])
    skew = Distribution.exact([Fraction(1, 4), Fraction(3, 4)])
    ent = poisson_expected_loss(entropy_poisson(6.0), None, half, tail_eps=1e-10)
    gap_ent = abs(ent.value - math.log(2))
    kl = poisson_expected_loss(kl_poisson(8.0, 8.0), skew, half, tail_eps=1e-10)
    target_kl = 0.5 * math.log(2) + 0.5 * math.log(2.0 / 3.0)
    gap_kl = abs(kl.value - target_kl)
    ok = gap_ent <= 1e-4 and gap_kl <= 1e-3
    return ok, f"{max(gap_ent, gap_kl):.2e}", "entropy matches -sum q ln q; KL matches sum q ln(q/p)"


def _enumerate_two_point_pairs(w: Fraction):
    """(sample, probability) for two i.i.d. draws from a {0,1}-valued coin."""
    return [
        (RealSample((0, 0)), w * w),
        (RealSample((0, 1)), 2 * w * (1 - w)),
        (RealSample((1, 1)), (1 - w) * (1 - w)),
    ]


def _check_cramer_energy(seed: int) -> Outcome:
    ok = True
    ok = ok and cramer_loss(RealSample((0, 1)), RealSample((0, 1))) == Fraction(-1, 2)
    ok = ok and crps(RealSample((0, 1)), 0) == 0
    for wp, wq in ((Fraction(1, 2), Fraction(1, 4)), (Fraction(3, 4), Fraction(3, 4)), (Fraction(1, 2), Fraction(1, 2))):
        truth = cramer_distance_oracle((0, 1), (wp, 1 - wp), (0, 1), (wq, 1 - wq))
        mean_cramer = 0
        mean_energy = 0
        for s, ps in _enumerate_two_point_pairs(wp):
            for u, pu in _enumerate_two_point_pairs(wq):
                mean_cramer += ps * pu * cramer_loss(s, u)
                mean_energy += ps * pu * energy_loss(s, u)
        ok = ok and mean_cramer == truth and mean_energy == 2 * truth
    return ok, "0", "two-draw enumeration: E[cramer] equals the CDF-distance oracle, E[energy] is exactly twice it"


def _check_mc_sanity(seed: int) -> Outcome:
    loss = compile_two_sample(builtin_l2(2), 2, 2, Mode.FLOAT)
    model = InternalSource(Distribution.floating((0.25, 0.75)))
    target = InternalSource(Distribution.floating((0.5, 0.5)))
    truth = float(builtin_l2(2).evaluate(model.dist, target.dist))
    report = estimate_loss(model, target, loss, 20000, seed)
    gap = abs(report.mean - truth)
    ok = gap <= 5 * report.std_error
    return ok, f"{gap:.2e}", f"Monte Carlo mean within 5 standard errors of {truth} (se {report.std_error:.2e})"


def _check(name: str, tag: str, body: Callable[[int], Outcome]) -> tuple:
    """A ``CHECKS`` row: the name, a run that turns the body's outcome into a :class:`CheckResult`, the tag."""

    def run(seed: int) -> CheckResult:
        passed, gap, detail = body(seed)
        return CheckResult(name, passed, tag, gap, detail)

    return name, run, tag


#: ``(name, run, tag)`` per check, in output order; ``cmd_verify`` reads each tag before any check runs.
CHECKS = [
    _check("plugin-bias", "exact", _check_plugin_bias),
    _check("plugin-improper", "exact", _check_plugin_improper),
    _check("squared-known-target", "exact", _check_squared_known_target),
    _check("squared-two-sample", "exact", _check_squared_two_sample),
    _check("compiler-exact", "exact", _check_compiler_exact),
    _check("compiler-gates", "exact", _check_compiler_gates),
    _check("degree-one-affine", "exact", _check_degree_one_affine),
    _check("single-draw-infeasible", "exact", _check_single_draw_infeasible),
    _check("bregman", "exact", _check_bregman),
    _check("cross-entropy", "truncated", _check_cross_entropy),
    _check("entropy-kl", "truncated", _check_entropy_kl),
    _check("cramer-energy", "exact", _check_cramer_energy),
    _check("mc-sanity", "truncated", _check_mc_sanity),
]


def cmd_verify(args: argparse.Namespace) -> int:
    known = [name for name, _, _ in CHECKS]
    unknown = [name for name in args.only or () if name not in known]
    if unknown:
        raise ValueError(f"no such check: {', '.join(unknown)}; known checks: {', '.join(known)}")
    selected = [(run, tag) for name, run, tag in CHECKS if not args.only or name in args.only]
    if args.mode == "float" and any(tag == "exact" for _, tag in selected):
        raise ValueError("exact checks require exact mode; drop --mode float or restrict --only to truncated checks")
    results = [run(args.seed) for run, _ in selected]
    pairs: list[tuple[str, str]] = [("command", "verify"), ("seed", str(args.seed))]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        pairs.append((f"check.{r.name}", f"{status} [{r.tag}] gap={r.gap} {r.detail}"))
    failures = sum(1 for r in results if not r.passed)
    pairs.append(("failures", str(failures)))
    _emit(pairs, args.format)
    return EXIT_OK if failures == 0 else EXIT_VERIFY


# ----------------------------------------------------------------------
# demo-bias
# ----------------------------------------------------------------------

def cmd_demo_bias(args: argparse.Namespace) -> int:
    q1 = Fraction(args.q1)
    if not 0 <= q1 <= 1:
        raise ValueError("--q1 must lie in [0, 1]")
    if args.n_min > args.n_max:
        raise ValueError(f"--n-min {args.n_min} exceeds --n-max {args.n_max}: the table would be empty")
    q = Distribution.exact([q1, 1 - q1])
    pairs: list[tuple[str, str]] = [
        ("command", "demo-bias"),
        ("q1", str(q1)),
        ("n_min", str(args.n_min)),
        ("n_max", str(args.n_max)),
    ]
    for n in range(args.n_min, args.n_max + 1):
        if n == 1:
            # with one draw the expectation is affine in the model: no interior
            # optimum exists, only a corner, so the row is closed-form only
            corner = 0.0 if q1 < Fraction(1, 2) else (1.0 if q1 > Fraction(1, 2) else 0.5)
            pairs.append((f"argmin.n{n}", f"closed={corner} grid=- gap={float(q1) - corner:.6f} flag=affine"))
            continue
        demo = naive_plugin_bias_demo(q, n)
        gap = float(q1) - float(demo.closed_form)
        pairs.append(
            (f"argmin.n{n}", f"closed={float(demo.closed_form):.6f} grid={demo.grid_argmin:.6f} gap={gap:.6f}")
        )
    _emit(pairs, args.format)
    return EXIT_OK


# ----------------------------------------------------------------------
# compile-info
# ----------------------------------------------------------------------

def cmd_compile_info(args: argparse.Namespace) -> int:
    divergence = parse_divergence(args.divergence, args.dim)
    pairs: list[tuple[str, str]] = [("command", "compile-info"), ("divergence", args.divergence), ("dim", str(args.dim))]
    if isinstance(divergence, PolyDivergence):
        pairs.append(("deg_model", str(divergence.deg_p)))
        pairs.append(("deg_target", str(divergence.deg_q)))
        pairs.append(("monomials", str(len(divergence.monomials))))
        pairs.append(("minimal_sizes", f"n>={divergence.deg_p}, m>={divergence.deg_q}"))
        if args.m is not None and args.n is None:
            raise ValueError("--m needs --n: a target sample size alone compiles nothing")
        if args.n is not None:
            # both raise DegreeGateError below the degrees; without --m the target is known
            if args.m is None:
                loss = compile_known_target(divergence, args.n)
            else:
                loss = compile_two_sample(divergence, args.n, args.m)
            pairs.append(("compiled", loss.provenance))
    else:
        _reject_series_sizes(args, divergence.kind)
        pairs.append(("family", "power-series"))
        pairs.append(("minimal_sizes", "not implementable at any fixed sizes; use Poisson-size sampling (any rates > 0)"))
        if divergence.kind is SeriesKind.CROSS_ENTROPY:
            pairs.append(("fixed_target_variant", "target side may instead use any fixed size m >= 1"))
            if args.m is not None:
                if args.m < 1:
                    raise ValueError(f"--m {args.m}: the fixed-target cross-entropy loss needs m >= 1")
                pairs.append(("compiled", f"cross-entropy power-series loss, Poisson model, fixed target size {args.m}"))
    _emit(pairs, args.format)
    return EXIT_OK


# ----------------------------------------------------------------------
# cramer
# ----------------------------------------------------------------------

def _finite(name: str, value: float) -> str:
    """``repr(value)``, or a ValueError naming the statistic when it is inf or nan."""
    if not math.isfinite(value):
        raise ValueError(f"the {name} statistic is {value!r}: the sample values exceed float range")
    return repr(value)


def cmd_cramer(args: argparse.Namespace) -> int:
    pairs: list[tuple[str, str]] = [
        ("command", "cramer"),
        ("model", args.model_file),
        ("target", args.target_file or "-"),
        ("seed", str(args.seed)),
    ]
    if args.vectors:
        if args.target_file is None:
            raise ValueError("--vectors needs --target-file: the projected loss compares two samples")
        s = load_vector_sample(args.model_file)
        u = load_vector_sample(args.target_file)
        pairs.append(("projected_cramer", _finite("projected_cramer", projected_cramer_loss(s, u, args.seed))))
    else:
        s = load_real_sample(args.model_file)
        if args.crps is not None:
            pairs.append(("crps", _finite("crps", float(crps(s, args.crps)))))
        if args.target_file is not None:
            u = load_real_sample(args.target_file)
            pairs.append(("cramer", _finite("cramer", float(cramer_loss(s, u)))))
            if args.energy:
                # an exact value beyond float range raises OverflowError here
                pairs.append(("energy", _finite("energy", float(energy_loss(s, u)))))
        elif args.crps is None:
            raise ValueError("give --target-file, or --crps Y for a single-draw score")
    _emit(pairs, args.format)
    return EXIT_OK


# ----------------------------------------------------------------------
# parser and dispatch
# ----------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call, so callers must not modify it.

    ``--seed`` parses to ``None`` when absent; :func:`main` then reads ``PROPERLOSS_SEED``, so the
    environment at each call counts, not the one the parser was built in.
    """
    parser = argparse.ArgumentParser(
        prog="properloss",
        description="Build, estimate, and verify sample-only proper losses for black-box generative models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("human", "machine"), default="human",
                       help="machine: key=value lines plus a final JSON record")
        p.add_argument("--seed", type=int, help="random seed (default from PROPERLOSS_SEED, else 0)")

    p_eval = sub.add_parser("eval", help="Monte Carlo estimate of a loss between two sample sources")
    p_eval.add_argument("--divergence", required=True, help="l2 | lk:K | brier | cross-entropy | kl | entropy | spec file")
    p_eval.add_argument("--labels", help="comma-separated domain labels (required for file/cmd sources)")
    p_eval.add_argument("--labels-file", help="file with one domain label per line, in place of --labels")
    p_eval.add_argument("--n", type=int, help="model sample size per replicate (fixed-size schemes)")
    p_eval.add_argument("--m", type=int, help="target sample size per replicate (fixed-size schemes)")
    p_eval.add_argument("--alpha", type=float, help="model-side Poisson rate")
    p_eval.add_argument("--beta", type=float, help="target-side Poisson rate")
    p_eval.add_argument("--model-probs", help="comma-separated probabilities for a known model")
    p_eval.add_argument("--model-file", help="token-per-line sample file for the model")
    p_eval.add_argument("--model-cmd", help="subprocess generator command for the model")
    p_eval.add_argument("--target-probs", help="comma-separated probabilities for a known target")
    p_eval.add_argument("--target-file", help="token-per-line sample file for the target")
    p_eval.add_argument("--target-cmd", help="subprocess generator command for the target")
    p_eval.add_argument("--replicates", type=int, default=10000)
    p_eval.add_argument("--mode", choices=("float", "exact"), default="float")
    add_common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run the exact-oracle check suite")
    p_verify.add_argument("--only", action="append", help="restrict to one named check (repeatable)")
    p_verify.add_argument("--mode", choices=("exact", "float"), default="exact",
                          help="exact checks refuse to run under float mode")
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_bias = sub.add_parser("demo-bias", help="plug-in squared-loss bias table on a coin domain")
    p_bias.add_argument("--q1", default="0.1", help="target probability of the first outcome (exact, e.g. 0.1)")
    p_bias.add_argument("--n-min", type=int, default=2)
    p_bias.add_argument("--n-max", type=int, default=20)
    add_common(p_bias)
    p_bias.set_defaults(func=cmd_demo_bias)

    p_info = sub.add_parser("compile-info", help="degrees and minimal sample sizes for a divergence")
    p_info.add_argument("--divergence", required=True)
    p_info.add_argument("--dim", type=int, default=2)
    p_info.add_argument("--n", type=int)
    p_info.add_argument("--m", type=int)
    add_common(p_info)
    p_info.set_defaults(func=cmd_compile_info)

    p_cramer = sub.add_parser("cramer", help="empirical-CDF losses over real-valued sample files")
    p_cramer.add_argument("--model-file", required=True, help="one real per line (or comma-separated with --vectors)")
    p_cramer.add_argument("--target-file")
    p_cramer.add_argument("--crps", type=float, help="score the model sample against this single target draw")
    p_cramer.add_argument("--energy", action="store_true", help="also report the energy-distance statistic")
    p_cramer.add_argument("--vectors", action="store_true", help="inputs are vectors; use a seeded random projection")
    add_common(p_cramer)
    p_cramer.set_defaults(func=cmd_cramer)

    return parser


def _print_error(message: str, exc: BaseException) -> None:
    print(f"error: {message}", file=sys.stderr)
    for note in getattr(exc, "__notes__", ()):
        print(f"note: {note}", file=sys.stderr)


def _default_seed() -> int:
    text = os.environ.get("PROPERLOSS_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"PROPERLOSS_SEED={text!r} is not an integer seed") from None


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except (TokenUnknownError, SourceExhaustedError, SubprocessFailureError) as exc:
        _print_error(str(exc), exc)
        return EXIT_SOURCE
    except (ProperLossError, ValueError, OSError, KeyError) as exc:
        _print_error(str(exc), exc)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        _print_error(f"numeric failure ({type(exc).__name__}: {exc})", exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

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
from fractions import Fraction
from typing import Optional, Sequence

from .compiler import (
    CompiledLoss,
    compile_known_target,
    compile_two_sample,
    cross_entropy_poisson,
    cross_entropy_poisson_fixed_target,
    entropy_poisson,
    kl_poisson,
)
from .continuous import cramer_loss, crps, energy_loss, load_real_sample, load_vector_sample, projected_cramer_loss
from .divergences import (
    Monomial,
    PolyDivergence,
    SeriesDivergence,
    SeriesKind,
    builtin_brier,
    builtin_l2,
    builtin_lk_even,
)
from .domain import Distribution, Domain, Mode
from .errors import ProperLossError, SourceExhaustedError, SubprocessFailureError, TokenUnknownError
from .estimators import ExponentVector
from .sampling import FileSource, InternalSource, SubprocessSource, estimate_loss
from .verify import CHECKS, naive_plugin_bias_demo

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
    """JSON spec: {"monomials": [{"coeff": 1 | "1/3", "p_exps": [...], "q_exps": [...]}]}

    A coefficient is a finite JSON number or a string that ``Fraction`` parses, and each exponent list holds JSON
    integers >= 0; a boolean is neither.  Anything else raises ``ValueError`` naming the file and the monomial."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if type(data) is not dict or type(data.get("monomials")) is not list:
        raise ValueError(f"spec file {path!r}: need an object with a \"monomials\" list")
    monomials = []
    for index, item in enumerate(data["monomials"]):
        where = f"spec file {path!r}, monomial {index}"
        if type(item) is not dict or not {"coeff", "p_exps", "q_exps"} <= item.keys():
            raise ValueError(f"{where}: need an object with coeff, p_exps and q_exps")
        coeff = item["coeff"]
        if type(coeff) is str:
            try:
                coeff = Fraction(coeff)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"{where}: coeff {json.dumps(coeff)} is not a rational number") from None
        elif type(coeff) is not int and not (type(coeff) is float and math.isfinite(coeff)):
            raise ValueError(f"{where}: coeff must be a finite number or a string such as \"1/3\", not {json.dumps(coeff)}")
        for key in ("p_exps", "q_exps"):
            if type(item[key]) is not list or any(type(e) is not int or e < 0 for e in item[key]):
                raise ValueError(f"{where}: {key} must be a list of integers >= 0, not {json.dumps(item[key])}")
        monomials.append(Monomial(coeff, ExponentVector(item["p_exps"]), ExponentVector(item["q_exps"])))
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


def _build_loss(args: argparse.Namespace, divergence) -> CompiledLoss:
    if isinstance(divergence, PolyDivergence):
        _reject_rates(args, ("alpha", "beta"), "polynomial divergences draw fixed-size samples (--n, --m)")
        if args.n is None or args.m is None:
            raise ValueError("polynomial divergences need --n and --m")
        # float whatever --mode says: the estimate reads only the batch evaluator, which is float in either mode
        return compile_two_sample(divergence, args.n, args.m, Mode.FLOAT)
    kind = divergence.kind
    _reject_series_sizes(args, kind)
    if kind is SeriesKind.CROSS_ENTROPY:
        if args.alpha is None:
            raise ValueError("cross-entropy needs --alpha")
        if args.m is not None:
            _reject_rates(args, ("beta",), f"with --m {args.m} the target draws a fixed-size sample")
            return cross_entropy_poisson_fixed_target(args.alpha, args.m)
        if args.beta is None:
            raise ValueError("cross-entropy needs --beta (or --m for a fixed-size target)")
        return cross_entropy_poisson(args.alpha, args.beta)
    if kind is SeriesKind.KL:
        if args.alpha is None or args.beta is None:
            raise ValueError("kl needs --alpha and --beta")
        return kl_poisson(args.alpha, args.beta)
    _reject_rates(args, ("alpha",), "entropy scores the target alone, with no model sample")
    if args.beta is None:
        raise ValueError("entropy needs --beta")
    return entropy_poisson(args.beta)


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
    loss = _build_loss(args, divergence)

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
# verify
# ----------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    unknown = [name for name in args.only or () if name not in CHECKS]
    if unknown:
        raise ValueError(f"no such check: {', '.join(unknown)}; known checks: {', '.join(CHECKS)}")
    pairs: list[tuple[str, str]] = [("command", "verify"), ("seed", str(args.seed))]
    failures = 0
    for name, (tag, body) in CHECKS.items():
        if args.only and name not in args.only:
            continue
        passed, gap, detail = body(args.seed)
        failures += not passed
        pairs.append((f"check.{name}", f"{'PASS' if passed else 'FAIL'} [{tag}] gap={gap} {detail}"))
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
    p_eval.add_argument("--mode", choices=("float", "exact"), default="float",
                        help="how --*-probs parse: exact reads rationals (1/3) and needs an exact unit sum; "
                             "the estimate is float either way")
    add_common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run the exact-oracle check suite")
    p_verify.add_argument("--only", action="append", help="restrict to one named check (repeatable)")
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

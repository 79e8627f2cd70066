"""The workloads: seeded inputs, the CLI calls they make, and their checks.

Every input is generated from the workload seed alone; the program sees
only the files written here and the argv of each call.  Every call runs
``properloss ... --format machine`` and its final JSON record is checked
against a reference computed here with numpy, independently of the
package.  A workload is a fixed cycle of calls, made of groups of calls
with one purpose each; runs repeat whole cycles.
"""

from __future__ import annotations

import math
import os
import shlex
import shutil
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

#: The checks of the ``verify`` subcommand that the workload runs, in the
#: subcommand's order.  ``entropy-kl`` is left out: one call takes 3-4 s, so
#: a 25 s run timed it about four times, and its fastest time spread by 0.3
#: of its median between runs.  ``cross-entropy`` keeps the Poisson oracle
#: in the workload.
VERIFY_CHECKS = (
    "plugin-bias",
    "plugin-improper",
    "squared-known-target",
    "squared-two-sample",
    "compiler-exact",
    "compiler-gates",
    "degree-one-affine",
    "single-draw-infeasible",
    "bregman",
    "cross-entropy",
    "cramer-energy",
    "mc-sanity",
)

#: Times each verify check runs in a cycle.  A check that takes under 100 ms
#: runs 8 times, so that a run times it often enough for its fastest latency
#: to settle; the two squared-loss checks (about 0.2 s) run 4 times, so that
#: the 1.5-2 s cross-entropy check holds about half of the group's time, not
#: most of it.
VERIFY_REPEAT = {"squared-known-target": 4, "squared-two-sample": 4, "cross-entropy": 1}
CHEAP_REPEAT = 8

#: A fixed-size bounded loss's mean must lie this many standard errors from the truth.
SE_BOUND = 6.0
#: Relative tolerance of the continuous losses against the numpy references.
REL_TOL = 1e-9

Check = Callable[[dict], Optional[str]]


@dataclass
class Call:
    argv: list
    work: int  # units of work one call completes
    check: Check  # parsed machine record -> error text, or None when correct
    repeat: int = 1  # times the call runs in each cycle


@dataclass
class Group:
    """A set of calls with one purpose, and the spans predicted to hold most of their time."""
    name: str
    calls: list
    prediction: tuple  # ((span name, "self" | "incl"), ...)


@dataclass
class Workload:
    name: str
    work_unit: str
    groups: list
    trace_cycles: int  # whole cycles in each pass of a traced run
    calls: list = field(init=False)  # every group's calls, in order

    def __post_init__(self):
        self.calls = [call for group in self.groups for call in group.calls]


def _rng(seed: int, role: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(role,)))


def _call_seed(seed: int, role: int) -> int:
    return int(_rng(seed, role).integers(2**31))


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _dirichlet(seed: int, role: int, d: int) -> np.ndarray:
    return _rng(seed, role).dirichlet(np.full(d, 2.0))


def _zipf(seed: int, role: int, d: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, d + 1) ** exponent
    return (weights / weights.sum())[_rng(seed, role).permutation(d)]


def _tokens(seed: int, role: int, probs: np.ndarray, count: int) -> np.ndarray:
    return _rng(seed, role).choice(len(probs), size=count, p=probs)


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

def _num(rec: dict, key: str) -> float:
    value = float(rec[key])
    if not math.isfinite(value):
        raise ValueError(f"{key}={rec[key]} is not finite")
    return value


def _checked(body: Callable[[dict], Optional[str]]) -> Check:
    def check(rec: dict) -> Optional[str]:
        try:
            return body(rec)
        except (KeyError, ValueError) as exc:
            return f"bad record: {exc}"

    return check


def within_se(truth: float, replicates: int) -> Check:
    """Mean of a bounded fixed-size loss within SE_BOUND standard errors of the exact divergence."""

    def body(rec):
        if rec["replicates"] != str(replicates):
            return f"replicates={rec['replicates']}, asked for {replicates}"
        mean, se = _num(rec, "mean"), _num(rec, "std_error")
        if not se > 0:
            return f"std_error={se} is not positive"
        if abs(mean - truth) > SE_BOUND * se:
            return f"mean {mean} is {abs(mean - truth) / se:.1f} SE from the divergence {truth}"
        return None

    return _checked(body)


def finite_estimate(replicates: int) -> Check:
    """Heavy-tailed Poisson losses: only a finite mean and standard error."""

    def body(rec):
        if rec["replicates"] != str(replicates):
            return f"replicates={rec['replicates']}, asked for {replicates}"
        _num(rec, "mean")
        _num(rec, "std_error")
        return None

    return _checked(body)


def _close(value: float, ref: float, magnitude: float) -> bool:
    """Relative agreement, scaled by the summed magnitude of the reference's terms."""
    return abs(value - ref) <= REL_TOL * max(abs(ref), magnitude)


def matches(expected: dict) -> Check:
    """Each key's value equals its (reference, magnitude) pair to REL_TOL."""

    def body(rec):
        for key, (ref, magnitude) in expected.items():
            value = _num(rec, key)
            if not _close(value, ref, magnitude):
                return f"{key}={value!r}, reference {ref!r}"
        return None

    return _checked(body)


def verify_passes(name: str) -> Check:
    def body(rec):
        if rec["failures"] != "0":
            return f"failures={rec['failures']}"
        line = rec[f"check.{name}"]
        if not line.startswith("PASS"):
            return f"check.{name}={line}"
        return None

    return _checked(body)


# ----------------------------------------------------------------------
# numpy references
# ----------------------------------------------------------------------

def _l2_replicates(model_idx: np.ndarray, target_idx: np.ndarray, n: int, m: int, d: int) -> np.ndarray:
    """Per-replicate unbiased squared loss of consecutive n- and m-token blocks."""
    reps = len(model_idx) // n
    hp = np.zeros((reps, d))
    hq = np.zeros((reps, d))
    np.add.at(hp, (np.repeat(np.arange(reps), n), model_idx), 1)
    np.add.at(hq, (np.repeat(np.arange(reps), m), target_idx), 1)
    terms = hp * (hp - 1) / (n * (n - 1)) - 2 * hp * hq / (n * m) + hq * (hq - 1) / (m * (m - 1))
    return terms.sum(axis=1)


def exact_l2_estimate(model_idx, target_idx, n: int, m: int, d: int, replicates: int) -> dict:
    values = _l2_replicates(model_idx[: replicates * n], target_idx[: replicates * m], n, m, d)
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1)) / math.sqrt(replicates)
    magnitude = float(np.mean(np.abs(values)))
    return {"mean": (mean, magnitude), "std_error": (se, se)}


def _ecdf_terms(sorted_s: np.ndarray, breaks: np.ndarray) -> np.ndarray:
    return np.searchsorted(sorted_s, breaks[:-1], side="right") / len(sorted_s)


def cramer_reference(s: np.ndarray, u: np.ndarray) -> tuple:
    """Integrated squared ECDF difference minus both variance corrections, on the merged grid."""
    n, m = len(s), len(u)
    breaks = np.unique(np.concatenate([s, u]))
    fs = _ecdf_terms(np.sort(s), breaks)
    fu = _ecdf_terms(np.sort(u), breaks)
    terms = np.diff(breaks) * ((fs - fu) ** 2 - fs * (1 - fs) / (n - 1) - fu * (1 - fu) / (m - 1))
    return float(terms.sum()), float(np.abs(terms).sum())


def crps_reference(s: np.ndarray, y: float) -> tuple:
    n = len(s)
    breaks = np.unique(np.append(s, y))
    fs = _ecdf_terms(np.sort(s), breaks)
    ind = (breaks[:-1] >= y).astype(float)
    terms = np.diff(breaks) * ((fs - ind) ** 2 - fs * (1 - fs) / (n - 1))
    return float(terms.sum()), float(np.abs(terms).sum())


def _within_pair_sum(x: np.ndarray) -> float:
    """sum_{i<j} |x_i - x_j| = sum_i x_(i) (2i - n + 1) over the sorted sample."""
    xs = np.sort(x)
    return float(np.sum(xs * (2 * np.arange(len(xs)) - len(xs) + 1)))


def _cross_pair_sum(x: np.ndarray, y: np.ndarray) -> float:
    """sum_{i,j} |x_i - y_j| from prefix sums of the sorted y."""
    ys = np.sort(y)
    prefix = np.concatenate([[0.0], np.cumsum(ys)])
    k = np.searchsorted(ys, x, side="right")
    below = x * k - prefix[k]
    above = (prefix[-1] - prefix[k]) - x * (len(ys) - k)
    return float(np.sum(below + above))


def energy_reference(s: np.ndarray, u: np.ndarray) -> tuple:
    n, m = len(s), len(u)
    parts = (
        2 * _cross_pair_sum(s, u) / (n * m),
        2 * _within_pair_sum(s) / (n * (n - 1)),
        2 * _within_pair_sum(u) / (m * (m - 1)),
    )
    return parts[0] - parts[1] - parts[2], sum(parts)


def projected_reference(xv: np.ndarray, yv: np.ndarray, seed: int) -> tuple:
    """Cramér loss along the seeded direction the CLI documents (normalized Gaussian)."""
    v = np.random.default_rng(np.random.SeedSequence(seed)).standard_normal(xv.shape[1])
    v = v / np.linalg.norm(v)
    return cramer_reference(xv @ v, yv @ v)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def _eval_argv(divergence: list, sources: list, replicates: int, seed: int) -> list:
    return ["eval", "--divergence", *divergence, *sources,
            "--replicates", str(replicates), "--seed", str(seed), "--format", "machine"]


def eval_known(seed: int) -> Group:
    d, replicates = 16, 20000
    p, q = _dirichlet(seed, 0, d), _dirichlet(seed, 1, d)
    sources = ["--model-probs", _floats(p), "--target-probs", _floats(q)]
    cases = (
        (["l2", "--n", "2", "--m", "2"], float(np.sum((p - q) ** 2))),
        (["lk:4", "--n", "4", "--m", "4"], float(np.sum((p - q) ** 4))),
        (["brier", "--n", "2", "--m", "1"], float(np.sum(p * p - 2 * p * q))),
    )
    calls = [
        Call(_eval_argv(div, sources, replicates, _call_seed(seed, 10 + i)), replicates,
             within_se(truth, replicates))
        for i, (div, truth) in enumerate(cases)
    ]
    return Group("eval-known", calls, (("sampling.draw_batch", "self"), ("compiler.batch_evaluator", "self")))


def eval_stream(seed: int, workdir: str) -> Group:
    d, replicates = 16, 2000
    p, q = _dirichlet(seed, 0, d), _dirichlet(seed, 1, d)
    labels = [f"t{i:02d}" for i in range(d)]
    target = os.path.join(workdir, "target.txt")
    # 40000 tokens: the Poisson(8) target needs about 16000 per call, l2 needs 4000
    _write_lines(target, (labels[i] for i in _tokens(seed, 2, q, 40000)))
    script = os.path.join(workdir, "generator.py")
    shutil.copyfile(os.path.join(HERE, "generator.py"), script)
    command = shlex.join([sys.executable, script, str(_call_seed(seed, 3)), _floats(p)])
    sources = ["--labels", ",".join(labels), "--model-cmd", command, "--target-file", target]
    cases = (
        (["l2", "--n", "2", "--m", "2"], within_se(float(np.sum((p - q) ** 2)), replicates)),
        (["cross-entropy", "--alpha", "8", "--beta", "8"], finite_estimate(replicates)),
        (["kl", "--alpha", "8", "--beta", "8"], finite_estimate(replicates)),
    )
    calls = [
        Call(_eval_argv(div, sources, replicates, _call_seed(seed, 20 + i)), replicates, check)
        for i, (div, check) in enumerate(cases)
    ]
    return Group("eval-stream", calls, (("sampling.file_draw", "self"), ("sampling.subprocess_draw", "self"),
                                        ("compiler.evaluator", "incl")))


def verify(seed: int) -> Group:
    call_seed = str(_call_seed(seed, 30))
    calls = [
        Call(["verify", "--only", name, "--seed", call_seed, "--format", "machine"], 1, verify_passes(name),
             repeat=VERIFY_REPEAT.get(name, CHEAP_REPEAT))
        for name in VERIFY_CHECKS
    ]
    return Group("verify", calls, (("verify.poisson_oracle", "incl"),))


def scale(seed: int, workdir: str) -> Group:
    # d and N are 30 and 60 times eval's d=16 and the quadratic builds and
    # energy statistic hold most of each call, while a call still takes well
    # under a second, so that a run times each one dozens of times
    d, n_real, dim = 500, 1000, 8
    p, q = _zipf(seed, 0, d, 1.0), _zipf(seed, 1, d, 1.1)
    labels = [f"w{i:04d}" for i in range(d)]
    model_idx, target_idx = _tokens(seed, 2, p, 4000), _tokens(seed, 3, q, 4000)
    paths = {name: os.path.join(workdir, f"{name}.txt") for name in ("model", "target", "xs", "ys", "xv", "yv")}
    _write_lines(paths["model"], (labels[i] for i in model_idx))
    _write_lines(paths["target"], (labels[i] for i in target_idx))
    xs = _rng(seed, 4).normal(0.0, 1.0, n_real)
    ys = _rng(seed, 5).normal(0.3, 1.2, n_real)
    y_single = float(_rng(seed, 6).normal())
    xv = _rng(seed, 7).normal(0.0, 1.0, (n_real, dim))
    yv = _rng(seed, 8).normal(0.2, 1.0, (n_real, dim))
    _write_lines(paths["xs"], (repr(float(v)) for v in xs))
    _write_lines(paths["ys"], (repr(float(v)) for v in ys))
    _write_lines(paths["xv"], (_floats(row) for row in xv))
    _write_lines(paths["yv"], (_floats(row) for row in yv))
    l2 = ["l2", "--n", "2", "--m", "2"]
    known, stream = 2000, 20
    cramer_seed, vector_seed = _call_seed(seed, 11), _call_seed(seed, 12)
    calls = [
        Call(_eval_argv(l2, ["--model-probs", _floats(p), "--target-probs", _floats(q)], known,
                        _call_seed(seed, 10)),
             1, within_se(float(np.sum((p - q) ** 2)), known)),
        # 20 replicates can all be zero, so the SE bound is replaced by an exact
        # recomputation of every replicate from the token files
        Call(_eval_argv(l2, ["--labels", ",".join(labels), "--model-file", paths["model"],
                             "--target-file", paths["target"]], stream, _call_seed(seed, 13)),
             1, matches(exact_l2_estimate(model_idx, target_idx, 2, 2, d, stream))),
        Call(["cramer", "--model-file", paths["xs"], "--target-file", paths["ys"], "--energy",
              "--crps", repr(y_single), "--seed", str(cramer_seed), "--format", "machine"],
             1, matches({"crps": crps_reference(xs, y_single), "cramer": cramer_reference(xs, ys),
                         "energy": energy_reference(xs, ys)})),
        Call(["cramer", "--vectors", "--model-file", paths["xv"], "--target-file", paths["yv"],
              "--seed", str(vector_seed), "--format", "machine"],
             1, matches({"projected_cramer": projected_reference(xv, yv, vector_seed)})),
    ]
    return Group("scale", calls, (("divergences.build", "self"), ("compiler.evaluator", "incl"),
                                  ("continuous.energy", "self")))


# Two workloads of two groups each, so that a run can last 55 s within the
# benchmark's time budget: a host slowdown that outlasts a 25 s run less
# often outlasts a 55 s one.  The traced run reports every group on its own.

def eval_paths(seed: int, workdir: str) -> Workload:
    """Both Monte Carlo paths over the same d=16 model and target."""
    return Workload("eval", "replicates", [eval_known(seed), eval_stream(seed, workdir)], trace_cycles=4)


def verify_scale(seed: int, workdir: str) -> Workload:
    """The exact oracles, and the compiler and continuous losses at large d and N."""
    return Workload("verify-scale", "calls", [verify(seed), scale(seed, workdir)], trace_cycles=1)


WORKLOADS = {
    "eval": eval_paths,
    "verify-scale": verify_scale,
}

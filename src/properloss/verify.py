"""Exact and tail-bounded expectation oracles.

Everything here computes expected losses the literal way: enumerate every
histogram in the support that the sampling scheme can produce, weight it by
its probability, and add up.  ``_fixed_size_sweep``, behind
``check_implements``, ``expected_losses``, both ``exact_expected_*`` one-point
wrappers and the suite's squared-loss and compiler checks, is the one exact
fixed-size core.  It sweeps a list of cases, each an evaluator with its two
sides and its list of points, in one pass; each side, a bounded scheme, yields
what the core sums over (``oracle_items``).  It needs exact-mode distributions
and rational loss values, and sums in integers: each sample side's pmf is a
list of integer numerators over ``D**size`` (``D`` the lcm of the probability
denominators).  Each target is scored against one list of histograms, the
union of the support lists of the models paired with it, and its items' loss
values over that list become one integer table over one denominator, folded
once into one integer vector.  A point's expectation is then one integer dot
product of its model's pmf numerators with that vector at the model's
histograms.  The table comes straight from the integer sums of an evaluator
that ``compile_known_target`` or ``compile_two_sample`` built, over its
estimator's one denominator, so no loss value becomes a Fraction; any other
evaluator, a wrapper of a compiled one included, is evaluated value by value
and its values put over their lcm.  So implementation claims ("the expectation
of this loss IS that divergence") are checked as literal equalities with zero
tolerance, by cross-multiplying the expectation's numerator and denominator
with the target's; a Fraction is built only for a point that differs.
``check_implements`` and the suite's checks compare through one generator
(``_compared``): one sweep over all their losses, each divergence value
evaluated once, unreduced (``PolyDivergence.evaluate(p, q, unreduced=True)``);
the suite builds no ``VerificationReport``.  ``multinomial_pmf`` stays the public
reference for the pmf and weighs float-mode sides.  ``poisson_expected_loss``
is the one truncated core: Poisson schemes have unbounded support, so it
truncates at a quantile, reports the truncation honestly, and scores every
(model, target) pair as blocks of a grid with the loss's float pair evaluator;
each side's scheme names its sizes and their probabilities (``first_sizes``,
``size_weight``).  Its sides are count matrices and weight vectors; an exact
side builds them from the support's compositions and their integer pmf
numerators, which one kernel yields together.  ``CHECKS`` is the
``properloss verify`` suite.

The tables derived from a distribution and a size alone live for the whole
process, keyed by value, each memo bounded by a private count and dropping
the least recently used table first: support histogram lists
(``_SUPPORT_TABLES``), exact pmf sides (``_SIDE_TABLES``) and the truncated
oracle's read-only side arrays (``_ITEM_TABLES``), beside the grid points of
``simplex_grid``.  Every caller shares them, so they are tuples and
read-only arrays.  Loss values, divergence values and compiled losses are
never kept past a call: each call compiles, evaluates and compares afresh.
A distribution's ``==`` compares its mode, so a float point never shares an
exact one's entry, and the exact core checks the mode before any lookup.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .compiler import (
    CompiledLoss,
    _numerator_route,
    _pair_grids,
    _row_sums,
    bregman_known_target,
    compile_known_target,
    compile_two_sample,
    cross_entropy_poisson,
    entropy_poisson,
    kl_poisson,
)
from .continuous import RealSample, cramer_distance_oracle, cramer_loss, crps, energy_loss
from .divergences import (
    Monomial,
    PolyDivergence,
    builtin_brier,
    builtin_l2,
    builtin_lk_even,
    simplex_grid,
    squared_norm_gradient,
    squared_norm_polynomial,
)
from .domain import (
    ENUMERATION_CAP,
    KNOWN_TARGET,
    Distribution,
    FixedSize,
    Histogram,
    Mode,
    _composition_steps,
    compositions,
    empirical,
    is_rational,
    over_common_denominator,
)
from .errors import (
    DegreeGateError,
    DimensionMismatchError,
    EnumerationTooLargeError,
    SampleTooSmallError,
    TotalMismatchError,
)
from .estimators import ExponentVector
from .sampling import InternalSource, estimate_loss


def enumerate_histograms(d: int, n: int) -> list[Histogram]:
    """All histograms over d outcomes with total n, each exactly once; more than ``ENUMERATION_CAP`` are refused."""
    if d < 1 or n < 0:
        raise ValueError("need d >= 1 and n >= 0")
    count = math.comb(n + d - 1, d - 1)
    if count > ENUMERATION_CAP:
        raise EnumerationTooLargeError(f"{count} histograms exceed the cap of {ENUMERATION_CAP}")
    return [Histogram(c) for c in compositions(n, d)]


def multinomial_pmf(h: Histogram, n: int, p: Distribution):
    """P[H = h] for H ~ Multinomial(n, p); exact when p is exact."""
    if h.total != n:
        raise TotalMismatchError(f"histogram total {h.total} != sample size {n}")
    if h.dim != p.dim:
        raise DimensionMismatchError(f"histogram dimension {h.dim} != distribution dimension {p.dim}")
    coef = math.factorial(n)
    for c in h.counts:
        coef //= math.factorial(c)
    out = Fraction(coef) if p.mode is Mode.EXACT else float(coef)
    for prob, c in zip(p.probs, h.counts):
        if c:
            out = out * prob**c
            if out == 0:
                break
    return out


def _require_exact(dist: Distribution, name: str) -> None:
    if dist.mode is not Mode.EXACT:
        raise ValueError(f"exact verification requires an exact-mode {name} distribution")


#: How many tables each oracle memo keeps for the life of the process, the least recently used dropped first.
#: The memos hold tables derived from a distribution and a size alone, never a loss or divergence value; the
#: whole ``properloss verify`` suite fills under half of each bound.
_SUPPORT_TABLES = 256
_SIDE_TABLES = 256
_ITEM_TABLES = 64


@functools.lru_cache(maxsize=_SUPPORT_TABLES)
def _support_histograms(support: tuple, d: int, size: int) -> tuple[Histogram, ...]:
    """Every histogram of ``size`` draws over ``d`` outcomes that is zero off ``support``, in enumeration order.

    Fixed zero coordinates do not alter the lexicographically descending order of compositions.  Memoized by
    value: a tuple, shared by every caller.
    """
    hists = enumerate_histograms(len(support), size)
    if len(support) == d:
        return tuple(hists)
    return tuple(Histogram(tuple(dict(zip(support, h.counts)).get(i, 0) for i in range(d))) for h in hists)


@functools.lru_cache(maxsize=_SIDE_TABLES)
def _pmf_numerators(dist: Distribution, size: int) -> tuple:
    """``(histograms, numerators, D**size)`` for ``size`` draws from an exact ``dist``.

    ``D`` is the lcm of the probability denominators and ``a_x = p_x * D``, so ``P[H = h]`` is the integer
    multinomial coefficient times ``prod a_x**h_x``, over ``D**size`` (:func:`_numerated_compositions`).
    Histograms are the support's, in enumeration order (:func:`_support_histograms`), and every numerator is
    positive.  Memoized by value, as tuples shared by every caller: a float ``dist`` equal to an exact one is a
    different key, since a distribution's ``==`` compares its mode, and callers check the mode before asking.
    """
    support, scaled, den = _scaled_support(dist)
    numerators = tuple(_numerated_compositions(scaled, size)[1])
    return _support_histograms(support, dist.dim, size), numerators, den**size


def _scaled_support(dist: Distribution) -> tuple:
    """``(support, a, D)`` for an exact ``dist``: its nonzero coordinates and their probabilities times ``D``."""
    numerators, den = over_common_denominator(dist)
    support = tuple(x for x, a in enumerate(numerators) if a)
    return support, [numerators[x] for x in support], den


def _numerated_compositions(scaled: list, size: int) -> tuple[list, list]:
    """Every composition of ``size`` into ``len(scaled)`` parts, in :func:`compositions` order, and each one's
    multinomial numerator ``size! / prod c_x! * prod a_x**c_x``, where ``scaled`` lists the ``a_x``.

    Part by part the numerator is ``prod_x C(r_x, c_x) a_x**c_x``, ``r_x`` being the draws left for parts ``x``
    onwards, with no factorial.  The parts but the last are walked in place (:func:`_composition_steps`), and the
    running products over the parts before the first one that changed are kept, so a step multiplies in one
    binomial and one power per changed part; the last two parts then share what is left, ``r``, as
    ``(r - j, j)`` for ``j = 0..r``, in one run.
    """
    if len(scaled) == 1:
        return [(size,)], [scaled[0] ** size]
    *head_scaled, a, b = scaled
    heads = len(head_scaled)
    comps, numerators = [], []
    left, running = [size] * (heads + 1), [1] * (heads + 1)  # draws left for parts x.., product over parts before x
    for x, parts in _composition_steps(size, heads + 1):
        for y in range(x, heads):
            c = parts[y]
            running[y + 1] = running[y] * math.comb(left[y], c) * head_scaled[y] ** c
            left[y + 1] = left[y] - c
        head, r, f = tuple(parts[:-1]), parts[-1], running[heads]
        comps.extend([(*head, r - j, j) for j in range(r + 1)])
        numerators.extend([f * math.comb(r, j) * a ** (r - j) * b**j for j in range(r + 1)])
    return comps, numerators


def _enumerable(loss) -> bool:
    """Whether the exact oracle takes ``loss``: it has a model side, and both of its sides are bounded."""
    return loss.scheme_p is not None and loss.scheme_p.bounded and loss.scheme_q.bounded


def _case(loss, points: Sequence[tuple], n: int | None = None, m: int | None = None,
          two_sample: bool | None = None) -> tuple:
    """The :func:`_fixed_size_sweep` case ``(evaluator, model side, target side, points)`` of ``loss``: its own
    bounded sides, or for a raw callable ``FixedSize(n)`` against ``FixedSize(m)`` when ``two_sample`` says so (by
    default when ``m`` is given) and against the known target otherwise."""
    if not callable(loss):
        known = loss.scheme_q == KNOWN_TARGET
        if two_sample is not None and two_sample == known:
            raise ValueError(f"a {'known-target' if known else 'two-sample'} loss is scored with two_sample={two_sample}")
        if not _enumerable(loss):
            raise ValueError("this oracle handles fixed-size schemes; use poisson_expected_loss otherwise")
        return loss.evaluator, loss.scheme_p, loss.scheme_q, points
    two_sample = m is not None if two_sample is None else two_sample
    if n is None or (two_sample and m is None):
        need = "explicit sample sizes n and m" if two_sample else "an explicit sample size n"
        raise ValueError(f"a raw callable loss needs {need}")
    return loss, FixedSize(n), FixedSize(m) if two_sample else KNOWN_TARGET, points


def _fixed_size_sweep(cases: Sequence[tuple]) -> list[list[tuple[int, int]]]:
    """``(numerator, denominator)`` of E[loss] at each ``(p, q)`` point over bounded sides, unreduced, for each
    ``(evaluator, model side, target side, points)`` case (:func:`_case`) in one pass; one list per case, its points
    in order.

    Each side yields what the sweep sums over at its point, with integer weights over one denominator
    (``oracle_items``): a fixed-size side its support histograms with their pmf numerators over ``D**size``
    (:func:`_pmf_numerators`, memoized for the life of the process), a known target one item of weight 1,
    itself.  A case looks each distinct model up once, after checking its mode.  A target is scored against the
    union of its models' support lists, each histogram once, so nothing outside a model's support is scored: its
    items' loss values there are integer numerators over one denominator (:func:`_scorer`), folded once into
    ``u = sum_t w_t * values_t``.  A point is one integer dot product of its model's pmf numerators with ``u`` at
    the model's histograms.  Loss values, folds and sums are never kept past the sweep.
    """
    layouts: dict = {}  # a target's model support keys, in pairing order -> (their histograms' union, positions)
    scorers: dict = {}  # id(evaluator) -> (evaluator, its scorer)
    side_keys: dict = {}  # model side -> a small int, so that support keys hash without calling a scheme's hash
    swept = []
    for evaluator, model_side, target_side, points in cases:
        side_key = side_keys.setdefault(model_side, len(side_keys))
        if id(evaluator) not in scorers:
            scorers[id(evaluator)] = evaluator, _scorer(evaluator)
        score = scorers[id(evaluator)][1]
        sides: dict = {}  # id(model) -> (model, support key, histograms, pmf numerators, D**n)
        targets: dict = {}  # id(target) -> [target, {support key: its models' support histograms}, fold]
        paired = []
        for p, q in points:
            side = sides.get(id(p))
            if side is None:
                _require_exact(p, "model")
                hists, pmf, scale = model_side.oracle_items(p, _pmf_numerators)
                side = sides[id(p)] = p, (side_key, p.dim, _scaled_support(p)[0]), hists, pmf, scale
            target = targets.get(id(q))
            if target is None:
                target = targets[id(q)] = [q, {}, None]
            target[1][side[1]] = side[2]
            paired.append((side, target))
        for target in targets.values():
            q, supports = target[0], target[1]
            if isinstance(q, Distribution):
                _require_exact(q, "target")  # a float target equal to an exact one must not share its values
            layout_key = tuple(supports)
            layout = layouts.get(layout_key)
            if layout is None:
                union = list({h.counts: h for hists in supports.values() for h in hists}.values())  # first places
                position = {h.counts: i for i, h in enumerate(union)}
                positions = {key: [position[h.counts] for h in hists] for key, hists in supports.items()}
                layout = layouts[layout_key] = union, positions
            union, positions = layout
            items, weights, target_scale = target_side.oracle_items(q, _pmf_numerators)
            rows, den = score(layout_key, union, items)
            folded = rows[0] if weights == (1,) else [sum(map(operator.mul, weights, column)) for column in zip(*rows)]
            target[2] = folded, positions, target_scale * den
        swept.append([
            (sum(map(operator.mul, pmf, map(folded.__getitem__, positions[key]))), scale * den)
            for (_, key, _, pmf, scale), (_, _, (folded, positions, den)) in paired
        ])
    return swept


def _scorer(evaluator):
    """``score(layout_key, union, items)``: one row of integer numerators per target item, over one shared
    denominator, of ``evaluator``'s values at the ``union`` histograms, as ``(rows, den)``.

    An evaluator the compiler built with its exact route (:func:`~properloss.compiler._numerator_route`) gives
    the numerators of its integer sums directly, over its estimator's one denominator (a known target is one
    item), and no Fraction is built.  Any other callable, a wrapper of a compiled evaluator included, is evaluated
    value by value; its values must be rational, and all of a target's are put over their lcm.  Both memoize per
    sweep: the route its rows by (layout, item), the values by (item, model counts).
    """
    route = _numerator_route(evaluator)
    rows: dict = {}  # (layout key, item) -> the route's (numerators over the union, den)
    values: dict = {}  # item -> {model counts: value}

    def evaluated(union, items) -> tuple:
        row = []
        for t in items:
            memo = values.setdefault(t, {})
            for h in union:
                if h.counts not in memo:
                    value = memo[h.counts] = evaluator(h, t)
                    if not is_rational(value):
                        raise ValueError(f"exact verification needs rational loss values, got {value!r} at {h.counts}")
            row += [memo[h.counts] for h in union]
        numerators, den = over_common_denominator(row)
        return [numerators[i : i + len(union)] for i in range(0, len(row), len(union))], den

    def score(layout_key, union, items) -> tuple:
        if route is None:
            return evaluated(union, items)
        scored = []
        for t in items:
            key = (layout_key, t)
            row = rows.get(key, rows)  # one lookup per item, which may compare equal histograms; ``rows`` marks a miss
            if row is rows:
                row = rows[key] = route(union, t)
            if row is None:  # values not summed in integers, such as against a float target
                return evaluated(union, items)
            scored.append(row)
        return [numerators for numerators, _ in scored], scored[0][1]  # one estimator: one den for every item

    return score


def expected_losses(loss, points: Sequence[tuple], n: int | None = None, m: int | None = None,
                    two_sample: bool | None = None) -> list[Fraction]:
    """E[loss] at every ``(p, q)`` point, by exact enumeration in one sweep.

    The points share histogram enumerations, pmf numerators, loss values and folded targets
    (:func:`_fixed_size_sweep`): each distinct target is folded once, and each loss value is evaluated once.  A
    :class:`~properloss.compiler.CompiledLoss` is scored against its own target side, target samples or, when its
    ``scheme_q`` is ``KNOWN_TARGET``, known targets; a raw callable is a two-sample loss
    ``(h, g) -> value`` when ``m`` is given and a known-target loss ``(h, q) -> value`` otherwise, unless
    ``two_sample`` says which.  A known target is a distribution, or anything hashable its loss reads.
    """
    return [Fraction(num, den) for num, den in _fixed_size_sweep([_case(loss, points, n, m, two_sample)])[0]]


def exact_expected_known_target(loss, p: Distribution, q, n: int | None = None):
    """E over model histograms of a known-target loss, by exact enumeration: a compiled loss, whose ``scheme_p``
    gives the sample size, or a raw callable ``(h, q) -> value`` with ``n`` given explicitly."""
    return expected_losses(loss, [(p, q)], n, two_sample=False)[0]


def exact_expected_two_sample(loss, p: Distribution, q: Distribution, n: int | None = None, m: int | None = None):
    """E over independent (model, target) histogram pairs, by double enumeration."""
    return expected_losses(loss, [(p, q)], n, m, two_sample=True)[0]


@dataclass(frozen=True)
class PoissonExpectation:
    """Truncated expectation with an explicit error budget.

    ``tail_bound`` adds the omitted probability mass times the largest loss
    magnitude seen on the evaluated support to the last extension increment;
    it is reported, never folded into the value.  ``items_model`` and
    ``items_target`` count the histograms with nonzero weight kept on each
    side (``items_model`` is ``None`` for a target-only loss), and ``pairs``
    the (model, target) histogram pairs scored.
    """

    value: float
    tail_bound: float
    omitted_mass: float
    truncation_model: Optional[int]
    truncation_target: Optional[int]
    items_model: Optional[int]
    items_target: int
    pairs: int


#: Pairs scored per pair-evaluator call; bounds the two float buffers, a grid and a workspace, that one
#: :func:`poisson_expected_loss` call scores every block in, at 512 KiB each (more only for a wider target side).
_PAIR_BLOCK = 65536


def _item_arrays(dist: Distribution, size_from: int, size_to: int, size_weight) -> tuple[np.ndarray, np.ndarray]:
    """Every histogram of ``size_from..size_to`` draws from ``dist`` with a nonzero weight
    ``size_weight(size) * P[H = h]``, as an (N, d) int64 count matrix and a float weight vector.

    Sizes ascend, and each size's histograms come in enumeration order over the support.  An exact ``dist``
    builds its rows and its weights ``scale * (num / D**size)`` from the support's compositions and their integer
    pmf numerators (:func:`_numerated_compositions`): ``num / D**size`` rounds the pmf once, as
    ``float(multinomial_pmf(...))`` does, so the weights equal ``scale * multinomial_pmf(...)`` bit for bit.  A
    float one weighs its support histograms with :func:`multinomial_pmf`.
    """
    k = sum(1 for prob in dist.probs if prob != 0)  # only the support is enumerated
    total_hists = sum(math.comb(size + k - 1, k - 1) for size in range(size_from, size_to + 1))
    if total_hists > ENUMERATION_CAP:
        raise EnumerationTooLargeError(f"{total_hists} histograms of {size_from}..{size_to} draws exceed the cap")
    d = dist.dim
    rows, weights = [], []
    if dist.mode is Mode.EXACT:
        support, scaled, den = _scaled_support(dist)
        for size in range(size_from, size_to + 1):
            scale, power = size_weight(size), den**size
            size_parts, numerators = _numerated_compositions(scaled, size)
            rows.extend(size_parts)
            weights.extend([scale * (num / power) for num in numerators])
        counts = np.zeros((len(rows), d), dtype=np.int64)
        counts[:, support] = np.array(rows, dtype=np.int64).reshape(len(rows), k)
    else:
        support = tuple(x for x, prob in enumerate(dist.probs) if prob != 0)
        for size in range(size_from, size_to + 1):
            scale, hists = size_weight(size), _support_histograms(support, d, size)
            rows.extend([h.counts for h in hists])
            weights.extend([scale * multinomial_pmf(h, size, dist) for h in hists])
        counts = np.array(rows, dtype=np.int64).reshape(len(rows), d)
    weights = np.array(weights, dtype=float)
    keep = weights != 0
    return counts[keep], weights[keep]


@functools.lru_cache(maxsize=_ITEM_TABLES)
def _side_items(dist: Distribution, scheme, size_from: int, size_to: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_item_arrays` weighted by ``scheme``'s size probabilities (``size_weight``).

    Memoized by value for the life of the process; the arrays are shared by every caller, so they are read-only.
    """
    items = _item_arrays(dist, size_from, size_to, scheme.size_weight)
    for array in items:
        array.setflags(write=False)
    return items


def poisson_expected_loss(
    loss: CompiledLoss,
    p: Distribution | None,
    q: Distribution,
    tail_eps: float = 1e-10,
    value_tol: float = 1e-7,
    max_items_per_side: int = 8000,
) -> PoissonExpectation:
    """Expected loss under the loss's own schemes, truncating unbounded (Poisson) sides.

    Each side starts at the sizes its scheme names (``first_sizes``): an
    unbounded side up to the smallest whose omitted tail mass is below its
    share of ``tail_eps``, then it keeps extending in blocks
    while its expectation increment exceeds ``value_tol * max(1, |value|)``.
    The extension matters because power-series losses grow with sample size,
    so omitted probability mass understates omitted expectation mass; a side
    whose increments have stabilized twice in a row stops growing.  A bounded
    (fixed-size) side is enumerated whole.  Rates come from the loss's own
    schemes, so they cannot drift from the series baked into the evaluator.
    A known target is refused: :func:`expected_losses` scores it exactly.

    Divergent expectations never converge here; the item budget stops the
    chase and the large reported ``tail_bound`` flags the result as unusable.

    Every side is an int64 count matrix with a float weight vector (the model
    side of a target-only loss has no counts and one unit weight), and each
    block of at most ``_PAIR_BLOCK`` pairs, some model rows against the whole
    target side, is one call of the loss's float pair evaluator
    (:attr:`CompiledLoss.pair_evaluator`), whatever the loss's mode: a series
    loss scores the block as a grid from its series table, any other loss
    scores tiled and repeated rows with its batch evaluator.  The grid is
    target-major, so one reduce over its target axis adds each model row's
    terms one after another; a block of one row or one column keeps a
    cumulative sum.  The call allocates two flat float buffers, a grid and a
    workspace, sized for its largest block, and passes them to every block
    through the pair evaluator's ``out`` keyword: the evaluator writes its
    grid into the first and returns a view of it.  The oracle takes |v| and
    the weighted grid in the workspace, and reads only the grid returned,
    never the buffers themselves, nor writes into that grid, so an evaluator
    that returns an array of its own is scored the same.  Sums run in the
    order of a row-by-row double loop, so a float-mode loss whose batch
    evaluator equals its scalar one gives the same result bit for bit.  Sides
    come from a process-wide memo (:func:`_side_items`), so a repeated call
    builds none of them again.
    """
    if loss.scheme_p is not None and p is None:
        raise ValueError("the loss consumes a model sample, so a model distribution is required")
    if loss.scheme_p is not None and p.dim != q.dim:
        raise DimensionMismatchError(f"model dimension {p.dim} != target dimension {q.dim}")
    unbounded = sum(1 for s in (loss.scheme_p, loss.scheme_q) if s is not None and not s.bounded)
    per_side = tail_eps / unbounded if unbounded else tail_eps
    sup_loss = 0.0
    pairs = 0
    no_items = (None, np.zeros(0))

    buffers = (np.empty(0), np.empty(0))  # the grid and the workspace that every block is scored in

    def cross(left: tuple, right: tuple) -> float:
        nonlocal sup_loss, pairs, buffers
        (left_counts, left_w), (right_counts, right_w) = left, right
        acc = 0.0
        if not len(left_w) or not len(right_w):
            return acc
        rows = max(1, _PAIR_BLOCK // len(right_w))
        size = min(rows, len(left_w)) * len(right_w)
        if len(buffers[0]) < size:  # a larger block than any before; the old buffers go first
            buffers = ()
            size = max(size, min(_PAIR_BLOCK, 2 * size))  # a block within half of a full one gets a full one
            buffers = (np.empty(size), np.empty(size))
        for start in range(0, len(left_w), rows):
            w = left_w[start : start + rows]
            v = pair_evaluator(None if left_counts is None else left_counts[start : start + rows], right_counts,
                               out=buffers)
            scratch = _pair_grids(buffers, *v.shape)[1].T  # target-major, whatever the layout of v
            sup_loss = float(np.fmax.reduce(np.abs(v, out=scratch), axis=None, initial=sup_loss))  # NaN is skipped
            np.multiply(v, right_w, out=scratch)
            if min(v.shape) < 2:  # one row would be added pairwise by a reduce, as one contiguous run
                inner = _row_sums(scratch)
            else:  # target-major, so a reduce over the targets adds them one after another, as the scalar loop does
                inner = np.add.reduce(scratch, axis=1)
            acc = float(np.cumsum(np.concatenate(([acc], w * inner)))[-1])
            pairs += v.size
        return acc

    def side(scheme, dist: Distribution) -> tuple:
        """The side's first items, and the largest size enumerated on an unbounded side."""
        if scheme is None:
            return (None, np.ones(1)), None
        size_from, size_to = scheme.first_sizes(per_side)
        return _side_items(dist, scheme, size_from, size_to), None if scheme.bounded else size_to

    def grown(items: tuple, new: tuple) -> tuple:
        return tuple(np.concatenate((old, extra)) for old, extra in zip(items, new))

    model_side, trunc_p = side(loss.scheme_p, p)
    target_side, trunc_q = side(loss.scheme_q, q)
    pair_evaluator = loss.pair_evaluator

    value = cross(model_side, target_side)

    last_delta = 0.0
    step = 4
    calm_p = 0 if trunc_p is not None else 2
    calm_q = 0 if trunc_q is not None else 2
    while calm_p < 2 or calm_q < 2:
        grow_p = calm_p < 2 and len(model_side[1]) < max_items_per_side
        grow_q = calm_q < 2 and len(target_side[1]) < max_items_per_side
        if not grow_p and not grow_q:
            break
        new_p = _side_items(p, loss.scheme_p, trunc_p + 1, trunc_p + step) if grow_p else no_items
        new_q = _side_items(q, loss.scheme_q, trunc_q + 1, trunc_q + step) if grow_q else no_items
        delta_p = cross(new_p, target_side)
        delta_q = cross(model_side, new_q)
        delta_pq = cross(new_p, new_q)
        value += delta_p + delta_q + delta_pq
        if grow_p:
            trunc_p += step
            model_side = grown(model_side, new_p)
        if grow_q:
            trunc_q += step
            target_side = grown(target_side, new_q)
        last_delta = abs(delta_p) + abs(delta_q) + abs(delta_pq)
        threshold = value_tol * max(1.0, abs(value))
        if grow_p:
            calm_p = calm_p + 1 if abs(delta_p) + abs(delta_pq) <= threshold else 0
        if grow_q:
            calm_q = calm_q + 1 if abs(delta_q) + abs(delta_pq) <= threshold else 0

    omitted = 0.0
    for (_, weights), trunc in ((model_side, trunc_p), (target_side, trunc_q)):
        if trunc is not None:  # an unbounded side
            omitted += max(0.0, 1.0 - sum(weights.tolist()))
    return PoissonExpectation(
        value=value,
        tail_bound=omitted * sup_loss + last_delta,
        omitted_mass=omitted,
        truncation_model=trunc_p,
        truncation_target=trunc_q,
        items_model=None if loss.scheme_p is None else len(model_side[1]),
        items_target=len(target_side[1]),
        pairs=pairs,
    )


@dataclass(frozen=True)
class VerificationReport:
    """One implementation check: target divergence value vs computed expectation."""

    target: object
    estimate: object
    gap: object
    mode: str  # "exact" or "truncated"
    tail_bound: Optional[float]
    passed: bool


def _equals(target, num: int, den: int) -> bool:
    """Whether ``target``, a Fraction or an unreduced ``(numerator, denominator)`` pair, equals ``num / den``, by
    cross-multiplication, without building a Fraction; any other value (a float) equals nothing."""
    if type(target) is tuple:
        return num * target[1] == target[0] * den
    return type(target) is Fraction and num * target.denominator == target.numerator * den


def check_implements(loss, divergence, points: Sequence[tuple]) -> list[VerificationReport]:
    """Check E[loss] == divergence at every (p, q) pair.

    Fixed-size losses and known targets are checked exactly, by the suite's one comparison (:func:`_compared`): the
    distributions must be exact-mode, the loss values rational (a float value raises ``ValueError``), and a point
    passes when its gap is exactly zero.  An equal point reports the divergence value as its estimate and a shared
    zero gap; only a point that differs builds its estimate's Fraction.  Truncated checks pass when the gap is
    within the oracle's ``tail_bound``.
    """
    if not points:
        raise ValueError("need at least one (model, target) point to check")
    reports: list[VerificationReport] = []
    if callable(loss) or _enumerable(loss):
        # fixed-size sides, or a known target: one exact oracle for every point (a raw callable is refused there)
        zero = Fraction(0)
        [compared] = _compared([(divergence, points, [loss])])
        for target, (num, den) in compared:
            if type(target) is tuple:
                target = Fraction(*target)
            if _equals(target, num, den):
                reports.append(VerificationReport(target, target, zero, "exact", None, True))
                continue
            value = Fraction(num, den)
            gap = abs(target - value)
            reports.append(VerificationReport(target, value, gap, "exact", None, gap == 0))
        return reports

    # At least one unbounded (Poisson) or absent side: truncated oracle per point.
    for p, q in points:
        target = divergence.evaluate(p, q)
        if math.isinf(target):
            # a truncated sum can never witness an infinite expectation
            reports.append(VerificationReport(target, math.nan, math.inf, "truncated", None, False))
            continue
        est = poisson_expected_loss(loss, p, q)
        gap = abs(float(target) - est.value)
        reports.append(VerificationReport(target, est.value, gap, "truncated", est.tail_bound, gap <= est.tail_bound))
    return reports


def naive_plugin_loss(n: int) -> CompiledLoss:
    """The biased plug-in loss ||phat - q||^2, kept around as a counterexample.

    Its expectation is the squared distance plus the summed sampling variance
    of the empirical frequencies, so its minimizer is pulled toward lower
    variance models; the bias demo quantifies the pull.
    """
    if n < 1:
        raise SampleTooSmallError("need at least one draw")

    def evaluator(h: Histogram, q) -> object:
        qv = q.probs if isinstance(q, Distribution) else tuple(q)
        if h.dim != len(qv):
            raise DimensionMismatchError(f"histogram dimension {h.dim}, target dimension {len(qv)}")
        if h.total != n:
            raise TotalMismatchError(f"histogram total {h.total} != declared sample size {n}")
        phat = empirical(h).probs
        return sum((a - b) ** 2 for a, b in zip(phat, qv))

    return CompiledLoss(evaluator, FixedSize(n), KNOWN_TARGET, f"plug-in squared loss (biased), n={n}")


@dataclass(frozen=True)
class NaivePluginBias:
    """Where the plug-in squared loss actually puts its optimum on a coin domain."""

    q1: object
    n: int
    closed_form: object  # clip((q1 - 1/(2n)) * n/(n-1), 0, 1)
    grid_argmin: float


#: Spacing of the grid on which :func:`naive_plugin_bias_demo` corroborates its closed form.
_BIAS_GRID_STEP = 1e-4


def _plugin_optimum(q: Distribution, n: int):
    """The plug-in loss's optimum on a coin domain, ``(q1 - 1/(2n)) * n/(n-1)`` clipped to [0, 1]; ``q`` is exact."""
    if q.dim != 2:
        raise DimensionMismatchError("the bias demo is defined on two-outcome domains")
    if n < 2:
        raise SampleTooSmallError("need n >= 2")
    _require_exact(q, "target")
    stationary = (q.probs[0] - Fraction(1, 2 * n)) * Fraction(n, n - 1)
    return min(max(stationary, Fraction(0)), Fraction(1))


def naive_plugin_bias_demo(q: Distribution, n: int) -> NaivePluginBias:
    """Minimize the plug-in loss's expectation over two-outcome models.

    The expectation is ``2(p1 - q1)^2 + 2 p1 (1 - p1)/n``; the stationary
    point is ``(q1 - 1/(2n)) * n/(n-1)``, clipped to [0, 1].  Both the closed
    form and a dense grid minimum are returned so they can corroborate each
    other.
    """
    closed = _plugin_optimum(q, n)
    grid = np.arange(0.0, 1.0 + _BIAS_GRID_STEP / 2, _BIAS_GRID_STEP)
    q1 = q.probs[0]
    values = 2.0 * (grid - float(q1)) ** 2 + 2.0 * grid * (1.0 - grid) / n
    return NaivePluginBias(q1=q1, n=n, closed_form=closed, grid_argmin=float(grid[int(np.argmin(values))]))


def _exact_system_consistent(rows: list[list[Fraction]]) -> bool:
    """Gaussian elimination over rationals; True iff the augmented system is solvable."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) - 1
    rank_col = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank_col, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank_col], rows[pivot] = rows[pivot], rows[rank_col]
        base = rows[rank_col]
        inv = base[col]
        rows[rank_col] = [v / inv for v in base]
        for i in range(len(rows)):
            if i != rank_col and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank_col])]
        rank_col += 1
    return all(not (all(v == 0 for v in r[:-1]) and r[-1] != 0) for r in rows)


def degree_gate_bypass_exists(divergence, q: Distribution, points: Sequence[Distribution]) -> bool:
    """Can ANY single-draw loss reproduce divergence(., q) at the given models?

    With one draw, the expected loss is ``sum_x p_x * L(e_x, q)``: affine in
    ``p`` with the d loss values as free coefficients.  This solves that
    linear system exactly; infeasibility certifies the degree gate cannot be
    bypassed for this divergence, not merely that our construction declines.
    """
    rows = []
    for p in points:
        _require_exact(p, "model")
        rows.append(list(p.probs) + [divergence.evaluate(p, q)])
    return _exact_system_consistent(rows)


# ----------------------------------------------------------------------
# the check suite
# ----------------------------------------------------------------------

#: The two-outcome targets and models the checks share.
_HALF = Distribution.exact([Fraction(1, 2), Fraction(1, 2)])
_SKEW = Distribution.exact([Fraction(1, 4), Fraction(3, 4)])
_TENTH = Distribution.exact([Fraction(1, 10), Fraction(9, 10)])


def _grid_pairs(d: int, denominator: int) -> list:
    points = simplex_grid(d, denominator)
    return [(p, q) for p in points for q in points]


#: ``PolyDivergence.evaluate`` as defined, which can give an exact value unreduced; a replacement, such as a
#: counting or timing wrapper, is called in its public two-argument form.
_POLY_EVALUATE = PolyDivergence.evaluate


def _compared(groups):
    """Each loss's points, as ``(divergence value, (numerator, denominator) of E[loss])`` pairs, for every loss of
    every ``(divergence, points, losses)`` group, in order.

    Every loss of every group is one case of one sweep (:func:`_fixed_size_sweep`), made at the first ``next``; each
    group's divergence is evaluated once per point, unreduced, so a value is a Fraction, an unreduced
    ``(numerator, denominator)`` pair or a float.  Each loss's pairs are yielded lazily, as one ``zip``.
    """
    groups = list(groups)
    swept = iter(_fixed_size_sweep([_case(loss, points) for _, points, losses in groups for loss in losses]))
    for divergence, points, losses in groups:
        unreduced = {"unreduced": True} if type(divergence).evaluate is _POLY_EVALUATE else {}
        targets = [divergence.evaluate(p, q, **unreduced) for p, q in points]
        for _ in losses:
            yield zip(targets, next(swept))


def _exact_outcome(groups, detail: str) -> tuple:
    """Whether E[loss] equals the divergence exactly at every point, for every loss of every ``(divergence, points,
    losses)`` group, by the one comparison (:func:`_compared`).

    A point is compared by cross-multiplication; only one that differs builds Fractions, for its gap.  The gap is
    the largest one seen; ``{count}`` in ``detail`` becomes the number of points checked.
    """
    groups = list(groups)
    worst = Fraction(0)
    for compared in _compared(groups):
        for target, (num, den) in compared:
            if not _equals(target, num, den):
                value = Fraction(*target) if type(target) is tuple else target
                worst = max(worst, abs(value - Fraction(num, den)))
    count = sum(len(points) * len(losses) for _, points, losses in groups)
    return worst == 0, str(worst), detail.format(count=count)


def _l2_cases(compile_l2, sizes: Sequence[tuple]):
    """The l2 loss compiled at each of ``sizes``, with the squared distance, on a d=2 and a d=3 grid."""
    for d, denom in ((2, 8), (3, 4)):
        l2 = builtin_l2(d)
        yield l2, _grid_pairs(d, denom), [compile_l2(l2, *size) for size in sizes]


def _degree_cases() -> list:
    """``(divergence, n, m)`` for l2, lk:4 and brier at d=2, at their degrees: the smallest sizes that compile."""
    return [(builtin_l2(2), 2, 2), (builtin_lk_even(2, 4), 4, 4), (builtin_brier(2), 2, 1)]


def _check_plugin_bias(seed: int) -> tuple:
    demo10 = naive_plugin_bias_demo(_TENTH, 10)  # the one grid; the other sizes need only the optimum
    gap = abs(float(demo10.closed_form) - demo10.grid_argmin)
    below = all(_plugin_optimum(_TENTH, n) < Fraction(1, 10) for n in range(2, 21))
    ok = below and gap <= 1e-4 and demo10.closed_form == Fraction(1, 18)
    detail = f"optimum at n=10 is {demo10.closed_form} (grid {demo10.grid_argmin:.4f}), below 1/10 for n=2..20"
    return ok, f"{gap:.2e}", detail


def _check_plugin_improper(seed: int) -> tuple:
    n = 10
    loss = naive_plugin_loss(n)
    points = [(p, _TENTH) for p in simplex_grid(2, 8) if 0 < p.probs[0] < 1]
    reports = check_implements(loss, builtin_l2(2), points)
    # the plug-in loss must FAIL exact implementation at every interior model
    all_failed = all(not r.passed for r in reports)
    expected_gap = all(
        r.gap == 2 * p.probs[0] * (1 - p.probs[0]) / n for r, (p, _) in zip(reports, points)
    )
    detail = f"{len(reports)} interior models all show a positive exact gap"
    return all_failed and expected_gap, "summed-frequency-variance", detail


def _check_squared_known_target(seed: int) -> tuple:
    groups = _l2_cases(compile_known_target, [(n,) for n in (2, 3, 4, 5)])
    return _exact_outcome(groups, "{count} (model, target, n) combinations, exact equality")


def _check_squared_two_sample(seed: int) -> tuple:
    groups = _l2_cases(compile_two_sample, [(n, m) for n in (2, 3) for m in (2, 3)])
    return _exact_outcome(groups, "{count} (model, target, n, m) combinations, exact equality")


def _check_compiler_exact(seed: int) -> tuple:
    pairs = _grid_pairs(2, 4)
    groups = ((divergence, pairs, [compile_two_sample(divergence, n, m)]) for divergence, n, m in _degree_cases())
    return _exact_outcome(groups, "l2, lk:4, brier compiled at their degrees match exactly on the grid")


def _check_compiler_gates(seed: int) -> tuple:
    ok = True
    for divergence, n, m in _degree_cases():
        compile_two_sample(divergence, n, m)  # must succeed at the boundary
        for build, *sizes in ((compile_two_sample, n - 1, m), (compile_two_sample, n, m - 1),
                              (compile_known_target, n - 1)):
            try:
                build(divergence, *sizes)
                ok = False
            except DegreeGateError:
                pass
    return ok, "0", "compilation succeeds at the degree boundary and refuses one draw below it"


def _check_degree_one_affine(seed: int) -> tuple:
    inner_product = PolyDivergence(
        tuple(Monomial(1, ExponentVector.unit(2, x), ExponentVector.unit(2, x)) for x in range(2))
    )
    loss = compile_two_sample(inner_product, 1, 1)
    grid = simplex_grid(2, 8)
    targets = (Distribution.uniform(2), _SKEW)
    values = expected_losses(loss, [(p, q) for q in targets for p in grid])
    rows = [values[i : i + len(grid)] for i in range(0, len(values), len(grid))]  # one row per target
    ok = True
    for row in rows:
        # the grid is evenly spaced in p1, so affine means vanishing second differences
        seconds = [row[i + 1] - 2 * row[i] + row[i - 1] for i in range(1, len(row) - 1)]
        ok = ok and all(s == 0 for s in seconds)
    spread = max(rows[0]) - min(rows[0])  # under the uniform target
    detail = "one-draw expected losses are affine in the model; constant under a uniform target"
    return ok and spread == 0, str(spread), detail


def _check_single_draw_infeasible(seed: int) -> tuple:
    points = [
        Distribution.exact([1, 0]),
        _HALF,
        Distribution.exact([0, 1]),
    ]
    bypass = degree_gate_bypass_exists(builtin_l2(2), _HALF, points)
    detail = "no single-draw loss of ANY form matches the squared distance on three collinear models"
    return not bypass, "0", detail


def _check_bregman(seed: int) -> tuple:
    detail = "Bregman loss equals the closed squared-loss form pointwise; mean-vs-truth gap is the summed variance"
    potential, gradient, grid = squared_norm_polynomial(2), squared_norm_gradient(2), simplex_grid(2, 4)
    try:
        losses = [(bregman_known_target(potential, gradient, n), compile_known_target(builtin_l2(2), n))
                  for n in (2, 3)]
    except ValueError:  # a rejected gradient or potential
        return False, "0", detail
    ok = True
    for bloss, squared in losses:  # each loss's rows of integer numerators, compared by cross-multiplication
        hists = enumerate_histograms(2, bloss.scheme_p.n)
        (rows_b, den_b), (rows_s, den_s) = (_scorer(loss.evaluator)(None, hists, grid) for loss in (bloss, squared))
        ok = ok and all(b * den_s == s * den_b for row_b, row_s in zip(rows_b, rows_s) for b, s in zip(row_b, row_s))
    # mean of the potential at the empirical distribution exceeds the potential
    # at the truth by exactly the summed frequency variance
    def at_empirical(h: Histogram, _) -> Fraction:
        phat = empirical(h)
        return potential.evaluate(phat, phat)

    truths = [potential.evaluate(p, p) for p in grid]
    for n in (2, 3, 4):
        means = expected_losses(at_empirical, [(p, None) for p in grid], n)
        for p, truth, mean in zip(grid, truths, means):
            ok = ok and mean - truth == sum(px * (1 - px) for px in p.probs) / n
    return ok, "0", detail


def _check_cross_entropy(seed: int) -> tuple:
    loss = cross_entropy_poisson(6.0, 6.0)
    est1 = poisson_expected_loss(loss, _HALF, _HALF, tail_eps=1e-10)
    gap1 = abs(est1.value - math.log(2))
    est2 = poisson_expected_loss(loss, _SKEW, _HALF, tail_eps=1e-10)
    target2 = -(0.5 * math.log(0.25) + 0.5 * math.log(0.75))
    gap2 = abs(est2.value - target2)
    # the loss itself stays finite even where the divergence is infinite
    finite = math.isfinite(float(loss.evaluator(Histogram((0, 4)), Histogram((3, 0)))))
    ok = gap1 <= 1e-4 and gap2 <= 1e-4 and finite
    detail = f"truncated expectations match -sum q ln p at two points (tail {est1.omitted_mass:.1e})"
    return ok, f"{max(gap1, gap2):.2e}", detail


def _check_entropy_kl(seed: int) -> tuple:
    ent = poisson_expected_loss(entropy_poisson(6.0), None, _HALF, tail_eps=1e-10)
    gap_ent = abs(ent.value - math.log(2))
    kl = poisson_expected_loss(kl_poisson(8.0, 8.0), _SKEW, _HALF, tail_eps=1e-10)
    target_kl = 0.5 * math.log(2) + 0.5 * math.log(2.0 / 3.0)
    gap_kl = abs(kl.value - target_kl)
    ok = gap_ent <= 1e-4 and gap_kl <= 1e-3
    return ok, f"{max(gap_ent, gap_kl):.2e}", "entropy matches -sum q ln q; KL matches sum q ln(q/p)"


def _enumerate_two_point_pairs(w: Fraction) -> list:
    """(sample, probability) for two i.i.d. draws from a {0,1}-valued coin."""
    return [
        (RealSample((0, 0)), w * w),
        (RealSample((0, 1)), 2 * w * (1 - w)),
        (RealSample((1, 1)), (1 - w) * (1 - w)),
    ]


def _check_cramer_energy(seed: int) -> tuple:
    ok = cramer_loss(RealSample((0, 1)), RealSample((0, 1))) == Fraction(-1, 2)
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


def _check_mc_sanity(seed: int) -> tuple:
    loss = compile_two_sample(builtin_l2(2), 2, 2, Mode.FLOAT)
    model = InternalSource(Distribution.floating((0.25, 0.75)))
    target = InternalSource(Distribution.floating((0.5, 0.5)))
    truth = float(builtin_l2(2).evaluate(model.dist, target.dist))
    report = estimate_loss(model, target, loss, 20000, seed)
    gap = abs(report.mean - truth)
    ok = gap <= 5 * report.std_error
    return ok, f"{gap:.2e}", f"Monte Carlo mean within 5 standard errors of {truth} (se {report.std_error:.2e})"


#: The ``properloss verify`` suite in output order: ``name -> (tag, body)``.  The tag is "exact" or
#: "truncated"; a body takes the seed and returns ``(passed, gap, detail)``.
CHECKS = {
    "plugin-bias": ("exact", _check_plugin_bias),
    "plugin-improper": ("exact", _check_plugin_improper),
    "squared-known-target": ("exact", _check_squared_known_target),
    "squared-two-sample": ("exact", _check_squared_two_sample),
    "compiler-exact": ("exact", _check_compiler_exact),
    "compiler-gates": ("exact", _check_compiler_gates),
    "degree-one-affine": ("exact", _check_degree_one_affine),
    "single-draw-infeasible": ("exact", _check_single_draw_infeasible),
    "bregman": ("exact", _check_bregman),
    "cross-entropy": ("truncated", _check_cross_entropy),
    "entropy-kl": ("truncated", _check_entropy_kl),
    "cramer-energy": ("exact", _check_cramer_energy),
    "mc-sanity": ("truncated", _check_mc_sanity),
}

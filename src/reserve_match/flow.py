"""The solver: validity checks on the type lattice, the crucial-vector search
and the choice function.

Every check is decided from the types alone. Let R' be the k' reserved
types that occur in the instance's group keys (at most
model.MAX_RESERVED_TYPES), K_u inside R' group u's key, Q_j(T) the rank-j
quota of the types in a set T of them (plus the q general seats at the last
rank), and s* the per-rank seat counts of every maximal-diversity matching.
Edmonds' polymatroid greedy (Submodular functions, matroids, and certain
polyhedra, 1970), taking the seat classes rank by rank, gives F* =
min(|S|, q) and s*, the seats at the ranks up to m being the most a
matching can give them (a min cut over the type sets). Targets l are then
valid exactly when every l_u fits its group and, for every T inside R',

    sum {l_u : K_u inside T} <= rhs(T) = sum_j min(s*_j, Q_j(T))

by Hoffman's circulation theorem (Proc. Symp. Appl. Math. 10, 1960) on the
reserve network (groups, types, seat classes) with [l_u, |S_u|] on the
group arcs and [s*_j, s*_j] on the per-rank totals, whose only cuts that
can fail are one type set and its best ranks. One subset-sum (zeta) pass
over the 2^k' sets decides a vector, and a set that fails is a _Cut: the
groups inside it, bounded by rhs(T), which every maximal-diversity matching
obeys. The sets are laid out once per instance (_LatticeLayout, kept in
its `lattice`) and shared by every model.Pool of it: some of the
instance's students as positions of its priority, with a pointer to the
instance, which is what run_gda and substitutability_probe choose on. The
engine reads a pool's groups as its group keys and the priority positions
of each group's members (member_positions), never as Group objects, and
never reads a priority. The choice runs on a pool (choose_pool), an Instance
being the pool of all its students, and returns the per-group counts;
choice_flow reads a group's selected students off its first positions in
the instance's priority (_selected).

A check that fails leaves its cut. Both searches descend on those cuts in
one loop (_descend), in the manner of Dinkelbach's parametric method
(Management Science 13(7), 1967): from the largest point whose targets fit
in F*, each failed check moves straight to the largest point its cut
allows, and point 0, valid in both searches, needs no check. A choice runs
the alpha search (over ratios), which took one or two checks on every
instance measured, and then the greedy walk (over prefixes) from alpha's
targets, which took 3 on the benchmark's hard-regime school.

The valid count vectors are the vectors under a polymatroid, and those of
maximal-diversity matchings its bases. check_validity_flow, which
`validate` prints, raises valid targets to a canonical base: each group in
key order, as far as its size and every type set above its key allow.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain, repeat
from math import gcd
from operator import add, sub
from typing import Callable, NamedTuple, Optional, TypeVar

from .model import (
    ChoiceResult,
    GroupKey,
    Instance,
    InternalInvariantError,
    Pool,
    Ratio,
    Signature,
    TargetVector,
    min_count_ratio,
)


@dataclass(frozen=True)
class _Cut:
    """Why a target vector is invalid: no maximal-diversity matching gives
    the groups in `groups` more than `bound` students in total, and their
    targets sum to more than that."""

    groups: tuple[GroupKey, ...]
    bound: int


_Point = TypeVar("_Point", int, Fraction)  # a ratio or a prefix length


def _halves(bit: int, size: int) -> list[tuple[slice, slice]]:
    """The type sets below `size` that hold `bit`, paired with the same sets
    without it, as a few slices: one per offset below the bit, or one per
    block of 2 * bit sets, whichever is fewer (at most sqrt(size / 2))."""
    step = 2 * bit
    if bit <= size // step:
        return [(slice(o + bit, size, step), slice(o, size, step)) for o in range(bit)]
    return [
        (slice(base + bit, base + step), slice(base, base + bit))
        for base in range(0, size, step)
    ]


def _zeta(values: list[int], halves: list[list[tuple[slice, slice]]]) -> None:
    """Turn values over type sets into their subset sums, in place: each
    set T then holds the sum over the sets inside T."""
    for pairs in halves:
        for upper, lower in pairs:
            values[upper] = map(add, values[upper], values[lower])


def _modular(weights: list[int]) -> list[int]:
    """The sum of the weights of the bits in each type set, by doubling."""
    row = [0]
    for w in weights:
        row += [x + w for x in row]
    return row


def _supersets(mask: int, size: int) -> list[int]:
    """The type sets below `size` that hold every bit of `mask`, by doubling
    over the bits it lacks."""
    sets = [mask]
    bit = 1
    while bit < size:
        if not mask & bit:
            sets += [t | bit for t in sets]
        bit <<= 1
    return sets


class _LatticeLayout:
    """The type lattice of an instance, laid out once over all of its group
    keys and kept in its `lattice`, which every Pool of it reads.

    A type set T is an int below `size` = 2^k', one bit per reserved type
    that occurs in the instance's group keys, in sorted order. `masks` gives
    each group key its set K_u, and `halves[i]` are bit i's slices (see
    _halves). For each rank j below the last (the ranks with quotas),
    `seats[j - 1][T]` is Q_j(T), the rank-j quota of the types in T, and
    `upto[j - 1][T]` the quota of those types at the ranks up to j; the
    last rank holds only the q general seats.
    """

    def __init__(self, instance: Instance, types: list[str]) -> None:
        bit = {t: 1 << i for i, t in enumerate(types)}
        keys = instance.group_keys()
        self.masks = {key: sum(map(bit.__getitem__, key)) for key in keys}
        self.capacity = instance.capacity
        self.size = 1 << len(types)
        self.halves = [_halves(1 << i, self.size) for i in range(len(types))]
        quota = instance.quotas.get
        held = [0] * len(types)
        self.seats: list[list[int]] = []
        self.upto: list[list[int]] = []
        for j in range(1, instance.max_rank):
            rank = [quota((t, j), 0) for t in types]
            held = list(map(add, held, rank))
            self.seats.append(_modular(rank))
            self.upto.append(_modular(held))


class _TypeLattice:
    """The validity checks of one instance or Pool of it on the instance's
    type lattice: the surface _descend, _Walk and choose_pool read.

    `value` is F* = min(|S|, q) and `per_rank` is s*, the per-rank seat
    counts of every maximal-diversity matching. Edmonds' polymatroid
    greedy, taking the (type, rank) classes rank by rank, gives s*, and it
    fills every prefix of its order as far as the classes can hold: its
    seats at the ranks up to m are the most those classes can take,
    min(q, min over type sets U of C_m(U) + cov(R' - U)), with C_m(U) the
    quota of U's types at ranks up to m and cov(R' - U) the students who
    hold a type outside U (a min cut of the reserve network up to rank m).
    The general seats take the rest of F* at the last rank.

    A target vector l is valid exactly when each l_u fits its group and,
    for every type set T, L(T) = sum {l_u : K_u inside T} <= rhs(T) =
    sum_j min(s*_j, Q_j(T)), with q general seats at the last rank in every
    Q_r(T). A check that fails leaves a _Cut in `cut`: the groups inside the
    set with the largest excess L(T) - rhs(T) (the first such set), bounded
    by rhs(T).
    """

    def __init__(self, instance: Instance | Pool, layout: _LatticeLayout) -> None:
        sizes = zip(instance.group_keys(), map(len, instance.member_positions()))
        self.sizes = dict(sizes)
        self.masks = masks = layout.masks
        self.halves = layout.halves
        self.size = layout.size
        self.cut: Optional[_Cut] = None
        # every student is in one group
        n = sum(self.sizes.values())
        self.value = min(n, layout.capacity)
        # inside[U]: the students whose key lies inside U, so n - inside[U]
        # hold a type outside U
        inside = [0] * layout.size
        for key, size in self.sizes.items():
            inside[masks[key]] += size
        _zeta(inside, self.halves)
        held = [
            min(layout.capacity, n - max(map(sub, inside, upto)))
            for upto in layout.upto
        ]
        self.per_rank: Signature = tuple(
            map(sub, held + [self.value], [0] + held)
        )
        rhs = [self.per_rank[-1]] * layout.size
        for s, seats in zip(self.per_rank, layout.seats):
            if s:
                rhs = list(map(add, rhs, map(min, repeat(s), seats)))
        self.rhs = rhs

    def _loads(self, targets: TargetVector) -> list[int]:
        """L(T) for every type set T."""
        have = [0] * self.size
        masks = self.masks
        for key, want in targets.items():
            have[masks[key]] += want
        _zeta(have, self.halves)
        return have

    def check(self, targets: TargetVector) -> bool:
        """Whether the targets are valid; a failed check leaves its cut in
        `cut`. A sum above F* fails at the set of every type, as rhs <= F*
        there. Unknown groups and negative targets raise ValueError."""
        sizes = self.sizes
        if not sizes.keys() >= targets.keys():
            unknown = set(targets) - sizes.keys()
            raise ValueError(f"targets for unknown groups: {sorted(unknown)}")
        if min(targets.values(), default=0) < 0:
            raise ValueError("negative target")
        for key, want in targets.items():
            if want > sizes[key]:
                self.cut = _Cut((key,), sizes[key])
                return False
        excess = list(map(sub, self._loads(targets), self.rhs))
        worst = max(excess)
        if worst <= 0:
            return True
        t = excess.index(worst)
        masks = self.masks
        inside = tuple(key for key in sizes if not masks[key] & ~t)
        self.cut = _Cut(inside, self.rhs[t])
        return False

    def base(self, targets: TargetVector) -> dict[GroupKey, int]:
        """The canonical maximal-diversity counts above valid targets: from
        the targets, each group in key order is raised by as much as its
        size and the slack rhs(T) - L(T) of every type set T above its key
        allow. Raising a vector of a polymatroid greedily ends at a base,
        whose sum is F*."""
        slack = list(map(sub, self.rhs, self._loads(targets)))
        counts = {}
        for key, size in self.sizes.items():
            have = targets.get(key, 0)
            above = _supersets(self.masks[key], self.size)
            raise_by = min(size - have, *map(slack.__getitem__, above))
            if raise_by:
                for t in above:
                    slack[t] -= raise_by
            counts[key] = have + raise_by
        if sum(counts.values()) != self.value:
            raise InternalInvariantError("canonical counts are not a base")
        return counts


def _layout(x: Instance | Pool) -> _LatticeLayout:
    """The type lattice of x's instance (x itself, or a Pool's), laid out
    once per instance in its `lattice`."""
    instance = x.instance if isinstance(x, Pool) else x
    if instance.lattice is None:
        types = sorted(set(chain.from_iterable(instance.group_keys())))
        instance.lattice = _LatticeLayout(instance, types)
    return instance.lattice


def build_network(instance: Instance | Pool) -> _TypeLattice:
    """The validity checks of the instance or pool on the instance's type
    lattice."""
    return _TypeLattice(instance, _layout(instance))


def compute_certificate(checks: _TypeLattice) -> tuple[int, Signature]:
    """F* and s*, the value and per-rank signature of every maximal-diversity
    matching."""
    return checks.value, checks.per_rank


# perfbench/spans.py traces this name; it goes with ROADMAP item 2's
# perfbench change
min_cost_max_flow = compute_certificate


def check_validity_flow(
    instance: Instance,
    targets: TargetVector,
    *,
    network: Optional[_TypeLattice] = None,
) -> Optional[dict[GroupKey, int]]:
    """The canonical counts of a maximal-diversity matching that meets the
    targets (see _TypeLattice.base), or None when no such matching exists.
    The checks run on `network` when it is given."""
    checks = network if network is not None else build_network(instance)
    return checks.base(targets) if checks.check(targets) else None


def _bisect_last(good: int, bad: int, holds: Callable[[int], bool]) -> int:
    """Largest p in [good, bad) with holds(p), for a predicate that holds at
    good, fails at bad (never evaluated there) and is monotone in between.
    Makes ceil(log2(bad - good)) calls."""
    while bad - good > 1:
        mid = (good + bad) // 2
        if holds(mid):
            good = mid
        else:
            bad = mid
    return good


def _descend(
    net: _TypeLattice,
    point: _Point,
    targets_at: Callable[[_Point], dict[GroupKey, int]],
    below: Callable[[_Cut], _Point],
) -> tuple[_Point, dict[GroupKey, int]]:
    """The largest valid point at or under `point` and its targets, for
    targets that grow with the point and are valid at point 0. It reads
    only verdicts and cuts (net.check and net.cut). After a failed check it
    moves to below(cut), the largest point the check's cut allows: every
    valid point obeys the cut and the point just checked does not, so the
    first check that holds is at the answer, and point 0 needs no check. A
    cut bound outside [0, point) is an InternalInvariantError."""
    while point:
        targets = targets_at(point)
        if net.check(targets):
            return point, targets
        lower = below(net.cut)
        if not 0 <= lower < point:
            raise InternalInvariantError(
                f"cut bound {lower} is outside [0, {point}): not below the "
                "checked point, or under the valid point 0"
            )
        point = lower
    return point, targets_at(point)


def _last_ratio(sizes: list[int], bound: int) -> Fraction:
    """Largest beta in {0} | {j / s : s in sizes, 0 < j <= s} with
    sum(ceil(beta * s) for s in sizes) <= bound, for a bound >= 0.

    The sum grows with beta, so bisecting the grid k / m of the largest
    size m brackets the answer in [k / m, (k + 1) / m). A size of at most m
    has at most one grid point in that window, so a second bisection over
    those points finishes. Only sums are evaluated, no validity check, and
    only on integers: the window holds each point as a reduced (j, s) pair,
    and one Fraction is built for the answer.
    """
    top = max(sizes, default=0)
    if not top:
        return Fraction(0)
    total = sum(sizes)

    def fits(num: int, den: int) -> bool:
        return sum(-(-num * size // den) for size in sizes) <= bound

    # the sum lies in [beta * total, beta * total + len(sizes)), so it fits
    # at every grid point up to (bound + 1 - len(sizes)) / total and at
    # none past bound / total: only the points between are bisected
    low = min(max(0, (bound + 1 - len(sizes)) * top // total), top)
    high = min(bound * top // total, top)
    k = _bisect_last(low, high + 1, lambda mid: fits(mid, top))
    window = set()
    for size in sizes:
        j = -(-k * size // top)
        if j * top < (k + 1) * size:
            d = gcd(j, size)
            window.add((j // d, size // d))
    # reduced pairs name distinct points; cross-multiplying orders them, so
    # the list starts at k / top, from the largest size
    ordered = sorted(window, key=cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1]))
    last = _bisect_last(0, len(ordered), lambda i: fits(*ordered[i]))
    return Fraction(*ordered[last])


def crucial_vector(
    instance: Instance | Pool,
    *,
    network: Optional[_TypeLattice] = None,
    cert: object = None,
) -> tuple[Ratio, dict[GroupKey, int]]:
    """Maximum balanced ratio alpha and its per-group targets.

    The targets are the pointwise ceilings ceil(alpha * |S_u|). Ceilings make
    validity at a ratio beta equivalent to beta <= alpha (validity is
    downward closed and the targets grow with beta), and alpha is the largest
    feasible point of the candidate set {0} | {k / |S_u|}. The search
    descends on that set from above without building it (see _descend):
    from the largest candidate whose targets sum to at most F*, each failed
    check moves to the largest candidate whose targets over the cut's groups
    sum to at most its bound, found by arithmetic alone. On every instance
    measured, from the golden corpus to G = 256 groups, that took one or two
    checks. The resulting vector is the tightest one every balanced
    selection must meet.

    The checks run on `network` when it is given (what build_network
    returns), and otherwise on the instance's own. `cert` is never read;
    the parameter stays because an existing caller (the benchmark's traced
    run) passes it.
    """
    net = network if network is not None else build_network(instance)
    sizes = dict(zip(instance.group_keys(), map(len, instance.member_positions())))

    def targets_at(beta: Fraction) -> dict[GroupKey, int]:
        num, den = beta.numerator, beta.denominator
        return {key: -(-num * size // den) for key, size in sizes.items()}

    def below(cut: _Cut) -> Fraction:
        return _last_ratio([sizes[key] for key in cut.groups], cut.bound)

    start = _last_ratio(list(sizes.values()), net.value)
    return _descend(net, start, targets_at, below)


class _Walk:
    """The greedy walk of choice_flow, round by round, from its targets.

    A group's live candidates are its members past its count, while the
    group is live. A round admits the longest valid prefix of all live
    candidates in priority order, found by _descend: `point` is the
    longest prefix that fits in the room left under F*, targets_at(p) the
    counts with the round's first p candidates admitted, and below(cut) the
    longest prefix whose counts over the cut's groups fit its bound. Every
    round starts from valid counts, so no true cut breaks them. Only the
    order of the positions matters, so a pool's may be those of its
    instance's whole priority.
    """

    def __init__(
        self, instance: Instance | Pool, targets: dict[GroupKey, int], bound: int
    ) -> None:
        self.targets = targets
        self.counts = dict(targets)
        self.room = bound - sum(targets.values())
        # priority positions of each live group's candidates (its members
        # past the target); a round admits a prefix of the live candidates,
        # so each list's admitted ones come first and precede every live
        # one still out
        self.at = {
            key: members[targets[key] :]
            for key, members in zip(
                instance.group_keys(), instance.member_positions() if self.room else ()
            )
        }
        self.point = self._round()

    def _round(self) -> int:
        """Set up a round at the current counts; returns its point."""
        counts, targets = self.counts, self.targets
        self.first = {key: counts[key] - targets[key] for key in self.at}
        self.taken = sum(self.first.values())
        self.left = sum(map(len, self.at.values())) - self.taken
        # every live candidate lies below the last one's position + 1
        self.end = max((pos[-1] + 1 for pos in self.at.values() if pos), default=0)
        return min(self.room, self.left)

    def targets_at(self, p: int) -> dict[GroupKey, int]:
        """The counts with the round's first p live candidates admitted."""
        # the smallest position x with p live candidates before it; each
        # list's admitted candidates precede every live one still out, so
        # once the lists count `taken` in all, each counts its own
        lists, want = self.at.values(), p + self.taken
        lo, hi = 0, self.end
        while lo < hi:
            mid = (lo + hi) // 2
            if sum(bisect_left(pos, mid) for pos in lists) >= want:
                hi = mid
            else:
                lo = mid + 1
        grown = dict(self.counts)
        first = self.first
        for key, pos in self.at.items():
            grown[key] += bisect_left(pos, lo) - first[key]
        return grown

    def below(self, cut: _Cut) -> int:
        """The longest prefix whose counts over the cut's groups fit, or -1
        when the round's starting counts break the cut."""

        def fits(p: int) -> bool:
            grown = self.targets_at(p)
            return sum(grown[key] for key in cut.groups) <= cut.bound

        return _bisect_last(-1, self.left + 1, fits)

    def run(self, net: _TypeLattice) -> None:
        """Walk the rounds left. A round that admits its whole point ends
        the walk. Otherwise the round's last cut (net.cut) has its groups
        at its bound with the next candidate theirs: counts only grow, so
        none of them is admitted again, and they are dropped."""
        while True:
            good, self.counts = _descend(net, self.point, self.targets_at, self.below)
            self.room -= good
            if good == self.point:
                return
            for key in net.cut.groups:
                self.at.pop(key, None)
            self.point = self._round()


class PoolChoice(NamedTuple):
    """The balanced choice of a pool as counts: each group's selected
    students are its first counts[key] members. signature is s*, and
    targets the crucial (or given) vector the walk started from."""

    counts: dict[GroupKey, int]
    alpha: Ratio
    targets: dict[GroupKey, int]
    signature: Signature


def choose_pool(
    pool: Instance | Pool,
    delta_star: Optional[TargetVector] = None,
    *,
    alpha: Optional[Ratio] = None,
) -> PoolChoice:
    """Maximum balanced selection via batched validity checks, as per-group
    counts.

    The pool is read only as its group keys, its groups' ascending
    priority positions (any positions of one priority order) and its
    instance's lattice layout and capacity; no priority is read. delta_star
    must be the pool's crucial vector (computed by crucial_vector when
    omitted; validity of the supplied vector is checked, full optimality is
    the caller's contract). Each group is seeded with its top delta students;
    the rest are then offered in priority order, and one is admitted
    whenever a maximal-diversity matching exists with its group's bound
    raised by one. The checks run on the pool's type lattice (see
    build_network), and the signature is s*.

    That walk makes no check per student (see _Walk). Validity is downward
    closed in the bounds, so a round admits the longest valid prefix of the
    live candidates in priority order, found by the descent that finds
    alpha. The groups of the round's last cut are then at their bound with
    the next candidate theirs; counts only grow, so they are dropped. The
    walk makes no checks once the targets fill F*, and 3 in all on 3,000
    hard-regime students.
    """
    net = build_network(pool)
    if delta_star is None:
        alpha, targets = crucial_vector(pool, network=net)
    else:
        # unknown keys stay in, so the validity check rejects them
        targets = dict.fromkeys(pool.group_keys(), 0)
        targets.update((key, int(v)) for key, v in delta_star.items())
        if not net.check(targets):
            raise ValueError("delta_star is not a valid target vector")
        if alpha is None:
            alpha = min_count_ratio(pool, targets)
    walk = _Walk(pool, targets, net.value)
    walk.run(net)
    counts = walk.counts
    size = sum(map(len, pool.member_positions()))
    if sum(counts.values()) != min(size, pool.capacity):
        raise InternalInvariantError("selection is wasteful")
    return PoolChoice(counts, alpha, walk.targets, net.per_rank)


def _selected(
    priority: tuple[str, ...], pool: Instance | Pool, counts: dict[GroupKey, int]
) -> frozenset[str]:
    """The ids of a pool's choice: each group's first counts[key] positions,
    read off the priority they are positions of."""
    return frozenset(
        chain.from_iterable(
            map(priority.__getitem__, members[: counts[key]])
            for key, members in zip(pool.group_keys(), pool.member_positions())
        )
    )


def choice_flow(
    instance: Instance,
    delta_star: Optional[TargetVector] = None,
    *,
    alpha: Optional[Ratio] = None,
) -> ChoiceResult:
    """The balanced choice of an instance (see choose_pool), with its
    selected students read off each group's first counts[key] positions in
    the priority."""
    made = choose_pool(instance, delta_star, alpha=alpha)
    return ChoiceResult(
        selected=_selected(instance.priority, instance, made.counts),
        per_group_counts=made.counts,
        signature=made.signature,
        alpha=made.alpha,
        targets=made.targets,
    )


def solve(instance: Instance) -> ChoiceResult:
    """The balanced choice of an instance: choice_flow with its own crucial
    vector."""
    return choice_flow(instance)

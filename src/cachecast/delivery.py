"""Delivery planning: what the server actually multicasts.

With a symmetric placement x_0..x_K in place and a demand vector d, the
baseline scheme sends one XOR-coded message per cache subset S: each
member k contributes the piece of its requested file stored exactly at
S \\ {k}, shorter pieces are zero-padded, and the message length is the
longest constituent.  Every member can XOR out the other terms from its
own cache.  The resulting load, in units of one file, is

    rate = L * x_0 + sum_{s=1}^{K-1} C(K, s+1) * x_s

where L is the number of distinct requested files.  When L < K the
same file appears in several constituents and some coded messages are
poor value; moving ("transferring") selected pieces into the uncoded
part and shipping them once per distinct file can cost less.

Two planners implement that idea:

* ``simplified_plan`` transfers whole subset-size classes: every class
  up to a cutoff size (K - L) // (L + 1) moves into the uncoded part.
  This closed form is optimal among per-size-class transfer choices.
* ``adaptive_plan`` takes its rate from a linear program over the kept
  fraction y of every (file, subset) pair: minimize the total message
  load where each coded message costs the max of its constituents and
  each distinct file's uncoded part ships once.  The LP is solved
  exactly in a symmetry-reduced form (caches requesting the same file
  are interchangeable, as are files requested equally often), which
  keeps the problem tiny even at the K = 12 enumeration cap.  Its plan
  comes from a keep rule, message by message (``TransferPlan``), which
  is an optimum of that LP.

The adaptive LP's columns and their order, its objective, class rows and
epigraph pairs depend only on the requester group sizes, not on the
placement.  They are built once per group-size tuple into a cached
layout of numeric arrays; a call reads only the column caps from x,
drops what the caps fix at 0 and densifies the rest.  The layout spans
every composition, also those of subset sizes the placement leaves
empty.  Their columns are capped at 0, and an epigraph row that reads
one as its y has its z capped at 0 too, since both take the cap of one
subset size.  ``adaptive_plan`` drops those columns and rows before
anything is dense; it is the one place the LP is reduced, and the
solver audits the residuals of the LP it gets.  The dropped part is
exactly zero.  The optimum is still valued as c @ x over all columns,
the dropped ones at 0: a shorter vector regroups that floating-point
sum, and valued over the support's columns alone, 67 of the 154 values
of a K = 12 sweep move in the last bit.

``build_messages`` / ``decode`` realize a plan at symbol level: kept
pieces are the first round(y*F) symbols of each subset piece (largest
remainder across subsets, so per-file totals stay exactly F) and the
displaced symbols join the uncoded part.  A schedule stores each
requested file's kept symbols once, with a kept count per mask; a coded
message is its mask and payload, and its parts follow from the mask
bits, the demand and that table.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from math import comb

import numpy as np

from .core import DemandVector, RedundancyPattern
from .lp import LinearProgram, LpNumericalError, solve
from .placement import PartitionMap, PlacementProfile, SUBSET_ENUM_CAP, apportion

__all__ = ["DecodeError", "Message", "MessageSchedule", "TransferPlan", "adaptive_plan",
           "build_messages", "canonical_demand", "decode", "rate_nonadaptive",
           "rate_of_schedule", "simplified_plan", "transfer_cutoff"]


class DecodeError(RuntimeError):
    """A cache could not reconstruct its file from schedule + storage."""


@dataclass
class TransferPlan:
    """The adaptive kept fraction of every (distinct file, subset mask)
    pair, resolved one file at a time.

    The piece of file n at subset S, n requested by group i, serves the
    messages S + {k} for n's requesters k outside S, all of composition
    a = comp(S) + e_i over the requester groups.  Sent coded, such a
    message costs 1; split, t(a) = sum_j a_j / (k_j - a_j + 1), as each of
    its a_j pieces of group j's file ships uncoded once and serves one
    message for each of the k_j - a_j + 1 requesters of that file outside
    the piece's subset.  So the piece keeps x_|S| iff t(a) >= 1 (ties
    keep) or no message uses it, and moves to the uncoded part otherwise.
    The mask-0 entry is x_0 plus, over sizes s ascending, the number of
    moved masks of size s times x_s: a plan that moves nothing equals the
    profile bit for bit.
    """

    demand: DemandVector
    profile: PlacementProfile

    @functools.cached_property
    def _tables(self):
        """Per requested file its group, the requester group sizes, and
        the composition and size of every mask."""
        files, ks = _demand_groups(self.demand)
        group = {n: i for i, n in enumerate(files)}
        steps = np.eye(len(ks), dtype=np.int64)[[group[n] for n in self.demand.requests]]
        comp = _mask_sums(steps)
        return group, np.array(ks), comp, comp.sum(axis=1)

    def kept(self, file: int) -> np.ndarray:
        """The file's kept fractions over masks 0..2^K - 1 (zeros if unrequested)."""
        group, ks, comp, size = self._tables
        i = group.get(file)
        if i is None:
            return np.zeros(1 << self.demand.K)
        used = np.flatnonzero(comp[1:, i] < ks[i]) + 1  # masks whose piece a message uses
        a = comp[used]
        a[:, i] += 1
        moved = used[~_coded(ks, a)]
        x = self.profile.fractions
        out = x[size]
        out[moved] = 0.0
        counts = np.bincount(size[moved], minlength=x.shape[0])
        out[0] = sum((counts[1:] * x[1:]).tolist(), x[0])  # summed by size, ascending
        return out


def _coded(ks: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Whether each message composition a (rows, a <= ks elementwise) is
    sent coded: t(a) = sum_j a_j / (k_j - a_j + 1) >= 1, ties included.
    Evaluated in integers as sum_j a_j prod_{l != j} d_l >= prod_l d_l with
    d = ks - a + 1 >= 1; every product is at most prod_l (k_l + 1) <= 2^K."""
    d = ks - a + 1
    full = d.prod(axis=-1, keepdims=True)
    return (a * (full // d)).sum(axis=-1) >= full[..., 0]


def _mask_sums(steps) -> np.ndarray:
    """For every mask 0..2^len(steps) - 1, the sum of steps[b] over its set bits b."""
    steps = np.asarray(steps, dtype=np.int64)
    out = np.zeros((1 << len(steps),) + steps.shape[1:], dtype=np.int64)
    for b, step in enumerate(steps):
        out[1 << b:2 << b] = out[:1 << b] + step
    return out


def _size_rate(x, L: int, K: int) -> float:
    """Rate of sending each size class whole: L uncoded parts of size x_0,
    and C(K, s+1) coded messages of size x_s per size s >= 1."""
    return float(L * x[0] + sum(comb(K, s + 1) * x[s] for s in range(1, K)))


def rate_nonadaptive(p: PlacementProfile, L: int, K: int) -> float:
    """Baseline rate: every subset message sent, uncoded once per file."""
    _check_L_K(p, L, K)
    return _size_rate(p.fractions, L, K)


def transfer_cutoff(K: int, L: int) -> int:
    """Largest subset-size class worth moving to the uncoded part."""
    if not 1 <= L <= K:
        raise ValueError("need 1 <= L <= K")
    return (K - L) // (L + 1)


def simplified_plan(p: PlacementProfile, L: int, K: int) -> tuple[np.ndarray, float]:
    """Transfer all size classes up to the cutoff into the uncoded part.

    Returns the per-size kept fractions y_0..y_K and their rate.

    A size-s class costs C(K, s+1) x_s coded but L C(K, s) x_s uncoded,
    so transferring wins exactly when s is at most (K - L) // (L + 1).
    The result is optimal among all per-class keep/transfer choices.
    """
    _check_L_K(p, L, K)
    shat = transfer_cutoff(K, L)
    x = p.fractions
    y = x.copy()
    moved = sum(comb(K, i) * x[i] for i in range(1, shat + 1))
    y[0] = x[0] + moved
    for s in range(1, shat + 1):
        y[s] = 0.0
    return y, _size_rate(y, L, K)


def canonical_demand(pattern: RedundancyPattern) -> DemandVector:
    """The representative demand: file i requested by the next counts[i] caches."""
    reqs: list[int] = []
    for i, c in enumerate(pattern.counts, start=1):
        reqs.extend([i] * c)
    return DemandVector(tuple(reqs))


def _check_L_K(p: PlacementProfile, L: int, K: int):
    if p.K != K:
        raise ValueError("profile length disagrees with K")
    if not 1 <= L <= K:
        raise ValueError("need 1 <= L <= K")


def _demand_groups(d: DemandVector):
    """Distinct files with their requester counts, most-requested first."""
    counts = Counter(d.requests)
    files = sorted(counts, key=lambda n: (-counts[n], n))
    return files, [counts[n] for n in files]


@dataclass(frozen=True)
class _Layout:
    """The adaptive LP of one demand shape, everything but the caps.

    Columns are the kept-fraction orbits (y) in the order the class rows
    first meet them, then one epigraph variable (z) per message orbit, in
    sorted orbit order.  Each y column has one nonzero in E, in its own
    group-size class row; epigraph row r reads y[a_y[r]] - z[a_z[r]] <= 0.
    Column j is capped at x[size[j]], with x[0] read as 1 (a z column
    takes its members' cap).  All arrays are read-only.
    """

    c: np.ndarray
    size: np.ndarray
    e_rows: int
    e_row: np.ndarray  # the class row of each y column's entry in E
    e_w: np.ndarray
    a_y: np.ndarray
    a_z: np.ndarray


def _row_numbers(rows: np.ndarray):
    """Number the distinct rows of a 2-D integer array in lexicographic
    order: (the index of each distinct row's first occurrence, the number
    of every row).  One stable lexsort puts equal rows next to each other
    in order of occurrence; a row that differs from its predecessor there
    starts a new number."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.ones(rows.shape[0], dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    number = np.empty(rows.shape[0], dtype=np.intp)
    number[order] = np.cumsum(new) - 1
    return order[new], number


@functools.lru_cache(maxsize=None)
def _layout(ks: tuple[int, ...]) -> _Layout:
    """Build the layout for requester group sizes ks (most-requested first).

    A composition a counts a subset's members in each group; compositions
    run in lexicographic order.  Group i's kept fraction at a lies in the
    orbit keyed by (k_i, a_i) and the sorted pairs of a; a message orbit
    is keyed by the sorted pairs alone.  A pair (k, a) is coded as
    k * (K + 1) + a, so sorting codes sorts pairs.  Orbits are numbered
    in the lexicographic order of their sorted codes, each represented by
    its first composition (``_row_numbers``).  The cache holds at
    most one layout per partition of each K up to the enumeration cap
    (271 in all).
    """
    L, K = len(ks), sum(ks)
    k_arr = np.array(ks)
    comps = np.indices([k + 1 for k in ks]).reshape(L, -1).T
    ncomp = comps.shape[0]
    size = comps.sum(axis=1)
    binom = np.array([[comb(k, a) for a in range(K + 1)] for k in range(K + 1)])
    weight = binom[k_arr, comps].prod(axis=1).astype(float)  # subsets per composition
    codes = k_arr * (K + 1) + comps
    o_first, orbit = _row_numbers(np.sort(codes, axis=1))
    n_orb = o_first.shape[0]
    vkey = codes * n_orb + orbit[:, None]  # y orbit of (composition, group)

    # one class row per distinct group size, ascending, read at its first
    # group; y columns are numbered in the order these rows first meet them
    classes = sorted(set(ks))
    reps = np.array([ks.index(k) for k in classes])
    ukeys, first, inv = np.unique(vkey[:, reps].T.reshape(-1),
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    n_y = order.shape[0]
    rank = np.empty_like(order)
    rank[order] = np.arange(n_y)
    column = rank[inv]  # y column at each (class row, composition)
    row, comp = np.divmod(first[order], ncomp)

    # message orbits of size >= 2, in sorted order; the member for group i
    # is group i's fraction at the composition with one fewer of group i
    zs = np.flatnonzero(size[o_first] >= 2)
    rep = o_first[zs]
    strides = np.cumprod([1] + [k + 1 for k in ks[:0:-1]])[::-1]
    has = comps[rep] >= 1
    below = (rep[:, None] - strides)[has]
    members = np.full(has.shape, n_y)
    members[has] = rank[np.searchsorted(ukeys, (codes[rep][has] - 1) * n_orb + orbit[below])]
    members.sort(axis=1)
    keep = members < n_y
    keep[:, 1:] &= members[:, 1:] != members[:, :-1]
    n = n_y + zs.shape[0]

    c = np.zeros(n)
    c[column[::ncomp]] = [ks.count(k) for k in classes]  # each row's empty subset
    c[n_y:] = np.bincount(orbit, weights=weight, minlength=n_orb)[zs]
    layout = _Layout(
        c=c,
        size=np.concatenate([size[comp], size[rep] - 1]).astype(np.int8),
        e_rows=len(classes),
        e_row=row,
        e_w=np.bincount(column, weights=np.tile(weight, len(classes)), minlength=n_y),
        a_y=members[keep],
        a_z=n_y + np.repeat(np.arange(zs.shape[0]), keep.sum(axis=1)),
    )
    for arr in vars(layout).values():
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return layout


def adaptive_plan(p: PlacementProfile, d: DemandVector):
    """The adaptive transfer plan and its rate, by linear programming.

    Returns (TransferPlan, rate).  The plan is the t(a) >= 1 keep rule
    (see ``TransferPlan``), an optimum of the LP the rate comes from.  The
    LP minimizes

        sum_{n in D} y_n(empty) + sum_{|S| >= 2} max_{k in S} y_{d_k}(S \\ {k})

    subject to each file's fractions summing to one and
    0 <= y_n(S) <= x_{|S|}.  Caches that request the same file are
    interchangeable, and so are files requested equally often, so the LP
    is solved over orbits of (file, subset) pairs under those symmetries;
    the optimum is unchanged and the size collapses from L * 2^K
    variables to a few hundred at most.
    """
    K = d.K
    if p.K != K:
        raise ValueError("profile length disagrees with demand length")
    if K > SUBSET_ENUM_CAP:
        raise ValueError(f"K > {SUBSET_ENUM_CAP} exceeds the subset enumeration cap")
    ks = tuple(_demand_groups(d)[1])
    lay = _layout(ks)
    cap = p.fractions.copy()
    cap[0] = 1.0
    hi = cap[lay.size]
    # columns capped at 0 are fixed there; an epigraph row goes with its
    # y column, whose cap its z column shares
    live = hi > 0
    at = np.cumsum(live) - 1  # each live column's index among the live ones
    n, n_y = lay.c.shape[0], lay.e_w.shape[0]
    ys = np.flatnonzero(live[:n_y])
    E = np.zeros((lay.e_rows, int(at[-1]) + 1))
    E[lay.e_row[ys], at[ys]] = lay.e_w[ys]
    rows = np.flatnonzero(live[lay.a_y])
    m = rows.shape[0]
    A = np.zeros((m, E.shape[1]))
    A[np.arange(m), at[lay.a_y[rows]]] = 1.0
    A[np.arange(m), at[lay.a_z[rows]]] = -1.0

    sol = solve(LinearProgram(c=lay.c[live], E=E, f=np.ones(lay.e_rows), A=A, b=np.zeros(m),
                              lo=np.zeros(E.shape[1]), hi=hi[live]))
    if sol.status != "optimal":
        raise LpNumericalError(f"adaptive plan LP ended with status {sol.status}")

    x_all = np.zeros(n)
    x_all[live] = sol.assignment
    return TransferPlan(demand=d, profile=p), float(lay.c @ x_all)


# --- bit-level realization -------------------------------------------------


@dataclass
class Message:
    """One coded multicast: XOR of the members' kept pieces, zero-padded."""

    payload: np.ndarray


@dataclass
class MessageSchedule:
    """Everything the server sends for one demand vector.

    ``kept[file]`` holds the file's kept symbol indices, the partition's
    pieces cut at their kept counts and laid out in mask order, and the
    kept count of every mask (0 at mask 0, which ships uncoded).  Member k
    of the message at mask S carries the kept symbols of its requested
    file at S without k's bit, so a message stores only its payload.
    """

    demand: DemandVector
    F: int
    coded: dict[int, Message]
    uncoded: dict[int, tuple[np.ndarray, np.ndarray]]  # file -> (payload, indices)
    kept: dict[int, tuple[np.ndarray, np.ndarray]]  # file -> (indices, count per mask)


def _parts(d: DemandVector, kept, masks: np.ndarray):
    """The parts of the messages at masks, in (message, member) order: per
    part, its message's position in masks, its member's bit, and where its
    symbols start in its file's kept indices and how many there are."""
    row = {n: i for i, n in enumerate(kept)}
    counts = np.stack([c for _, c in kept.values()])
    starts = np.cumsum(counts, axis=1) - counts
    of, bit = np.nonzero(masks[:, None] >> np.arange(d.K) & 1)
    file = np.array([row[n] for n in d.requests])[bit]
    piece = masks[of] ^ (1 << bit)
    return of, bit, starts[file, piece], counts[file, piece]


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges starts[i] .. starts[i] + lengths[i] - 1, concatenated."""
    ends = lengths.cumsum()
    return (starts - ends + lengths).repeat(lengths) + np.arange(ends[-1] if ends.size else 0)


def _plan_accessor(plan, d: DemandVector, K: int):
    """kept(file) of a TransferPlan, or of a per-size plan (an array of one
    kept fraction per subset size 0..K, such as simplified_plan's or a
    profile's fractions): the file's kept fractions over masks 0..2^K - 1."""
    if isinstance(plan, TransferPlan):
        if plan.demand.requests != d.requests:
            raise ValueError("transfer plan was built for a different demand vector")
        return plan.kept
    y = np.asarray(plan, dtype=float)
    if y.shape != (K + 1,):
        raise ValueError("per-size plan needs one fraction per subset size 0..K")
    by_mask = y[_mask_sums([1] * K)]
    return lambda file: by_mask


def build_messages(pm: PartitionMap, plan, d: DemandVector) -> MessageSchedule:
    """Realize a plan: quantize kept fractions and XOR the messages.

    Kept counts are the plan fractions times F, rounded by largest
    remainder across each file's subsets (capped by the piece sizes) so
    the per-file totals stay exactly F; displaced symbols append to the
    uncoded part, which ships once per distinct file.  The payloads are
    views into one buffer, in mask order; a cache's parts fill distinct
    cells of it, so the buffer is one XOR per cache of its parts' values,
    each zero-padded to its message's length.
    """
    K, (N, F) = pm.K, pm.data.shape
    if d.K != K:
        raise ValueError("demand length disagrees with the partition map")
    if any(r > N for r in d.requests):
        raise ValueError("demand requests a file beyond the library")
    kept_of = _plan_accessor(plan, d, K)

    kept: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    uncoded: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for n in _demand_groups(d)[0]:
        # the file's symbols by mask, ascending within a mask: the
        # partition's pieces back to back, each cut after its kept count
        row = pm.holder[n - 1]
        order = np.argsort(row, kind="stable")
        sizes = np.bincount(row, minlength=1 << K)
        counts = apportion(kept_of(n) * F, F, np.concatenate([[F], sizes[1:]]))
        counts[0] = 0  # the mask-0 piece ships whole in the uncoded part
        keep = np.arange(F) < (np.cumsum(sizes) - sizes + counts).repeat(sizes)
        kept[n] = (order[keep], counts)
        idx = order[~keep]
        uncoded[n] = (pm.data[n - 1][idx], idx)

    masks = np.flatnonzero(_mask_sums([1] * K) >= 2)
    of, bit, start, n = _parts(d, kept, masks)
    plen = np.zeros(masks.shape[0], dtype=np.int64)
    np.maximum.at(plen, of, n)
    at = np.cumsum(plen) - plen
    buf = np.zeros(int(plen.sum()), dtype=np.uint8)
    for k, f in enumerate(d.requests):
        sel = bit == k
        buf[_ranges(at[of[sel]], n[sel])] ^= pm.data[f - 1][kept[f][0][_ranges(start[sel], n[sel])]]
    coded = {mask: Message(payload=buf[a:a + m])
             for mask, a, m in zip(masks.tolist(), at.tolist(), plen.tolist()) if m}
    return MessageSchedule(demand=d, F=F, coded=coded, uncoded=uncoded, kept=kept)


def rate_of_schedule(schedule: MessageSchedule) -> float:
    """Total transmitted symbols over F."""
    total = sum(m.payload.shape[0] for m in schedule.coded.values())
    total += sum(p.shape[0] for p, _ in schedule.uncoded.values())
    return total / schedule.F


def decode(cache: int, cached, schedule: MessageSchedule) -> np.ndarray:
    """Reconstruct cache's requested file from storage plus the schedule.

    ``cached`` is the PartitionMap.cache_view of this cache over at least
    the files the schedule's demand names.  The cache starts from what it
    stores of its file, fills in the file's uncoded part, then takes the
    coded messages that include it in schedule order: every other part of
    a message must be stored here, and XORing them out of the payload
    recovers the cache's own part.  Raises DecodeError on the first
    failure in that order, parts in member order within a message:

    * "cache k lacks side information for message m": another part names
      a symbol the cache does not store;
    * "conflicting reconstruction at symbol i": the uncoded part, or a
      message's recovered part (checked after all of that message's
      parts), disagrees with what is already known of symbol i, stored or
      filled earlier; within one fill a repeated symbol takes its last
      value;
    * "coverage gap at symbol i": all else passed, and i is the lowest
      symbol still unknown.

    The parts come from the message masks, the demand and the kept
    table; they are checked and XORed a few array operations per other
    cache, and all fills are written and compared at once; the symbol of
    a conflict is searched fill by fill only once some filled symbol
    disagrees.  A part longer than its message's payload raises
    ValueError before any of these checks.
    """
    d = schedule.demand
    if not 1 <= cache <= d.K:
        raise ValueError("cache index out of range")
    want = d.requests[cache - 1]
    held, known = cached[want]

    # the parts of this cache's messages in (message, member) order: a
    # failed check is placed at its part's index there, a fill after its
    # message
    msgs = [(mask, msg) for mask, msg in schedule.coded.items() if mask >> (cache - 1) & 1]
    masks = np.array([mask for mask, _ in msgs], dtype=np.int64)
    plen = np.array([len(msg.payload) for _, msg in msgs], dtype=np.int64)
    of, member, start, n = _parts(d, schedule.kept, masks)
    at = np.cumsum(plen) - plen  # payload offsets in buf
    if np.any(n > plen[of]):
        raise ValueError("a message part is longer than its payload")
    count = np.bincount(of, minlength=len(msgs))  # parts per message
    shift = at[of] - start  # from a part's kept indices to its payload cells

    errors = []  # (place in the order, text)
    own = member == cache - 1
    buf = np.concatenate([msg.payload for _, msg in msgs] + [np.zeros(0, np.uint8)])
    # sorted by member, the other caches' parts; each cache adds one part
    # to each of its messages, so its parts XOR into distinct cells of buf
    other = np.flatnonzero(~own & (n > 0))
    other = other[np.argsort(member[other], kind="stable")]
    ln = n[other]
    pos = _ranges(start[other], ln)  # in the kept indices of the part's file
    dest = pos + shift[other].repeat(ln)
    ends = ln.cumsum()
    cuts = np.append(0, ends)[np.searchsorted(member[other], np.arange(d.K + 1))].tolist()
    ok = np.ones(pos.shape[0], dtype=bool)
    for k, (a, b) in enumerate(zip(cuts, cuts[1:])):
        if a < b:
            fheld, fknown = cached[d.requests[k]]
            src = schedule.kept[d.requests[k]][0][pos[a:b]]
            ok[a:b] = fheld[src]
            buf[dest[a:b]] ^= fknown[src]
    if not ok.all():
        i = other[np.searchsorted(ends, np.flatnonzero(~ok), side="right")].min()
        errors.append((i, f"cache {cache} lacks side information for message {msgs[of[i]][0]}"))

    # the fills: the uncoded part, then each message's recovered own part
    mine = np.flatnonzero(own & (n > 0))
    pos = _ranges(start[mine], n[mine])
    payload, uidx = schedule.uncoded.get(want, (buf[:0], np.zeros(0, dtype=np.int64)))
    idx = np.concatenate([uidx, schedule.kept[want][0][pos]])
    vals = np.concatenate([payload, buf[pos + shift[mine].repeat(n[mine])]])
    places = [-1] + (np.cumsum(count) - 0.5)[of[mine]].tolist()  # after a message's parts
    lengths = [len(uidx)] + n[mine].tolist()
    # a symbol left unknown ends in a coverage gap, so recon may start from
    # the stored values as they are; a fill that disagrees with a stored
    # symbol or with a later fill of the same symbol leaves a mismatch
    recon = known.copy()
    have = held.copy()
    recon[idx] = vals
    have[idx] = True
    if np.any(recon[idx] != vals) or np.any((recon != known) & held):
        bounds = np.cumsum(lengths)[:-1]
        fills = zip(places, np.split(idx, bounds), np.split(vals, bounds))
        clash = _first_conflict(held, known, fills)
        if clash is not None:
            errors.append((clash[0], f"conflicting reconstruction at symbol {clash[1]}"))
    if errors:
        raise DecodeError(min(errors)[1])
    if not have.all():
        raise DecodeError(f"coverage gap at symbol {int(np.argmin(have))}")
    return recon


def _first_conflict(held, known, fills):
    """Replay the fills one at a time on top of the stored symbols: the
    place of the first fill that disagrees with a known symbol, and that
    symbol; None if every mismatch came from a symbol repeated within one
    fill."""
    recon = np.where(held, known, np.uint8(0))
    have = held.copy()
    for place, idx, values in fills:
        seen = have[idx]
        clash = recon[idx[seen]] != values[seen]
        if clash.any():
            return place, int(idx[seen][np.argmax(clash)])
        recon[idx] = values
        have[idx] = True
    return None

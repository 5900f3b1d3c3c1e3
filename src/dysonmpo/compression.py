"""Order-preserving row compression of evolution MPOs.

The power construction already merges levels whose labels agree after
deleting 1 symbols (their operator histories are identical), so every
level reaching this module carries only 2 and 3 symbols; the literal
column merge survives only as a test oracle.

Row compression walks the levels grouped by their counts of
in-progress and finished symbols, builds for each group the coefficients of
the levels over a truncated basis of right-half operators (completions of
the in-progress terms interleaved with newly inserted terms, weighted by
the matching time-ordered integrals), projects out what the kept levels
already span, selects genuinely new levels by rank-revealing QR, and folds
the rest into the kept set by least squares.  Everything dropped this way
carries weight of order higher than the expansion order of the MPO.  The
rank tolerance is relative to the block's largest column norm and lies in
``[0, 1)``.

Three things fix what a compression does: the plan, the step's decision
and the step's numbers.  Each piece of work is redone only when what
fixes it changes.

Per plan.  The levels and the order fix the groups and their blocks per
2-sequence, each block's completion rows, and for every (level, row) pair
the brackets its coefficient sums.  A `CompressionPlan` holds them, and a
`PowerPlan` keeps one for all the Dyson and Magnus steps of its order.
The plan enumerates the keys of all pairs in array passes, one weave
pattern per pair shape (`levels.block_keys`), and stacks its blocks: one
stack per shape, index arrays padded with -1 to the deepest block.

Per step: the decision and the numbers.  The steps of a stack (the
classes of one evolution, `bench.build_step_mpo`) share their plan, and
one pass decides and solves them all: every array below carries a
leading step axis, and the first `row_compress` call of the stack runs
the pass and keeps the other steps' solutions for their own calls.  A
stack of one is a single step.  The pass gathers each step's brackets
into a vector and fills a stack's coefficient matrices at once with
`_key_sums`, the one evaluator of gamma sums (each entry sums its keys in
weave order, so the rank decisions match a literal evaluation bit for
bit).  A block with one own level and no earlier levels of its
2-sequence keeps that level exactly when its gamma column is nonzero,
which is what the pivoted QR decides for any ``tol < 1``; these blocks
form one more stack, which a pass settles with one gather.  The other
blocks take an R-only pivoted QR; only a rank strictly between 0 and the
column count leaves a choice, and only then does the greedy pass run,
per step and block, its subset in column order kept when it has the
QR's size.  A block reads only the kept flags of the earlier blocks of
its 2-sequence, which have the same ``n2`` and a smaller ``n3``, so the
blocks of one ``n3`` are independent: a pass takes them as one wave, and
within a wave their stacks, whose column scales, projections and rank
tests run on every step of the whole stack.  Each step is decided in
full, from its own numbers; its decision is the kept flags it leaves.

Per decision.  The kept flags fix each block's basis (its earlier kept
levels, then its own kept ones) and removed levels, in column order, and
so the fold solves stacked by shape, the full list of fold terms (every
removed level over every basis level of its block) and where each term's
products land in the folded tensor, for the block pattern of the MPO
(which a plan's steps share in practice).  A `Layout` holds all of that;
the steps of a pass whose decision and pattern agree share one, and the
plan keeps the distinct layouts of its last pass for the next.  On the
benchmark workloads at ``qr_tol`` 1e-12 each plan decides once per
sweep, so every step after a plan's first is served.

Per step again, the numbers of the fold.  The least-squares solves call
the gufunc behind ``np.linalg.lstsq`` once per stack (`linalg.lstsq`),
which runs the same ``zgelsd`` per matrix; the fold solves, which no later
block reads, run after the last wave, one stack per shape over all the
steps that share a layout, and each is checked.  A step cuts the
coefficients at most ``1e-13`` times its block's largest as a mask on
the layout's term list.  The fold, in the step's own `row_compress`
call, then forms the product ``W[kept rows, :] @ T``, ``T`` holding the
identity on kept levels and the fold coefficients, as the coordinate
blocks `apply_mpo` reads: each entry adds its shown terms in block order,
with one ordered scatter-add (`extensive.scatter_add`), and entries that
sum to exactly zero, or that only cut terms reach, are dropped.  So a
stacked pass and a shared layout give bitwise the MPO and report of one
built for the step alone.
"""

import math
import time
from typing import NamedTuple

import numpy as np

from .extensive import ExtensiveMPO, scatter_add
from .levels import IDENTITY_LEVEL, block_keys, is_one
from .linalg import lstsq, pivoted_qr


class CompressionBasisError(RuntimeError):
    """A non-kept level could not be expanded over the kept basis."""


class CompressionReport:
    """Kept and removed levels, bond sizes and the largest fold residual.

    `removed_levels` lists ``(level, {kept level: coefficient})`` in block
    order; a compression passes it as a function that builds the list,
    called when the attribute is first read.  `bond_dimension_after` is
    the row-compressed bond; `bond_dimension_bulk` the bond of the MPO
    `bench.build_step_mpo` applies, after its bulk stage
    (`bulk.bulk_compress`), and `bulk_residual` that stage's check
    residual (0 where the stage did not run).
    """

    def __init__(self, kept_levels=None, removed_levels=None,
                 bond_dimension_before=0, bond_dimension_after=0,
                 qr_tolerance=0.0, fold_residual=0.0):
        self.kept_levels = [] if kept_levels is None else kept_levels
        self._removed = [] if removed_levels is None else removed_levels
        self.bond_dimension_before = bond_dimension_before
        self.bond_dimension_after = bond_dimension_after
        self.bond_dimension_bulk = bond_dimension_after
        self.qr_tolerance = qr_tolerance
        # largest |G_basis x - G_rest| / |G_rest|
        self.fold_residual = fold_residual
        self.bulk_residual = 0.0

    @property
    def removed_levels(self):
        if callable(self._removed):
            self._removed = self._removed()
        return self._removed

    def to_text(self):
        lines = [
            f"bond dimension: {self.bond_dimension_before} -> "
            f"{self.bond_dimension_after}",
            f"bulk bond dimension: {self.bond_dimension_bulk}",
            f"qr tolerance: {self.qr_tolerance}",
            f"fold residual: {self.fold_residual:.3g}",
            f"bulk residual: {self.bulk_residual:.3g}",
            f"kept levels ({len(self.kept_levels)}):",
        ]
        lines.extend(f"  {lvl!r}" for lvl in self.kept_levels)
        lines.append(f"removed levels ({len(self.removed_levels)}):")
        for lvl, expansion in self.removed_levels:
            combo = " + ".join(f"({c:.6g}) * {k!r}" for k, c in expansion.items())
            lines.append(f"  {lvl!r} = {combo if combo else '0'}")
        return "\n".join(lines)


def _key_sums(values, index):
    """``sum_t values[..., index[t]]``, from zero, one layer at a time.

    `values` is a bracket vector or a stack of them, one per step, which
    lead the result.  Each entry sums its keys in key order, as a literal
    evaluation does; an index of -1 adds the vector's trailing zero,
    which changes no sum.
    """
    g = values.take(index[0], axis=-1) + 0.0
    for layer in index[1:]:
        g = g + values.take(layer, axis=-1)
    return g


class Block(NamedTuple):
    """One 2-sequence of one ``(n2, n3)`` group, as a plan holds it.

    `levels` are plan positions: the `n_prior` levels of the 2-sequence
    from earlier blocks, then the block's own.  ``index[t, i, j]`` is the
    position in the plan's bracket vector of the `t`-th key summed for
    column `j` along completion row `i`; -1 pads to the vector's trailing
    zero.
    """

    n2: int
    n3: int
    two_sequence: tuple
    levels: np.ndarray
    n_prior: int
    index: np.ndarray


class Batch(NamedTuple):
    """Blocks stacked: their `numbers` in the plan, their common `n_prior`,
    `levels` ``(blocks, columns)``, and `index` ``(depth, blocks, rows,
    columns)`` padded with -1 to the deepest and longest block."""

    numbers: list
    n_prior: int
    levels: np.ndarray
    index: np.ndarray


class CompressionPlan:
    """What a row compression of `levels` at `order` does before any number.

    `levels` holds the identity level, then the others by (length,
    label): the order of the compressed MPO's levels.  `blocks` are
    numbered in order: groups ``(n2, n3)`` by ``n2`` then ``n3``, each
    group's 2-sequences sorted.  `keys` lists the bracket keys the blocks
    index, and `positions` maps each input level to its plan position.

    ``block_of[p]`` is the number of the block that decides the level at
    plan position `p`, or -1 for a level no block holds, which stays.

    The blocks are held a second time as stacks (`Batch`), whose gamma
    sums `_key_sums` takes at once.  A block with one own level and no
    earlier one is settled by its gamma column alone; `settled` stacks all
    of these.  `waves` holds the other blocks, one list per ``n3``,
    ascending, of one stack per shape.

    Between calls the plan keeps the distinct layouts of its last pass
    (`layouts`) and, as ``(mpo, tol, Solution)`` by the MPO's `id`, the
    solutions a stacked pass left for the `row_compress` calls of its
    other members.
    """

    def __init__(self, levels, order):
        symbols = sorted({sym for lvl in levels for sym in lvl})
        if any(is_one(sym) for sym in symbols):
            raise ValueError("row compression needs column-merged levels "
                             "(no 1 symbols)")
        self.order = order
        others = sorted((l for l in levels if l != IDENTITY_LEVEL),
                        key=lambda l: (len(l), l))
        self.levels = [IDENTITY_LEVEL] + others
        index = {lvl: i for i, lvl in enumerate(self.levels)}
        self.positions = np.array([index[l] for l in levels], dtype=np.intp)
        blocks, self.keys = block_keys(self.levels, symbols, order)
        self.blocks = [Block(*block) for block in blocks]
        self._batch()
        self._layouts = {}
        self._pending = {}

    def _batch(self):
        """Stack the single-column blocks; the others by wave and shape."""
        self.block_of = np.full(len(self.levels), -1, dtype=np.intp)
        shapes = {}
        for b, block in enumerate(self.blocks):
            self.block_of[block.levels[block.n_prior:]] = b
            single = block.n_prior == 0 and len(block.levels) == 1
            shapes.setdefault(None if single else (block.n3, block.n_prior)
                              + block.index.shape[1:], []).append(b)
        self.settled = self._stack(shapes.pop(None, []))
        self.waves = [[self._stack(shapes[s]) for s in sorted(shapes)
                       if s[0] == n3]
                      for n3 in sorted({s[0] for s in shapes})]

    def _stack(self, numbers):
        """The blocks `numbers`, all with one column count, as a `Batch`."""
        blocks = [self.blocks[b] for b in numbers]
        depth, rows, cols = map(max, zip((1, 1, 1),
                                         *(b.index.shape for b in blocks)))
        index = np.full((depth, len(blocks), rows, cols), -1, dtype=np.intp)
        for k, block in enumerate(blocks):
            d, r, _ = block.index.shape
            index[:d, k, :r] = block.index
        levels = np.array([b.levels for b in blocks], dtype=np.intp)
        return Batch(numbers, blocks[0].n_prior if blocks else 0,
                     levels.reshape(len(blocks), cols), index)

    def layouts(self, kept, patterns):
        """The `Layout` of each step's decision ``kept[s]`` for an MPO
        whose coordinate blocks sit at ``patterns[s]``, a ``(rows, cols)``
        pair.

        Steps whose decision and block pattern agree share one layout,
        found by the bytes of the three arrays.  The plan keeps the
        distinct layouts of its last pass, which serve the steps of the
        next one that repeat them.  A layout is not changed once built.
        """
        memo, found, out = self._layouts, {}, []
        for flags, (rows, cols) in zip(kept, patterns):
            key = (flags.tobytes(), rows.tobytes(), cols.tobytes())
            if key not in found:
                found[key] = memo.get(key) or Layout(self, flags, rows, cols)
            out.append(found[key])
        self._layouts = found
        return out

    def values(self, brackets):
        """The bracket vector: one value per key, then a zero.

        A non-finite bracket raises `ValueError` naming its key.
        """
        values = np.array([brackets.value(k) for k in self.keys] + [0.0],
                          dtype=complex)
        bad = np.flatnonzero(~np.isfinite(values))
        if len(bad):
            raise ValueError(f"bracket {self.keys[bad[0]]!r} is not finite: "
                             f"{values[bad[0]]}")
        return values


def _select_new_levels(residual, tol, ref):
    """Greedy spanning subset of residual columns, in column order.

    The rank criterion matches the rank-revealing QR (columns whose
    residual norm exceeds ``tol * ref``); walking the columns in canonical
    label order keeps the selection deterministic.  The norm is
    ``np.linalg.norm``'s sum of two real dot products, spelled out.
    """
    basis = []  # (vector, its conjugate)
    selected = []
    for j in range(residual.shape[1]):
        v = residual[:, j].copy()
        # the second orthogonalization pass is for numerical safety
        for _ in range(2):
            for b, b_conj in basis:
                v -= b_conj.dot(v) * b
        nrm = math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
        if nrm > tol * ref:
            b = v / nrm
            basis.append((b, b.conj()))
            selected.append(j)
    return selected


def _plan_for(mpo):
    """The compression plan of `mpo`: its power plan's, or one of its own."""
    power = mpo.params.get("plan")
    if power is None:
        return CompressionPlan(mpo.levels, mpo.order)
    if power.compression is None:
        start = time.perf_counter()
        power.compression = CompressionPlan(power.levels, mpo.order)
        power.plan_s += time.perf_counter() - start
    return power.compression


class FoldStack(NamedTuple):
    """The folds of one shape, as a `Layout` holds them.

    Each fold solves ``g[:, basis] x = g[:, removed]`` for one block that
    removes levels: `numbers` are the blocks, in wave and batch order,
    and `basis` and `rest` ``(folds, rows, columns)`` index a step's
    gammas, all batches' stacks raveled in wave order, at each block's
    basis columns (the earlier kept levels, then its own kept ones) and
    its removed columns.  `scale` indexes the step's column scales, `levels` holds
    the plan positions of the basis then the removed columns.
    """

    numbers: np.ndarray
    basis: np.ndarray
    rest: np.ndarray
    scale: np.ndarray
    levels: np.ndarray


class Layout:
    """Everything a compression does that its plan and decision fix.

    The decision is the kept flags: they fix each block's basis columns
    and removed columns, in order, and so every fold.  The layout holds
    the kept labels, the fold stacks, one per shape (`FoldStack`), and
    the full term list ``(source, target)``, every (removed, basis) pair
    in block order, each block's removed level by removed level over its
    basis in order.  The coefficients a step solves for come stack by
    stack, each stack fold by fold, removed column by removed column;
    `term_order` puts them in term order.

    `_fold`'s index arrays are built here too, for the MPO's coordinate
    blocks at `rows`, `cols`, as if every term were shown: the `direct`
    entries, kept row and column, land at `at_direct`; entry ``entry[i]``
    times term ``term[i]``'s coefficient adds at ``at_added[i]``; `slots`
    numbers the entries ``a * m + k`` reached, ascending.
    """

    def __init__(self, plan, kept, rows, cols):
        self.kept = kept.copy()
        self.rows, self.cols = rows, cols
        self.labels = [plan.levels[p] for p in np.flatnonzero(kept)]
        self.stacks = self._stacks(plan, kept)
        none = np.zeros(0, dtype=np.intp)
        numbers, source, target = (np.concatenate(a) for a in zip(
            *[_terms(stack) for stack in self.stacks], (none,) * 3))
        self.term_order = np.argsort(numbers, kind="stable")
        self.source = source[self.term_order]
        self.target = target[self.term_order]
        self._index(plan, plan.positions[rows], plan.positions[cols])

    @staticmethod
    def _stacks(plan, kept):
        """The fold stacks of the decision `kept`, one per shape ``(rows,
        columns, basis columns)``, each in wave and batch order."""
        groups = {}
        offset = first = 0
        for batch in (batch for wave in plan.waves for batch in wave):
            n, n_rows, n_cols = batch.index.shape[1:]
            flags = kept[batch.levels]
            # column classes: kept 0, removed own 1, removed earlier 2;
            # a stable sort puts the basis first, then the removed ones
            grade = np.where(flags, 0, 1)
            grade[:, :batch.n_prior] *= 2
            order = np.argsort(grade, axis=1, kind="stable")
            n_basis = (grade == 0).sum(axis=1)
            n_rest = (grade == 1).sum(axis=1)
            for nb, nr in sorted(set(zip(n_basis.tolist(), n_rest.tolist()))):
                if not nr:
                    continue
                k = np.flatnonzero((n_basis == nb) & (n_rest == nr))
                columns = order[k, :nb + nr]
                at = offset + (k[:, None, None] * n_rows
                               + np.arange(n_rows)[:, None]) * n_cols \
                    + columns[:, None, :]
                groups.setdefault((n_rows, nb + nr, nb), []).append((
                    np.asarray(batch.numbers)[k], at, first + k,
                    np.take_along_axis(batch.levels[k], columns, axis=1)))
            offset += n * n_rows * n_cols
            first += n
        stacks = []
        for (_, _, nb), parts in groups.items():
            numbers, at, scale, levels = (np.concatenate(a)
                                          for a in zip(*parts))
            stacks.append(FoldStack(numbers, np.ascontiguousarray(
                at[:, :, :nb]), np.ascontiguousarray(at[:, :, nb:]),
                scale, levels))
        return stacks

    def _index(self, plan, rows, cols):
        """`_fold`'s index arrays over every term."""
        kept = self.kept
        m = len(self.labels)
        new = np.cumsum(kept) - 1
        self.direct = np.flatnonzero(kept[rows] & kept[cols])
        hit = np.zeros(m * m, dtype=bool)
        slot = new[rows[self.direct]] * m + new[cols[self.direct]]
        hit[slot] = True
        # entries of each source column, term by term: the entries sorted
        # by column (stable), and where each column's run starts
        source, target = self.source, self.target
        by_col = np.argsort(cols, kind="stable")
        start = np.searchsorted(cols[by_col], np.arange(len(plan.levels) + 1))
        per_col = start[source + 1] - start[source]
        term = np.repeat(np.arange(len(source)), per_col)
        offset = np.arange(len(term)) - np.repeat(
            np.cumsum(per_col) - per_col, per_col)
        entry = by_col[start[source][term] + offset]
        live = kept[rows[entry]]
        self.entry, self.term = entry[live], term[live]
        added = new[rows[self.entry]] * m + new[target[self.term]]
        hit[added] = True
        self.slots = hit.nonzero()[0]
        at = np.empty(m * m, dtype=np.intp)
        at[self.slots] = np.arange(len(self.slots))
        self.at_direct, self.at_added = at[slot], at[added]


def _terms(stack):
    """Block numbers, sources and targets of every term of `stack`, fold
    by fold, removed column by removed column, basis column by column."""
    nb, nr = stack.basis.shape[2], stack.rest.shape[2]
    basis, rest = stack.levels[:, :nb], stack.levels[:, nb:]
    return (np.repeat(stack.numbers, nr * nb),
            np.repeat(rest, nb, axis=1).ravel(),
            np.tile(basis, (1, nr)).ravel())


class Solution(NamedTuple):
    """What a stacked pass leaves for one step's fold: its `layout`, the
    coefficient of each term and whether it is `shown`, in term order,
    and the largest relative `fold_residual` of its folds."""

    layout: Layout
    coeff: np.ndarray
    shown: np.ndarray
    fold_residual: float


def row_compress(mpo, *, tol=1e-12, stack=None):
    """Order-preserving row compression of a column-merged MPO.

    Parameters
    ----------
    mpo : ExtensiveMPO
        Its levels must carry no 1 symbols.  The bracket table is the one
        recorded at construction time (``params["brackets"]``): the
        brackets of a Dyson or Magnus step, or the frozen table
        (`BracketTable.frozen`) of a Taylor MPO.  An MPO made by
        a `PowerPlan` (``params["plan"]``) is compressed with the
        compression plan that power plan keeps; any other gets a plan of
        its own.  Compression preserves the expansion order ``mpo.order``.
    tol : float
        Relative rank tolerance of the pivoted QR; vanishing integrals can
        legitimately reduce the kept set.
    stack : sequence of ExtensiveMPO, optional
        MPOs of one `PowerPlan`, `mpo` among them, each to be compressed
        by a call of its own at `tol`.  The first call decides and solves
        every member in one stacked pass (`_solve_stack`); the compression
        plan keeps the other members' solutions until their calls take
        and fold them.  Without it, `mpo` is a stack of one.

    Returns ``(compressed_mpo, report)``; the compressed MPO holds the
    coordinate blocks of the fold.  Each member's result is bitwise the
    one of a stack of one.
    """
    if not 0.0 <= tol < 1.0:
        raise ValueError(f"tol must lie in [0, 1), got {tol!r}")
    plan = _plan_for(mpo)
    member, at, solved = plan._pending.pop(id(mpo), (None, None, None))
    if member is not mpo or at != tol:
        members = [mpo] if stack is None else list(stack)
        power = mpo.params.get("plan")
        if not any(m is mpo for m in members):
            raise ValueError("the stack does not hold the MPO to compress")
        if any(m.params.get("plan") is not power
               or (power is None and m is not mpo) for m in members):
            raise ValueError("the MPOs of a stack share one power plan")
        solutions = _solve_stack(plan, members, tol)
        plan._pending = {id(m): (m, tol, s)
                         for m, s in zip(members, solutions)}
        _, _, solved = plan._pending.pop(id(mpo))
    layout, coeff, shown, fold_residual = solved

    params = {k: v for k, v in mpo.params.items() if k != "plan"}
    out = ExtensiveMPO(
        mpo.d, layout.labels, *_fold(mpo, layout, coeff, shown),
        order=mpo.order, params=params)
    report = CompressionReport(
        kept_levels=list(layout.labels),
        removed_levels=lambda: _removals(plan, layout, coeff, shown),
        bond_dimension_before=mpo.bond_dimension,
        bond_dimension_after=out.bond_dimension, qr_tolerance=tol,
        fold_residual=fold_residual)
    return out, report


def _solve_stack(plan, members, tol):
    """The `Solution` of each MPO of `members`, all of `plan`, in order.

    Every step is decided in full: its brackets, the settled gather and
    each wave's `_decide` run with a leading step axis, then `_solve`
    solves the folds of the steps that share a layout together.  A step
    without a bracket table, or with a non-finite bracket, raises
    `ValueError`, the first such step in order; a fold that fails raises
    `CompressionBasisError` for the first step in order with one.
    """
    for m in members:
        if m.params.get("brackets") is None:
            raise ValueError("no bracket table available for row compression")
    values = np.stack([plan.values(m.params["brackets"]) for m in members])
    kept = np.ones((len(members), len(plan.levels)), dtype=bool)
    # a single-column block keeps its level when some squared entry of
    # its column is nonzero, which is when the column's norm is
    g = _key_sums(values, plan.settled.index)
    kept[:, plan.settled.levels[:, 0]] = (g.real * g.real
                                          + g.imag * g.imag).any(axis=(2, 3))
    decided = [_decide(batch, values, kept, tol)
               for wave in plan.waves for batch in wave]
    layouts = plan.layouts(kept, [m.coo()[:2] for m in members])
    # every batch's gammas, raveled in wave order, and column scales
    n = len(members)
    gamma = np.concatenate([np.zeros((n, 0), dtype=complex)]
                           + [g.reshape(n, -1) for g, _ in decided], axis=1)
    scales = np.concatenate([np.zeros((n, 0))]
                            + [ref for _, ref in decided], axis=1)
    shared = {}
    for s, layout in enumerate(layouts):
        shared.setdefault(id(layout), (layout, []))[1].append(s)
    solutions, failed = [None] * n, []
    for layout, share in shared.values():
        solved, fails = _solve(layout, gamma[share], scales[share], tol)
        for s, solution in zip(share, solved):
            solutions[s] = solution
        failed.extend((share[s], number, why) for s, number, why in fails)
    if failed:
        _, number, why = min(failed)
        n2, n3, two_sequence = plan.blocks[number][:3]
        raise CompressionBasisError(
            f"group ({n2},{n3}) block {two_sequence}: {why}")
    return solutions


def _decide(batch, values, kept, tol):
    """Kept sets of one batch's blocks in every step; their folds are
    solved later.

    `values` holds each step's bracket vector and `kept` its kept flags,
    ``(steps, levels)``.  Clears the kept flag of every level a block
    removes in a step, and returns the batch's gammas ``(steps, blocks,
    rows, columns)`` and column scales ``(steps, blocks)``, which the fold
    solves read.  A block whose columns all vanish takes rank 0, and its
    levels fold to zero.  The steps' blocks are taken as one list, each
    block's levels as positions in the raveled flags.
    """
    n_steps, n_levels = kept.shape
    flags = kept.reshape(-1)
    levels = (batch.levels + n_levels * np.arange(n_steps)[:, None, None]
              ).reshape(-1, batch.levels.shape[1])
    g = _key_sums(values, batch.index)
    g = g.reshape((len(levels),) + g.shape[2:])
    p = batch.n_prior
    residual = g[:, :, p:].copy()
    ref = _column_scale(residual)
    if p:
        prior_kept = flags[levels[:, :p]]
        n_kept = prior_kept.sum(axis=1)
        # projection on the earlier kept columns; where those all vanish
        # zgelsd returns zero and the residual stays bitwise the gammas
        for n in set(n_kept.tolist()) - {0}:
            sub = (n_kept == n).nonzero()[0]
            g_kept = g[sub, :, :p]
            if n < p:
                # each block's kept earlier columns, in column order
                cols = np.argsort(~prior_kept[sub], axis=1, kind="stable")
                g_kept = np.take_along_axis(g_kept, cols[:, None, :n], axis=2)
            g_comp = residual[sub]
            residual[sub] = g_comp - g_kept @ lstsq(g_kept, g_comp)
    # rank of the residual measured against the unprojected column
    # scale, not the residual's own largest entry
    n_own = residual.shape[2]
    diag, pivots = pivoted_qr(residual)
    ranks = (diag > (tol * ref)[:, None]).sum(axis=1)
    # a rank of 0 removes every own level; in between, the greedy subset
    # in column order wins when it has the QR's size
    removed = np.repeat((ranks == 0)[:, None], n_own, axis=1)
    for k in np.flatnonzero((ranks > 0) & (ranks < n_own)).tolist():
        selected = pivots[k][:ranks[k]]
        greedy = _select_new_levels(residual[k], tol, ref[k])
        if len(greedy) == ranks[k]:
            selected = greedy
        removed[k] = True
        removed[k, selected] = False
    flags[levels[:, p:][removed]] = False
    return (g.reshape((n_steps, -1) + g.shape[1:]),
            ref.reshape(n_steps, -1))


def _solve(layout, gamma, scales, tol):
    """Solve every fold of `layout` for the steps that share it, one
    stack per shape, and check each.

    `gamma` holds each step's gammas, all batches' raveled in wave order,
    and `scales` its column scales.  Returns each step's `Solution`: the
    coefficient and whether it is shown of every term, in term order
    (coefficients at most ``1e-13`` times the block's largest, or 1, are
    not), and the largest relative fold residual.  Returns too the failed
    folds, ``(step, block number, why)``, whose basis cannot expand their
    removed levels.
    """
    n_steps = len(gamma)
    ratios = [np.zeros((n_steps, 1))]
    coeffs = [np.zeros((n_steps, 0), dtype=complex)]
    shows = [np.zeros((n_steps, 0), dtype=bool)]
    failed = []
    for stack in layout.stacks:
        n = len(stack.numbers)
        total = n_steps * n
        g_basis = gamma.take(stack.basis, axis=1).reshape(
            (total,) + stack.basis.shape[1:])
        g_rest = gamma.take(stack.rest, axis=1).reshape(
            (total,) + stack.rest.shape[1:])
        ref = scales.take(stack.scale, axis=1).ravel()
        # minimal-norm solutions; kept levels may carry no weight in a
        # block's truncated basis, and a basis of zeros solves to zero
        x = lstsq(g_basis, g_rest)
        norms = _norms(np.concatenate([g_basis @ x - g_rest, g_rest])
                       .reshape(2 * total, -1))
        resid, rest_norm = norms[:total], norms[total:]
        bad = resid > np.maximum(1e-8 * rest_norm, 100 * tol * ref)
        spans = g_basis.reshape(total, -1).any(axis=1)
        if not spans.all():
            bad[~spans] = (rest_norm > tol * ref)[~spans]
        failed.extend((i // n, int(stack.numbers[i % n]),
                       f"expansion residual {resid[i]:.2e}" if spans[i]
                       else "nothing spans the remaining levels")
                      for i in bad.nonzero()[0].tolist())
        measured = spans & (rest_norm > 0)
        ratio = np.zeros(total)
        ratio[measured] = resid[measured] / rest_norm[measured]
        ratios.append(ratio.reshape(n_steps, n))
        size = np.abs(x)
        cutoff = 1e-13 * np.maximum(1.0, size.max(axis=(1, 2), initial=0.0))
        # terms removed level by level, each over its basis in order
        coeffs.append(x.transpose(0, 2, 1).reshape(n_steps, -1))
        shows.append((size > cutoff[:, None, None]).transpose(0, 2, 1)
                     .reshape(n_steps, -1))
    order = layout.term_order
    residuals = np.concatenate(ratios, axis=1).max(axis=1).tolist()
    coeff = np.concatenate(coeffs, axis=1).take(order, axis=1)
    shown = np.concatenate(shows, axis=1).take(order, axis=1)
    return ([Solution(layout, c, v, r)
             for c, v, r in zip(coeff, shown, residuals)], failed)


def _removals(plan, layout, coeff, shown):
    """``(level, {kept level: coefficient})`` per removed level, in block
    order; a block's levels in column order, each expansion over its basis
    in order (the order of the shown terms)."""
    removed = np.flatnonzero(~layout.kept)
    removed = removed[np.argsort(plan.block_of[removed], kind="stable")]
    expansions = {p: {} for p in removed.tolist()}
    terms = layout.source[shown], layout.target[shown], coeff[shown]
    for p, k, c in zip(*(a.tolist() for a in terms)):
        expansions[p][plan.levels[k]] = c
    return [(plan.levels[p], e) for p, e in expansions.items()]


def _norms(a):
    """``np.linalg.norm`` of each vector along the last axis of `a`.

    `np.linalg.norm` sums the squares of a complex vector as the dot
    products of its real and imaginary parts; `np.vecdot` takes the same
    dot product of each vector of a stack, so every value is bitwise the
    one a call per vector gives.
    """
    a = np.ascontiguousarray(a)
    return np.sqrt(np.vecdot(a.real, a.real) + np.vecdot(a.imag, a.imag))


def _column_scale(g):
    """Largest column norm of each matrix of `g` (one, or a stack), as
    ``np.linalg.norm`` gives each column."""
    return _norms(g.swapaxes(-1, -2)).max(axis=-1)


def _fold(mpo, layout, coeff, shown):
    """Coordinate blocks ``(rows, cols, blocks)`` of ``W[kept rows, :] @ T``.

    ``T`` is the identity on kept levels plus, for each removed level, its
    coefficients on the kept ones; the indices count kept levels.  `coeff`
    and `shown` hold the coefficient of each term of `layout` and whether
    it is shown.  Entry ``(a, k)`` starts from ``W[a, k]`` and adds the
    shown terms one at a time in term order (`scatter_add`), which is the
    order of a level-by-level column merge.  Only the entries some kept
    block or shown term reaches are stored, in row-major order: of the
    layout's slots, which every term reaches, those that sum to exactly
    zero are dropped, and so are those that only cut terms reach.
    """
    blocks = mpo.coo()[2]
    out = np.zeros((len(layout.slots),) + blocks.shape[1:], dtype=complex)
    out[layout.at_direct] = blocks[layout.direct]
    live = shown[layout.term]
    term = layout.term[live]
    if len(term):
        scatter_add(out, layout.at_added[live],
                    coeff[term, None, None] * blocks[layout.entry[live]])
    live = out.any(axis=(1, 2))
    slots = layout.slots[live]
    m = len(layout.labels)
    return slots // m, slots % m, out[live]

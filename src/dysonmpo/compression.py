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

All of that but the numbers is fixed by the levels and the order: the
groups and their blocks per 2-sequence, each block's completion rows, and
for every (level, row) pair the brackets its coefficient sums.  A
`CompressionPlan` holds them, and a `PowerPlan` keeps one for all the
Dyson and Magnus steps of its order.  The plan enumerates the keys of all
pairs in array passes, one weave pattern per pair shape
(`levels.block_keys`), and stacks its blocks: one stack per shape, index
arrays padded with -1 to the deepest block.  A compression gathers the
step's brackets into a vector and fills a stack's coefficient matrices at
once with `_key_sums`, the one evaluator of gamma sums (each entry sums
its keys in weave order, so the rank decisions match a literal evaluation
bit for bit).  It selects and solves, and folds the removed levels into
the kept ones at once: the product ``W[kept rows, :] @ T``, ``T`` holding
the identity on kept levels and the fold coefficients, held as the
coordinate blocks `apply_mpo` reads.

A step does only the work whose outcome depends on its numbers.  A block
with one own level and no earlier levels of its 2-sequence keeps that
level exactly when its gamma column is nonzero, which is what the pivoted
QR decides for any ``tol < 1``; these blocks form one more stack, which a
step settles with one gather.  The other blocks take an R-only pivoted
QR; only a rank strictly between 0 and the column count leaves a choice,
and only then does the greedy pass run, its subset in column order kept
when it has the QR's size.

A block reads only the kept flags of the earlier blocks of its
2-sequence, which have the same ``n2`` and a smaller ``n3``, so the blocks
of one ``n3`` are independent: a step takes them as one wave, and within
a wave their stacks, whose column scales, projections and rank tests run
on the whole stack.  The least-squares solves call the gufunc behind
``np.linalg.lstsq`` once per stack, which runs the same ``zgelsd`` per
matrix; the fold solves, which no later block reads, run after the last
wave, one stack per shape.  Each entry of the folded tensor adds its terms
in block order, with one ordered scatter-add (`extensive.scatter_add`).
"""

import math
import time
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .extensive import ExtensiveMPO, scatter_add
from .levels import IDENTITY_LEVEL, block_keys, is_one
from .linalg import _ZGEQP3, _geqp3_lwork


class CompressionBasisError(RuntimeError):
    """A non-kept level could not be expanded over the kept basis."""


class CompressionReport:
    """Kept and removed levels, bond sizes and the largest fold residual.

    `removed_levels` lists ``(level, {kept level: coefficient})`` in block
    order; a compression passes it as a function that builds the list,
    called when the attribute is first read.
    """

    def __init__(self, kept_levels=None, removed_levels=None,
                 bond_dimension_before=0, bond_dimension_after=0,
                 qr_tolerance=0.0, fold_residual=0.0):
        self.kept_levels = [] if kept_levels is None else kept_levels
        self._removed = [] if removed_levels is None else removed_levels
        self.bond_dimension_before = bond_dimension_before
        self.bond_dimension_after = bond_dimension_after
        self.qr_tolerance = qr_tolerance
        # largest |G_basis x - G_rest| / |G_rest|
        self.fold_residual = fold_residual

    @property
    def removed_levels(self):
        if callable(self._removed):
            self._removed = self._removed()
        return self._removed

    def to_text(self):
        lines = [
            f"bond dimension: {self.bond_dimension_before} -> "
            f"{self.bond_dimension_after}",
            f"qr tolerance: {self.qr_tolerance}",
            f"fold residual: {self.fold_residual:.3g}",
            f"kept levels ({len(self.kept_levels)}):",
        ]
        lines.extend(f"  {lvl!r}" for lvl in self.kept_levels)
        lines.append(f"removed levels ({len(self.removed_levels)}):")
        for lvl, expansion in self.removed_levels:
            combo = " + ".join(f"({c:.6g}) * {k!r}" for k, c in expansion.items())
            lines.append(f"  {lvl!r} = {combo if combo else '0'}")
        return "\n".join(lines)


def _key_sums(values, index):
    """``sum_t values[index[t]]``, from zero, one layer at a time.

    Each entry sums its keys in key order, as a literal evaluation does;
    an index of -1 adds the vector's trailing zero, which changes no sum.
    """
    g = values[index[0]] + 0.0
    for layer in index[1:]:
        g = g + values[layer]
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
        self._columns = None

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

    def columns(self, cols):
        """``(by_col, start)``: the entries of column `c` of an MPO whose
        entries lie in columns `cols` are ``by_col[start[c]:start[c + 1]]``,
        in entry order.

        The MPOs of one power plan share the columns of every entry but
        those of the identity column, so the last answer is kept for the
        next step.
        """
        if self._columns is None or not np.array_equal(self._columns[0], cols):
            by_col = np.argsort(cols, kind="stable")
            start = np.searchsorted(cols[by_col], np.arange(len(self.levels) + 1))
            self._columns = (cols, by_col, start)
        return self._columns[1:]

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


def _plan_for(mpo, order):
    """The compression plan of `mpo`: its power plan's, or one of its own."""
    power = mpo.params.get("plan")
    if power is None or power.order != order:
        return CompressionPlan(mpo.levels, order)
    if power.compression is None:
        start = time.perf_counter()
        power.compression = CompressionPlan(power.levels, order)
        power.plan_s += time.perf_counter() - start
    return power.compression


_EPS = np.finfo(np.float64).eps


def _no_convergence(err, flag):
    raise LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq(a, b):
    """``np.linalg.lstsq(a[k], b[k], rcond=None)[0]`` for every `k` at once.

    Calls the gufunc that `np.linalg.lstsq` wraps, with its `rcond` and
    error state; it runs ``zgelsd`` once per matrix, so each solution is
    bitwise the one of a call per system.
    """
    rcond = _EPS * max(a.shape[-2:])
    with np.errstate(call=_no_convergence, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return _umath_linalg.lstsq(a, b, rcond, signature="DDd->Ddid")[0]


class _Fold(NamedTuple):
    """A least-squares fold ``g[:, :n_basis] x = g[:, n_basis:]``: `g`
    holds block `number`'s columns of its basis, then of the levels it
    removes, and `levels` their plan positions."""

    number: int
    g: np.ndarray
    levels: np.ndarray
    n_basis: int
    ref: float


def row_compress(mpo, order=None, tol=1e-12):
    """Order-preserving row compression of a column-merged MPO.

    Parameters
    ----------
    mpo : ExtensiveMPO
        Its levels must carry no 1 symbols.  The bracket table is the one
        recorded at construction time (``params["brackets"]``): the
        `BracketTable` of a Dyson or Magnus MPO, or the `TaylorBrackets`
        ``tau**k / k!`` of a Taylor MPO.  An MPO made by
        a `PowerPlan` (``params["plan"]``) is compressed with the
        compression plan that power plan keeps; any other gets a plan of
        its own.
    order : int, optional
        Expansion order; defaults to ``mpo.order``.
    tol : float
        Relative rank tolerance of the pivoted QR; vanishing integrals can
        legitimately reduce the kept set.

    Returns ``(compressed_mpo, report)``; the compressed MPO holds the
    coordinate blocks of the fold.
    """
    if not 0.0 <= tol < 1.0:
        raise ValueError(f"tol must lie in [0, 1), got {tol!r}")
    order = mpo.order if order is None else int(order)
    brackets = mpo.params.get("brackets")
    if brackets is None:
        raise ValueError("no bracket table available for row compression")
    plan = _plan_for(mpo, order)
    values = plan.values(brackets)
    kept = np.ones(len(plan.levels), dtype=bool)
    # a single-column block drops its level when all squared entries of
    # its column are zero, which is when the column's norm is
    g = _key_sums(values, plan.settled.index)
    kept[plan.settled.levels[~(g.real * g.real + g.imag * g.imag)
                             .any(axis=(1, 2))]] = False
    folds = []
    for wave in plan.waves:
        for batch in wave:
            _decide(batch, values, kept, tol, folds)
    fold_residual, terms = _solve(plan, folds, tol)

    levels = [plan.levels[p] for p in np.flatnonzero(kept)]
    params = {k: v for k, v in mpo.params.items() if k != "plan"}
    out = ExtensiveMPO.from_arrays(
        mpo.d, levels, *_fold(mpo, plan, kept, terms), order=order,
        params=params)
    report = CompressionReport(kept_levels=list(levels),
                               removed_levels=lambda: _removals(
                                   plan, kept, terms),
                               bond_dimension_before=mpo.bond_dimension,
                               bond_dimension_after=out.bond_dimension,
                               qr_tolerance=tol, fold_residual=fold_residual)
    return out, report


def _decide(batch, values, kept, tol, folds):
    """Kept sets of one batch's blocks; their folds are solved later.

    Clears the kept flag of every level a block removes and appends each
    block that removes levels to `folds`.  A block whose columns all
    vanish takes rank 0, and its levels fold to zero.
    """
    g = _key_sums(values, batch.index)
    p = batch.n_prior
    residual = g[:, :, p:].copy()
    ref = _column_scale(residual)
    if p:
        prior_kept = kept[batch.levels[:, :p]]
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
            residual[sub] = g_comp - g_kept @ _lstsq(g_kept, g_comp)
    # rank of the residual measured against the unprojected column
    # scale, not the residual's own largest entry; the stack holds each
    # residual in Fortran order for zgeqp3 to factorise in place
    n_rows, n_own = residual.shape[1:]
    r_fac = residual.transpose(0, 2, 1).copy()
    lwork = _geqp3_lwork(n_rows, n_own)
    pivots = [_ZGEQP3(r.T, lwork=lwork, overwrite_a=True)[1] for r in r_fac]
    diag = np.abs(np.diagonal(r_fac, axis1=1, axis2=2))
    ranks = (diag > (tol * ref)[:, None]).sum(axis=1).tolist()
    removed = []
    for k, rank in enumerate(ranks):
        if rank == n_own:
            continue
        # a rank of 0 leaves one choice too; in between, the greedy
        # subset in column order wins when it has the QR's size
        selected = sorted((pivots[k][:rank] - 1).tolist())
        if rank:
            greedy = _select_new_levels(residual[k], tol, ref[k])
            if len(greedy) == rank:
                selected = greedy
        # the basis is the earlier kept levels then the new ones
        basis = prior_kept[k].nonzero()[0].tolist() if p else []
        basis += [p + j for j in selected]
        cols = basis + [p + j for j in range(n_own) if j not in selected]
        fold = _Fold(batch.numbers[k], g[k][:, cols], batch.levels[k][cols],
                     len(basis), ref[k])
        folds.append(fold)
        removed.append(fold.levels[fold.n_basis:])
    if removed:
        kept[np.concatenate(removed)] = False


def _solve(plan, folds, tol):
    """Solve every fold, one stack per shape, and check each.

    Returns the largest relative fold residual and the fold terms
    ``(removed, kept, coefficient)`` in block order, each block's removed
    level by removed level over its basis in order; coefficients at most
    ``1e-13`` times the block's largest (or 1) are left out.  The first
    block, in block order, whose basis cannot expand its removed levels
    raises `CompressionBasisError`.
    """
    by_shape = {}
    for fold in folds:
        by_shape.setdefault(fold.g.shape + (fold.n_basis,), []).append(fold)
    ratios, failed, terms = [np.zeros(1)], [], []
    for group in by_shape.values():
        n, n_basis = len(group), group[0].n_basis
        g = np.array([f.g for f in group])
        g_basis = np.ascontiguousarray(g[:, :, :n_basis])
        g_rest = g[:, :, n_basis:]
        ref = np.array([f.ref for f in group])
        # minimal-norm solutions; kept levels may carry no weight in a
        # block's truncated basis, and a basis of zeros solves to zero
        x = _lstsq(g_basis, g_rest)
        norms = _norms(np.concatenate([g_basis @ x - g_rest, g_rest])
                       .reshape(2 * n, -1))
        resid, rest_norm = norms[:n], norms[n:]
        bad = resid > np.maximum(1e-8 * rest_norm, 100 * tol * ref)
        spans = g_basis.reshape(n, -1).any(axis=1)
        if not spans.all():
            bad[~spans] = (rest_norm > tol * ref)[~spans]
        failed.extend((group[k], f"expansion residual {resid[k]:.2e}"
                       if spans[k] else "nothing spans the remaining levels")
                      for k in bad.nonzero()[0].tolist())
        measured = spans & (rest_norm > 0)
        ratios.append(resid[measured] / rest_norm[measured])
        size = np.abs(x)
        cutoff = 1e-13 * np.maximum(1.0, size.max(axis=(1, 2), initial=0.0))
        shown = size > cutoff[:, None, None]
        levels = np.array([f.levels for f in group])
        basis, rest = levels[:, :n_basis], levels[:, n_basis:]
        numbers = np.array([f.number for f in group])
        # terms removed level by level, each over its basis in order
        k, jr, i = shown.transpose(0, 2, 1).nonzero()
        terms.append((numbers[k], rest[k, jr], basis[k, i], x[k, i, jr]))
    if failed:
        fold, why = min(failed, key=lambda item: item[0].number)
        n2, n3, two_sequence = plan.blocks[fold.number][:3]
        raise CompressionBasisError(
            f"group ({n2},{n3}) block {two_sequence}: {why}")
    fold_residual = float(np.concatenate(ratios).max())
    if not terms:
        return fold_residual, None
    number, source, target, coeff = (np.concatenate(a) for a in zip(*terms))
    order = np.argsort(number, kind="stable")
    return fold_residual, (source[order], target[order], coeff[order])


def _removals(plan, kept, terms):
    """``(level, {kept level: coefficient})`` per removed level, in block
    order; a block's levels in column order, each expansion over its basis
    in order (the order of the fold `terms`)."""
    removed = np.flatnonzero(~kept)
    removed = removed[np.argsort(plan.block_of[removed], kind="stable")]
    expansions = {p: {} for p in removed.tolist()}
    if terms is not None:
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


def _fold(mpo, plan, kept, terms):
    """Coordinate blocks ``(rows, cols, blocks)`` of ``W[kept rows, :] @ T``.

    ``T`` is the identity on kept levels plus, for each removed level, its
    coefficients on the kept ones; the indices count kept levels.
    `terms` holds three arrays ``(removed level, kept level,
    coefficient)``, one entry per term in the order the levels were
    removed, or None.  Entry ``(a, k)`` starts from ``W[a, k]`` and adds
    the removed levels' terms one at a time in that order (`scatter_add`),
    which is the order of a level-by-level column merge.  Only the entries
    some term or kept block reaches are stored, in row-major order, and
    those that sum to exactly zero are dropped.
    """
    rows, cols, blocks = mpo.coo()
    rows, cols = plan.positions[rows], plan.positions[cols]
    m = int(kept.sum())
    new = np.cumsum(kept) - 1
    direct = kept[rows] & kept[cols]
    # entries are numbered a * m + k over the kept levels; `at` numbers
    # the ones reached in that order
    hit = np.zeros(m * m, dtype=bool)
    slot = new[rows[direct]] * m + new[cols[direct]]
    hit[slot] = True
    if terms is not None:
        source, target, coeff = terms
        # entries of each source column, term by term
        by_col, start = plan.columns(cols)
        n_entries = start[source + 1] - start[source]
        term = np.repeat(np.arange(len(source)), n_entries)
        offset = np.arange(len(term)) - np.repeat(
            np.cumsum(n_entries) - n_entries, n_entries)
        entry = by_col[start[source][term] + offset]
        live = kept[rows[entry]]
        entry, term = entry[live], term[live]
        added = new[rows[entry]] * m + new[target[term]]
        hit[added] = True
    slots = hit.nonzero()[0]
    at = np.empty(m * m, dtype=np.intp)
    at[slots] = np.arange(len(slots))
    out = np.zeros((len(slots),) + blocks.shape[1:], dtype=complex)
    out[at[slot]] = blocks[direct]
    if terms is not None:
        scatter_add(out, at[added], coeff[term, None, None] * blocks[entry])
    live = out.any(axis=(1, 2))
    slots = slots[live]
    return slots // m, slots % m, out[live]

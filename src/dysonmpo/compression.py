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
Dyson and Magnus steps of its order.  A compression then gathers the
step's brackets into a vector, fills each block's coefficient matrix from
the plan's index arrays (summing in the order of `gamma_keys`, so the rank
decisions match a literal evaluation bit for bit), selects and solves, and
folds the removed levels into the kept ones at once: the product
``W[kept rows, :] @ T``, ``T`` holding the identity on kept levels and the
fold coefficients, accumulated as one scatter-add in the order the levels
were removed.  The result is held as its dense site tensor.

A step does only the work whose outcome depends on its numbers.  A block
with one own level and no earlier levels of its 2-sequence keeps that
level exactly when its gamma column is nonzero, which is what the pivoted
QR decides for any ``tol < 1``; the plan marks these blocks, and a step
settles all of them with one stacked gather.  The other blocks take an
R-only pivoted QR; only a rank strictly between 0 and the column count
leaves a choice, and only then does the greedy pass run, its subset in
column order kept when it has the QR's size.
"""

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .extensive import ExtensiveMPO
from .levels import IDENTITY_LEVEL, completion_rows, interleavings, is_one
from .linalg import qr_column_pivoted


class CompressionBasisError(RuntimeError):
    """A non-kept level could not be expanded over the kept basis."""


@dataclass
class CompressionReport:
    kept_levels: list = field(default_factory=list)
    removed_levels: list = field(default_factory=list)  # (level, {kept: coeff})
    bond_dimension_before: int = 0
    bond_dimension_after: int = 0
    qr_tolerance: float = 0.0
    fold_residual: float = 0.0  # largest |G_basis x - G_rest| / |G_rest|

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


def _segments(items, marker):
    """Channels of `items` in runs split at the items tagged `marker`.

    A stripped label splits at its 2 symbols into runs of 3-channels, and
    a row key at its completions ``"C"`` into runs of insertions.
    """
    segs = [[]]
    for item in items:
        if item[0] == marker:
            segs.append([])
        else:
            segs[-1].append(item[1])
    return segs


def gamma_keys(level, row, order):
    """Bracket keys whose sum is the coefficient of `level` along `row`.

    One key per weave of the row's inserted terms through the level's
    finished symbols, holding the factor order of completions and
    insertions fixed as given by the row, in summation order.  Empty when
    the level cannot reach the row.
    """
    two_seq = list(level.two_sequence())
    row_cs = [(item[1], item[2]) for item in row if item[0] == "C"]
    if row_cs != two_seq:
        return []
    n_ins = sum(1 for item in row if item[0] == "I")
    if level.n2 + level.n3 + n_ins > order:
        return []
    chan_of_two = [ch for ch, _ in two_seq]
    per_segment = [interleavings(tuple(ls), tuple(rs)) for ls, rs in
                   zip(_segments(level, "2"), _segments(row, "C"))]
    keys = []
    for weave in product(*per_segment):
        sigma = []
        for i, seg in enumerate(weave):
            if i > 0:
                sigma.append(chan_of_two[i - 1])
            sigma.extend(seg)
        keys.append(tuple(sigma))
    return keys


@dataclass
class Block:
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

    def gamma(self, values):
        """Coefficients of the block's columns over its rows.

        Sums the keys of each entry from zero, one at a time in key order,
        as a literal evaluation does.
        """
        g = values[self.index[0]] + 0.0
        for layer in self.index[1:]:
            g = g + values[layer]
        return g


class CompressionPlan:
    """What a row compression of `levels` at `order` does before any number.

    `levels` holds the identity level, then the others by (length,
    label): the order of the compressed MPO's levels.  `blocks` are
    processed in order: groups ``(n2, n3)`` by ``n2`` then ``n3``, each
    group's 2-sequences sorted.  `keys` lists the bracket keys the blocks
    index, and `positions` maps each input level to its plan position.

    A block with one own level and no earlier one is settled by its gamma
    column alone: `settled` holds the numbers of those blocks,
    `settled_levels` their levels and `settled_index` their index arrays
    stacked and padded with -1 (see `settled_nonzero`).  `open` lists the
    other blocks as ``(number, block)``.
    """

    def __init__(self, levels, order):
        if any(is_one(sym) for lvl in levels for sym in lvl):
            raise ValueError("row compression needs column-merged levels "
                             "(no 1 symbols)")
        self.order = order
        others = sorted((l for l in levels if l != IDENTITY_LEVEL),
                        key=lambda l: (len(l), l))
        self.levels = [IDENTITY_LEVEL] + others
        index = {lvl: i for i, lvl in enumerate(self.levels)}
        self.positions = np.array([index[l] for l in levels], dtype=np.intp)
        channels = sorted({sym[1] for lvl in levels for sym in lvl})
        groups = {}
        for lvl in others:
            groups.setdefault((lvl.n2, lvl.n3), {}).setdefault(
                lvl.two_sequence(), []).append(lvl)
        slots = {}   # bracket key -> position in the bracket vector
        memo = {}    # (level, row) -> key positions
        earlier = {}  # 2-sequence -> levels of the blocks before
        self.blocks = []
        for n2 in range(1, order + 1):
            for n3 in range(order - n2 + 1):
                blocks = groups.get((n2, n3), {})
                for cseq in sorted(blocks):
                    prior = earlier.setdefault(cseq, [])
                    cols = prior + blocks[cseq]
                    rows = completion_rows(cseq, channels, order - n2 - n3)
                    sums = []
                    for row in rows:
                        for lvl in cols:
                            key = (lvl, row)
                            if key not in memo:
                                memo[key] = [
                                    slots.setdefault(k, len(slots))
                                    for k in gamma_keys(lvl, row, order)]
                            sums.append(memo[key])
                    depth = max(1, max(map(len, sums)))
                    idx = np.full((len(sums), depth), -1, dtype=np.intp)
                    for i, s in enumerate(sums):
                        idx[i, :len(s)] = s
                    self.blocks.append(Block(
                        n2, n3, cseq,
                        np.array([index[l] for l in cols], dtype=np.intp),
                        len(prior),
                        idx.T.reshape(depth, len(rows), len(cols))))
                    prior.extend(blocks[cseq])
        self.keys = list(slots)
        single = [(b, block) for b, block in enumerate(self.blocks)
                  if block.n_prior == 0 and len(block.levels) == 1]
        self.open = [(b, block) for b, block in enumerate(self.blocks)
                     if block.n_prior or len(block.levels) > 1]
        self.settled = np.array([b for b, _ in single], dtype=np.intp)
        self.settled_levels = np.array([block.levels[0] for _, block in single],
                                       dtype=np.intp)
        depth = max((block.index.shape[0] for _, block in single), default=1)
        width = max((block.index.shape[1] for _, block in single), default=1)
        self.settled_index = np.full((depth, len(single), width), -1,
                                     dtype=np.intp)
        for k, (_, block) in enumerate(single):
            d, n, _ = block.index.shape
            self.settled_index[:d, k, :n] = block.index[:, :, 0]

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

    def settled_nonzero(self, values):
        """Whether each single-column block's gamma column is nonzero.

        The column sums run in key order, as `Block.gamma`'s do; padding
        adds the vector's trailing zero.  A column counts as zero when all
        its squared entries are, which is when its norm is.
        """
        g = values[self.settled_index[0]] + 0.0
        for layer in self.settled_index[1:]:
            g = g + values[layer]
        return (g.real * g.real + g.imag * g.imag).any(axis=1)


def _select_new_levels(residual, tol, ref):
    """Greedy spanning subset of residual columns, in column order.

    The rank criterion matches the rank-revealing QR (columns whose
    residual norm exceeds ``tol * ref``); walking the columns in canonical
    label order keeps the selection deterministic.
    """
    basis = []
    selected = []
    for j in range(residual.shape[1]):
        v = residual[:, j].copy()
        for b in basis:
            v -= (b.conj() @ v) * b
        # second orthogonalization pass for numerical safety
        for b in basis:
            v -= (b.conj() @ v) * b
        nrm = np.linalg.norm(v)
        if nrm > tol * ref:
            basis.append(v / nrm)
            selected.append(j)
    return selected


def _plan_for(mpo, order):
    """The compression plan of `mpo`: its power plan's, or one of its own."""
    power = mpo.params.get("plan")
    if power is None or power.order != order:
        return CompressionPlan(mpo.levels, order)
    if power.compression is None:
        power.compression = CompressionPlan(power.levels, order)
    return power.compression


def row_compress(mpo, order=None, tol=1e-12):
    """Order-preserving row compression of a column-merged MPO.

    Parameters
    ----------
    mpo : ExtensiveMPO
        Its levels must carry no 1 symbols.  The bracket table is the one
        recorded at construction time (``params["brackets"]``): a Dyson
        MPO's `BracketTable`, a Magnus MPO's `MagnusWeights`, or the
        `TaylorBrackets` ``tau**k / k!`` of a Taylor MPO.  An MPO made by
        a `PowerPlan` (``params["plan"]``) is compressed with the
        compression plan that power plan keeps; any other gets a plan of
        its own.
    order : int, optional
        Expansion order; defaults to ``mpo.order``.
    tol : float
        Relative rank tolerance of the pivoted QR; vanishing integrals can
        legitimately reduce the kept set.

    Returns ``(compressed_mpo, report)``; the compressed MPO holds its dense
    site tensor.

    Levels are visited grouped by ``(n2, n3)`` with ``n3 = 0`` first.  Rows
    of the operator basis only couple levels sharing the same sequence of
    in-progress symbols, so each group decomposes into independent blocks
    per 2-sequence.
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
    zero = ~plan.settled_nonzero(values)
    kept[plan.settled_levels[zero]] = False
    # (block number, its removals), merged into block order at the end
    chunks = [(b, [(plan.levels[p], {})]) for b, p in
              zip(plan.settled[zero].tolist(),
                  plan.settled_levels[zero].tolist())]
    folds = []       # per block: (removed, basis, coefficient) per term
    fold_residual = 0.0
    for number, block in plan.open:
        g = block.gamma(values)
        prior = block.levels[:block.n_prior]
        own = block.levels[block.n_prior:]
        g_comp = g[:, block.n_prior:]
        ref = _column_scale(g_comp)
        kept_prior = np.flatnonzero(kept[prior])
        if ref == 0.0:
            # identically vanishing weights: the block drops out
            chunks.append((number, [(plan.levels[p], {}) for p in own]))
            kept[own] = False
            continue
        residual = g_comp
        g_kept = None
        if len(kept_prior):
            g_kept = g[:, kept_prior]
            if np.any(g_kept):
                proj = g_kept @ np.linalg.lstsq(g_kept, g_comp,
                                                rcond=None)[0]
                residual = g_comp - proj
        # rank of the residual measured against the unprojected
        # column scale, not the residual's own largest entry
        _, pivots, r_fac = qr_column_pivoted(residual, tol=0.0)
        diag = np.abs(np.diag(r_fac))
        rank = int(np.count_nonzero(diag > tol * ref))
        if rank == len(own):
            continue
        # a rank of 0 leaves one choice too; in between, the greedy
        # subset in column order wins when it has the QR's size
        selected = sorted(pivots[:rank])
        if rank:
            greedy = _select_new_levels(residual, tol, ref)
            if len(greedy) == rank:
                selected = greedy
        rest_idx = [j for j in range(len(own)) if j not in selected]
        rest = own[rest_idx]
        # the basis is the earlier kept levels then the new ones, so
        # its columns are already in g_kept and g_comp
        basis = np.concatenate([prior[kept_prior], own[selected]])
        g_basis = g_comp[:, selected]
        if g_kept is not None:
            g_basis = np.hstack([g_kept, g_basis])
        g_rest = g_comp[:, rest_idx]
        if not np.any(g_basis):
            if np.linalg.norm(g_rest) > tol * ref:
                raise CompressionBasisError(
                    f"group ({block.n2},{block.n3}) block "
                    f"{block.two_sequence}: nothing spans the remaining "
                    "levels")
            x = np.zeros((len(basis), len(rest)), dtype=complex)
        else:
            # minimal-norm solution; kept levels may carry no weight
            # in this block's truncated basis
            x = np.linalg.lstsq(g_basis, g_rest, rcond=None)[0]
            rest_norm = np.linalg.norm(g_rest)
            resid = float(np.linalg.norm(g_basis @ x - g_rest))
            if resid > max(1e-8 * rest_norm, 100 * tol * ref):
                raise CompressionBasisError(
                    f"group ({block.n2},{block.n3}) block "
                    f"{block.two_sequence}: expansion residual {resid:.2e}")
            if rest_norm > 0:
                fold_residual = max(fold_residual,
                                    resid / float(rest_norm))
        cutoff = 1e-13 * max(1.0, np.abs(x).max(initial=0.0))
        big = (np.abs(x) > cutoff).T
        names = [plan.levels[p] for p in basis.tolist()]
        chunks.append((number, [
            (plan.levels[p], {names[i]: c for i, c in enumerate(coeffs)
                              if on[i]})
            for p, coeffs, on in zip(rest.tolist(), x.T.tolist(),
                                     big.tolist())]))
        # terms removed level by level, each over its basis in order
        jr, i = np.nonzero(big)
        folds.append((rest[jr], basis[i], x[i, jr]))
        kept[rest] = False

    levels = [plan.levels[p] for p in np.flatnonzero(kept)]
    params = {k: v for k, v in mpo.params.items() if k != "plan"}
    out = ExtensiveMPO.from_site_tensor(
        mpo.d, levels, _fold(mpo, plan.positions, kept, folds),
        order=order, params=params)
    chunks.sort(key=lambda chunk: chunk[0])
    report = CompressionReport(kept_levels=list(levels),
                               removed_levels=[r for _, rs in chunks
                                               for r in rs],
                               bond_dimension_before=mpo.bond_dimension,
                               bond_dimension_after=out.bond_dimension,
                               qr_tolerance=tol, fold_residual=fold_residual)
    return out, report


def _column_scale(g):
    """Largest column norm of `g`, as ``np.linalg.norm`` gives each.

    Squared column sums only pick the columns within 1e-8 of the largest
    (all of them when the squares near underflow); the norm is then taken
    column by column on those, so the value is bitwise the per-column
    maximum whatever rounding the sums carry.
    """
    sq = (g.real * g.real + g.imag * g.imag).sum(axis=0)
    top = sq.max()
    if top == 0.0:
        return 0.0
    near = np.flatnonzero(sq >= (1.0 - 1e-8) * top) if top > 1e-280 \
        else range(g.shape[1])
    return max(np.linalg.norm(g[:, j]) for j in near)


def _fold(mpo, positions, kept, folds):
    """Dense site tensor of ``W[kept rows, :] @ T`` over the kept levels.

    ``T`` is the identity on kept levels plus, for each removed level, its
    coefficients on the kept ones.  `folds` holds one triple of arrays per
    block, ``(removed level, kept level, coefficient)`` per term, in the
    order the levels were removed.  Entry ``(a, k)`` starts from
    ``W[a, k]`` and adds the removed levels' terms one at a time in that
    order, which is the order of a level-by-level column merge.
    """
    rows, cols, blocks = mpo.coo()
    rows, cols = positions[rows], positions[cols]
    d = mpo.d
    m = int(kept.sum())
    new = np.cumsum(kept) - 1
    out = np.zeros((m * m, d, d), dtype=complex)
    direct = kept[rows] & kept[cols]
    out[new[rows[direct]] * m + new[cols[direct]]] = blocks[direct]
    if folds:
        source = np.concatenate([s for s, _, _ in folds])
        target = np.concatenate([k for _, k, _ in folds])
        coeff = np.concatenate([c for _, _, c in folds])
        # entries of each source column, term by term
        by_col = np.argsort(cols, kind="stable")
        start = np.searchsorted(cols[by_col], np.arange(len(kept) + 1))
        n_entries = start[source + 1] - start[source]
        term = np.repeat(np.arange(len(source)), n_entries)
        offset = np.arange(len(term)) - np.repeat(
            np.cumsum(n_entries) - n_entries, n_entries)
        entry = by_col[start[source][term] + offset]
        live = kept[rows[entry]]
        entry, term = entry[live], term[live]
        np.add.at(out, new[rows[entry]] * m + new[target[term]],
                  coeff[term, None, None] * blocks[entry])
    return out.reshape(m, m, d, d)

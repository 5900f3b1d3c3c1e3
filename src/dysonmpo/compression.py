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
carries weight of order higher than the expansion order of the MPO.
"""

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .brackets import TaylorBrackets
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

    def to_text(self):
        lines = [
            f"bond dimension: {self.bond_dimension_before} -> "
            f"{self.bond_dimension_after}",
            f"qr tolerance: {self.qr_tolerance}",
            f"kept levels ({len(self.kept_levels)}):",
        ]
        lines.extend(f"  {lvl!r}" for lvl in self.kept_levels)
        lines.append(f"removed levels ({len(self.removed_levels)}):")
        for lvl, expansion in self.removed_levels:
            combo = " + ".join(f"({c:.6g}) * {k!r}" for k, c in expansion.items())
            lines.append(f"  {lvl!r} = {combo if combo else '0'}")
        return "\n".join(lines)


def _segments(level):
    """Split a stripped label into 3-channel runs separated by its 2 symbols."""
    segs = [[]]
    for sym in level:
        if sym[0] == "2":
            segs.append([])
        else:
            segs[-1].append(sym[1])
    return segs


def _row_segments(row):
    """Insertion channels of a row key, split by its completion items."""
    segs = [[]]
    for item in row:
        if item[0] == "C":
            segs.append([])
        else:
            segs[-1].append(item[1])
    return segs


def gamma_entry(level, row, brackets, order):
    """Coefficient of `level` along the right-operator basis element `row`.

    Sums the time-ordered integrals of every weave of the row's inserted
    terms through the level's finished symbols, holding the factor order of
    completions and insertions fixed as given by the row.
    """
    two_seq = list(level.two_sequence())
    row_cs = [(item[1], item[2]) for item in row if item[0] == "C"]
    if row_cs != two_seq:
        return 0.0j
    n_ins = sum(1 for item in row if item[0] == "I")
    if level.n2 + level.n3 + n_ins > order:
        return 0.0j
    chan_of_two = [ch for ch, _ in two_seq]
    lvl_segs = _segments(level)
    row_segs = _row_segments(row)
    per_segment = [interleavings(tuple(ls), tuple(rs))
                   for ls, rs in zip(lvl_segs, row_segs)]
    total = 0.0j
    for weave in product(*per_segment):
        sigma = []
        for i, seg in enumerate(weave):
            if i > 0:
                sigma.append(chan_of_two[i - 1])
            sigma.extend(seg)
        total += brackets.value(tuple(sigma))
    return total


def _gamma_matrix(rows, levels, brackets, order, memo=None):
    """Gamma entries of `levels` (columns) over `rows`, cached in `memo`.

    A kept level comes back in later groups of the same 2-sequence, whose
    rows (fewer insertions) are a subset of those it was first evaluated on.
    """
    memo = {} if memo is None else memo
    g = np.zeros((len(rows), len(levels)), dtype=complex)
    for j, lvl in enumerate(levels):
        for i, row in enumerate(rows):
            key = (lvl, row)
            if key not in memo:
                memo[key] = gamma_entry(lvl, row, brackets, order)
            g[i, j] = memo[key]
    return g


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


def row_compress(mpo, order=None, tol=1e-12):
    """Order-preserving row compression of a column-merged MPO.

    Parameters
    ----------
    mpo : ExtensiveMPO
        Its levels must carry no 1 symbols.  The bracket table is the one
        recorded at construction time (``params["brackets"]``); an MPO
        built by the Taylor construction (Taylor or Magnus) records its
        step instead, and gets the brackets ``tau**k / k!``.
    order : int, optional
        Expansion order; defaults to ``mpo.order``.
    tol : float
        Relative rank tolerance of the pivoted QR; vanishing integrals can
        legitimately reduce the kept set.

    Returns ``(compressed_mpo, report)``.

    Levels are visited grouped by ``(n2, n3)`` with ``n3 = 0`` first.  Rows
    of the operator basis only couple levels sharing the same sequence of
    in-progress symbols, so each group decomposes into independent blocks
    per 2-sequence.
    """
    order = mpo.order if order is None else int(order)
    brackets = mpo.params.get("brackets")
    if brackets is None and "tau" in mpo.params:
        brackets = TaylorBrackets(mpo.params["tau"], order)
    if brackets is None:
        raise ValueError("no bracket table available for row compression")
    if any(is_one(sym) for lvl in mpo.levels for sym in lvl):
        raise ValueError("row compression needs column-merged levels "
                         "(no 1 symbols)")
    channels = sorted({sym[1] for lvl in mpo.levels for sym in lvl})
    before = mpo.bond_dimension

    # column-indexed entry store: cols[b][a] = operator
    cols = {}
    for (a, b), op in mpo.entries.items():
        cols.setdefault(b, {})[a] = op
    dropped = set()

    kept = []      # beyond the always-kept identity level
    kept_by_cseq = {}
    gamma_memo = {}
    removed = []
    present = [l for l in mpo.levels if l != IDENTITY_LEVEL]
    present_set = set(present)

    def merge_column(target, source, coeff):
        dst = cols.setdefault(target, {})
        for a, op in cols.get(source, {}).items():
            if a in dropped:
                continue
            if a in dst:
                dst[a] = dst[a] + coeff * op
            else:
                dst[a] = coeff * op

    for n2 in range(1, order + 1):
        for n3 in range(0, order - n2 + 1):
            group = sorted((l for l in present_set
                            if l.n2 == n2 and l.n3 == n3),
                           key=lambda l: (len(l), l))
            if not group:
                continue
            n_ins = order - n2 - n3
            blocks = {}
            for lvl in group:
                blocks.setdefault(lvl.two_sequence(), []).append(lvl)
            for cseq in sorted(blocks):
                compatible = blocks[cseq]
                rows = completion_rows(cseq, channels, n_ins)
                g_comp = _gamma_matrix(rows, compatible, brackets, order,
                                       gamma_memo)
                ref = max(np.linalg.norm(g_comp[:, j])
                          for j in range(len(compatible)))
                kept_here = kept_by_cseq.get(cseq, [])
                if ref == 0.0:
                    # identically vanishing weights: the block drops out
                    for lvl in compatible:
                        removed.append((lvl, {}))
                        present_set.discard(lvl)
                        dropped.add(lvl)
                        cols.pop(lvl, None)
                    continue
                residual = g_comp
                g_kept = None
                if kept_here:
                    g_kept = _gamma_matrix(rows, kept_here, brackets, order,
                                           gamma_memo)
                    if np.any(g_kept):
                        proj = g_kept @ np.linalg.lstsq(g_kept, g_comp,
                                                        rcond=None)[0]
                        residual = g_comp - proj
                # rank of the residual measured against the unprojected
                # column scale, not the residual's own largest entry
                _, pivots, _, r_fac = qr_column_pivoted(residual, tol=0.0)
                diag = np.abs(np.diag(r_fac))
                rank = int(np.count_nonzero(diag > tol * ref))
                selected = _select_new_levels(residual, tol, ref)
                if len(selected) != rank:
                    # borderline numerics: fall back to the QR pivot choice
                    selected = sorted(pivots[:rank])
                new_kept = [compatible[j] for j in selected]
                kept.extend(new_kept)
                kept_by_cseq.setdefault(cseq, []).extend(new_kept)
                rest_idx = [j for j in range(len(compatible))
                            if j not in selected]
                if not rest_idx:
                    continue
                rest = [compatible[j] for j in rest_idx]
                # the basis is the earlier kept levels then the new ones, so
                # its columns are already in g_kept and g_comp
                basis = kept_by_cseq[cseq]
                g_basis = g_comp[:, selected]
                if g_kept is not None:
                    g_basis = np.hstack([g_kept, g_basis])
                g_rest = g_comp[:, rest_idx]
                if not np.any(g_basis):
                    if np.linalg.norm(g_rest) > tol * ref:
                        raise CompressionBasisError(
                            f"group ({n2},{n3}) block {cseq}: nothing spans "
                            "the remaining levels")
                    x = np.zeros((len(basis), len(rest)), dtype=complex)
                else:
                    # minimal-norm solution; kept levels may carry no weight
                    # in this block's truncated basis
                    x = np.linalg.lstsq(g_basis, g_rest, rcond=None)[0]
                    resid = float(np.linalg.norm(g_basis @ x - g_rest))
                    if resid > max(1e-8 * np.linalg.norm(g_rest),
                                   100 * tol * ref):
                        raise CompressionBasisError(
                            f"group ({n2},{n3}) block {cseq}: expansion "
                            f"residual {resid:.2e}")
                cutoff = 1e-13 * max(1.0, np.abs(x).max(initial=0.0))
                for jr, lvl in enumerate(rest):
                    expansion = {}
                    for ik, klvl in enumerate(basis):
                        c = x[ik, jr]
                        if abs(c) > cutoff:
                            merge_column(klvl, lvl, c)
                            expansion[klvl] = complex(c)
                    removed.append((lvl, expansion))
                    present_set.discard(lvl)
                    dropped.add(lvl)
                    cols.pop(lvl, None)

    entries = {}
    for b, col in cols.items():
        if b in dropped:
            continue
        for a, op in col.items():
            if a in dropped:
                continue
            entries[(a, b)] = op
    levels = [IDENTITY_LEVEL] + sorted(present_set, key=lambda l: (len(l), l))
    out = ExtensiveMPO(mpo.d, levels, entries, order=order,
                       params=dict(mpo.params))
    report = CompressionReport(kept_levels=list(levels),
                               removed_levels=removed,
                               bond_dimension_before=before,
                               bond_dimension_after=out.bond_dimension,
                               qr_tolerance=tol)
    return out, report

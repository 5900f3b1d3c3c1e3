import math
import re

import numpy as np
import pytest

from helpers import (column_compress, entries, flat_dyson_mpo,
                     flat_taylor_mpo, literal_compression_plan,
                     literal_power_plan, literal_row_compress)

from dysonmpo import bench, compression, fdmpo, levels
from dysonmpo.bench import BracketCache, build_step_mpo, step_table
from dysonmpo.brackets import BracketTable
from dysonmpo.compression import Batch, CompressionPlan, _key_sums, \
    row_compress
from dysonmpo.driving import Channel, ConstDriving, TimeDependentHamiltonian, \
    TrigDriving
from dysonmpo.dyson import dyson_mpo, magnus_evolution
from dysonmpo.extensive import ExtensiveMPO, PowerPlan, scatter_add
from dysonmpo.levels import ONE, LevelLabel, three, two
from dysonmpo.models import modulated_ising, modulated_xxz, static_tfi
from dysonmpo.mps import FiniteMPS, apply_mpo
from dysonmpo.spin import SX, SY, SZ
from dysonmpo.taylor import taylor_mpo

SIN = TrigDriving("sin", omega=2 * math.pi)
COS = TrigDriving("cos", omega=2 * math.pi)


def appendix_hamiltonian():
    """Two channels: a two-site L (x) R coupling and an on-site D term."""
    h1 = fdmpo.from_terms(2, two_site=[(SZ, SZ)])
    h2 = fdmpo.from_terms(2, on_site=SX)
    return TimeDependentHamiltonian([Channel("f1", h1, SIN),
                                     Channel("f2", h2, COS)])


def table_for(ham, t0, t1, order):
    return BracketTable.compute([(c.name, c.driving) for c in ham.channels],
                                t0, t1, order)


def assert_same_mpo(a, b, atol=1e-13):
    """Same level list and entry keys, entries equal to `atol`."""
    assert a.levels == b.levels
    ref, got = entries(a), entries(b)
    assert set(ref) == set(got)
    for key, op in ref.items():
        np.testing.assert_allclose(got[key], op, rtol=0, atol=atol)


def test_column_compress_merges_same_history_labels():
    ham = appendix_hamiltonian()
    tab = table_for(ham, 0.1, 0.25, 3)
    flat = flat_dyson_mpo(ham, tab, 3)
    lvl = lambda *syms: LevelLabel(syms)
    trio = [lvl(ONE, two("f1", 0), three("f2")),
            lvl(two("f1", 0), ONE, three("f2")),
            lvl(two("f1", 0), three("f2"), ONE)]
    for label in trio:
        assert label in flat.levels
    merged, report = column_compress(flat)
    target = lvl(two("f1", 0), three("f2"))
    assert target in merged.levels
    for label in trio:
        assert label not in merged.levels
    removed = dict(report.removed_levels)
    for label in trio[:2] + trio[2:]:
        if label != target:
            assert removed.get(label) == {target: 1.0} or label not in removed
    np.testing.assert_allclose(merged.to_dense(4), flat.to_dense(4), atol=1e-13)
    # the power construction merges the same classes on the fly
    assert_same_mpo(merged, dyson_mpo(ham, tab, 3))


def test_column_compress_first_order_noop():
    ham = appendix_hamiltonian()
    tab = table_for(ham, 0.0, 0.2, 1)
    w = dyson_mpo(ham, tab, 1)
    merged, report = column_compress(w)
    assert merged.levels == w.levels
    assert report.bond_dimension_before == report.bond_dimension_after
    assert_same_mpo(merged, w, atol=0.0)
    # at first order the flat power has no 1 symbols to merge either
    assert_same_mpo(flat_dyson_mpo(ham, tab, 1), w)


@pytest.mark.parametrize("kind", ["taylor", "dyson"])
def test_column_compress_exact_third_order(kind):
    if kind == "taylor":
        flat = flat_taylor_mpo(static_tfi(), -0.09j, 3)
        built = taylor_mpo(static_tfi(), -0.09j, 3)
    else:
        ham = appendix_hamiltonian()
        tab = table_for(ham, 0.05, 0.2, 3)
        flat = flat_dyson_mpo(ham, tab, 3)
        built = dyson_mpo(ham, tab, 3)
    merged, _ = column_compress(flat)
    np.testing.assert_allclose(merged.to_dense(4), flat.to_dense(4), atol=1e-13)
    assert merged.bond_dimension < flat.bond_dimension
    assert_same_mpo(merged, built)


def test_row_compress_rejects_flat_mpo():
    # levels that still carry 1 symbols have not been column-merged
    ham = appendix_hamiltonian()
    tab = table_for(ham, 0.05, 0.2, 2)
    with pytest.raises(ValueError, match="1 symbols"):
        row_compress(flat_dyson_mpo(ham, tab, 2), tol=1e-6)
    with pytest.raises(ValueError, match="1 symbols"):
        row_compress(flat_taylor_mpo(static_tfi(), -0.09j, 2))


def test_row_compress_explicit_linear_combination():
    # the removed level (3_1 2_1) expands as [f1] * (2_1) - (2_1 3_1),
    # and (3_2 2_1) as [f2] * (2_1) - (2_1 3_2)
    ham = appendix_hamiltonian()
    tab = table_for(ham, 0.1, 0.25, 3)
    w = dyson_mpo(ham, tab, 3)
    _, report = row_compress(w)
    removed = {lvl: dict(exp) for lvl, exp in report.removed_levels}
    l2 = LevelLabel((two("f1", 0),))
    l23a = LevelLabel((two("f1", 0), three("f1")))
    l23b = LevelLabel((two("f1", 0), three("f2")))
    l32a = LevelLabel((three("f1"), two("f1", 0)))
    l32b = LevelLabel((three("f2"), two("f1", 0)))
    exp_a = removed[l32a]
    assert abs(exp_a[l2] - tab.value(("f1",))) < 1e-12
    assert abs(exp_a[l23a] + 1.0) < 1e-12
    exp_b = removed[l32b]
    assert abs(exp_b[l2] - tab.value(("f2",))) < 1e-12
    assert abs(exp_b[l23b] + 1.0) < 1e-12


@pytest.mark.parametrize("chi", [1, 2])
def test_row_compress_appendix_kept_set(chi):
    if chi == 1:
        coup = fdmpo.from_terms(2, two_site=[(SZ, SZ)])
    else:
        coup = fdmpo.from_terms(2, two_site=[(SZ, SZ), (SX, SX)])
    ham = TimeDependentHamiltonian([Channel("f1", coup, SIN),
                                    Channel("f2", fdmpo.from_terms(2, on_site=SX), COS)])
    tab = table_for(ham, 0.1, 0.25, 3)
    w = dyson_mpo(ham, tab, 3)
    compressed, report = row_compress(w)
    assert compressed.bond_dimension == 1 + 3 * chi + chi ** 2 + chi ** 3
    if chi == 1:
        kept = set(report.kept_levels)
        expected = {
            LevelLabel(()),
            LevelLabel((two("f1", 0),)),
            LevelLabel((two("f1", 0), three("f1"))),
            LevelLabel((two("f1", 0), three("f2"))),
            LevelLabel((two("f1", 0), two("f1", 0))),
            LevelLabel((two("f1", 0), two("f1", 0), two("f1", 0))),
        }
        assert kept == expected


def test_row_compress_kept_set_minimality():
    # each kept level adds genuinely new operator content: dropping any one
    # of them leaves some level of its group outside the remaining span
    from dysonmpo.compression import CompressionPlan
    from dysonmpo.levels import IDENTITY_LEVEL

    ham = appendix_hamiltonian()
    tab = table_for(ham, 0.1, 0.25, 3)
    w = dyson_mpo(ham, tab, 3)
    compressed, report = row_compress(w, tol=1e-6)
    kept = [l for l in report.kept_levels if l != IDENTITY_LEVEL]
    assert len(kept) == 5
    plan = CompressionPlan(w.levels, 3)
    values = plan.values(tab)
    for drop in kept:
        group = [l for l in kept
                 if (l.n2, l.n3) == (drop.n2, drop.n3)
                 and l.two_sequence() == drop.two_sequence()]
        # the block of the group: its rows are the completions of the
        # 2-sequence with 3 - n2 - n3 insertions
        block = next(b for b in plan.blocks
                     if (b.n2, b.n3, b.two_sequence)
                     == (drop.n2, drop.n3, drop.two_sequence()))
        g = _key_sums(values, block.index)
        column = {plan.levels[p]: j for j, p in enumerate(block.levels)}
        g_full = g[:, [column[l] for l in group]]
        g_rest = g[:, [column[l] for l in group if l != drop]]
        rank_full = np.linalg.matrix_rank(g_full, tol=1e-8)
        rank_rest = np.linalg.matrix_rank(g_rest, tol=1e-8) if g_rest.size else 0
        assert rank_full == rank_rest + 1


@pytest.mark.parametrize("order", [1, 2, 3])
def test_row_compress_order_accuracy_ratio(order):
    # the compressed operator differs from the uncompressed one by
    # O(dt^(N+1)): halving dt must shrink the difference at least by
    # ~2^(N+1) (shrinking faster is allowed; only more accurate)
    ham = modulated_ising()
    n = 4
    diffs = []
    for dt in (0.1, 0.05, 0.025):
        tab = table_for(ham, 0.0, dt, order)
        w = dyson_mpo(ham, tab, order)
        wc, _ = row_compress(w, tol=1e-6)
        diffs.append(np.linalg.norm(wc.to_dense(n) - w.to_dense(n), 2))
    if max(diffs) < 1e-14:
        return  # compression exact for this order
    for d1, d2 in zip(diffs, diffs[1:]):
        assert d1 / d2 > 0.7 * 2 ** (order + 1)


def test_row_compress_idempotent():
    ham = appendix_hamiltonian()
    tab = table_for(ham, 0.1, 0.25, 3)
    w = dyson_mpo(ham, tab, 3)
    once, _ = row_compress(w, tol=1e-6)
    twice, report = row_compress(once, tol=1e-6)
    assert twice.bond_dimension == once.bond_dimension
    assert not report.removed_levels
    got = entries(twice)
    for key, op in entries(once).items():
        np.testing.assert_allclose(got[key], op, atol=1e-14)


def test_row_compress_zero_driving_leaves_identity():
    h = fdmpo.from_terms(2, two_site=[(SZ, SZ)])
    ham = TimeDependentHamiltonian([Channel("c", h, ConstDriving(0.0))])
    tab = table_for(ham, 0.0, 0.3, 2)
    # dyson_mpo makes the bond-1 identity of this table of zeros at once;
    # the power weighted by the table compresses to it as well
    w = PowerPlan(ham, 2).mpo(tab.value)
    w.params["brackets"] = tab
    assert w.bond_dimension > 1
    wc, _ = row_compress(w, tol=1e-10)
    assert wc.bond_dimension == 1
    np.testing.assert_allclose(wc.to_dense(3), np.eye(8), atol=1e-14)


@pytest.mark.parametrize("order,expected", [
    (1, lambda c: 1 + c),
    (2, lambda c: 1 + c + c ** 2),
    (3, lambda c: 1 + 2 * c + c ** 2 + c ** 3),
    (4, lambda c: 1 + 2 * c + 3 * c ** 2 + c ** 3 + c ** 4),
])
@pytest.mark.parametrize("chi", [1, 2])
def test_compress_taylor_bond_dimensions(order, expected, chi):
    two_site = [(SZ, SZ), (SX, SX)][:chi]
    h = fdmpo.from_terms(2, two_site=two_site)
    w = taylor_mpo(h, -0.05j, order)
    wc, _ = row_compress(w)
    assert wc.bond_dimension == expected(chi)


def test_compress_taylor_requires_taylor_mpo():
    # Taylor brackets come from a recorded step; an MPO that carries
    # neither a step nor a bracket table cannot be row-compressed
    ham = modulated_ising()
    tab = table_for(ham, 0.0, 0.1, 1)
    w = dyson_mpo(ham, tab, 1)
    del w.params["brackets"]
    with pytest.raises(ValueError, match="no bracket table"):
        row_compress(w)


def test_compress_taylor_preserves_order_accuracy():
    import scipy.linalg
    h = static_tfi()
    href = h.to_dense(4)
    order = 3
    diffs = []
    for tau in (-0.1j, -0.05j, -0.025j):
        w = taylor_mpo(h, tau, order)
        wc, _ = row_compress(w)
        diffs.append(np.linalg.norm(wc.to_dense(4) - scipy.linalg.expm(tau * href)))
    for d1, d2 in zip(diffs, diffs[1:]):
        assert abs(d1 / d2 - 2 ** (order + 1)) < 0.3 * 2 ** (order + 1)


def test_report_serialization():
    ham = appendix_hamiltonian()
    tab = table_for(ham, 0.1, 0.25, 2)
    w = dyson_mpo(ham, tab, 2)
    _, report = row_compress(w, tol=1e-6)
    text = report.to_text()
    assert "bond dimension" in text and "kept levels" in text
    assert str(report.bond_dimension_after) in text


@pytest.mark.parametrize("model", [modulated_ising, modulated_xxz])
def test_row_compress_evaluates_each_gamma_entry_once(model, monkeypatch):
    # the keys of each (level, row) shape are enumerated once, when the
    # plan is built; a later step of the same plan enumerates none
    ham = model()
    tab = table_for(ham, 0.0, 0.0625, 4)
    mpo = dyson_mpo(ham, tab, 4)
    seen = []
    pattern = levels._weave_pattern

    def counting_pattern(lengths, inserts, at):
        seen.append((tuple(lengths), tuple(inserts)))
        return pattern(lengths, inserts, at)

    monkeypatch.setattr(levels, "_weave_pattern", counting_pattern)
    out, report = row_compress(mpo, tol=1e-12)
    assert report.bond_dimension_after < report.bond_dimension_before
    assert seen
    assert len(set(seen)) == len(seen)
    n_seen = len(seen)
    tab2 = table_for(ham, 0.0625, 0.125, 4)
    row_compress(dyson_mpo(ham, tab2, 4, plan=mpo.params["plan"]), tol=1e-12)
    assert len(seen) == n_seen


_ORDER4_TABLES = {}


def _order4_table(model, interval):
    key = (model.__name__, interval)
    if key not in _ORDER4_TABLES:
        ham = model()
        _ORDER4_TABLES[key] = table_for(ham, *interval, 4)
    return _ORDER4_TABLES[key]


def ising_with_silent_channel():
    """The modulated TFI plus a `yy` coupling whose driving is zero."""
    ham = modulated_ising()
    silent = Channel("yy", fdmpo.from_terms(2, two_site=[(SY, SY)]),
                     ConstDriving(0.0))
    return TimeDependentHamiltonian(list(ham.channels) + [silent])


@pytest.mark.parametrize("tol", [1e-12, 1e-6])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("model", [modulated_ising, modulated_xxz,
                                   ising_with_silent_channel])
def test_plan_compression_matches_literal_fold_bitwise(model, order, tol):
    # one plan serves the three steps, as in a sweep; each compressed MPO
    # equals the per-entry gamma sums and column-by-column merges exactly
    ham = model()
    plan = PowerPlan(ham, order)
    settled_zero = 0
    for interval in [(0.0, 0.0625), (0.1875, 0.25), (0.1, 0.35)]:
        tab = _order4_table(model, interval)
        mpo = dyson_mpo(ham, tab, order, plan=plan)
        out, report = row_compress(mpo, tol=tol)
        ref, ref_report = literal_row_compress(mpo, tol=tol)
        assert out.levels == ref.levels
        assert report.to_text() == ref_report.to_text()
        assert np.array_equal(out.site_tensor(), ref.site_tensor())
        g = _key_sums(plan.compression.values(tab),
                      plan.compression.settled.index)
        settled_zero += int(np.count_nonzero(
            ~(g.real * g.real + g.imag * g.imag).any(axis=(1, 2))))
    assert plan.compression is not None
    if model is ising_with_silent_channel:
        # the plan-settled removals are compared as well
        assert settled_zero > 0


def _without_plan(mpo):
    """`mpo` without its power plan, so that `row_compress` gives it a
    compression plan of its own."""
    params = {k: v for k, v in mpo.params.items() if k != "plan"}
    return ExtensiveMPO(mpo.d, mpo.levels, *mpo.coo(), order=mpo.order,
                        params=params)


def _count_layouts(monkeypatch, power):
    """The kept flags of each layout built for the compression plan of
    the `PowerPlan` `power`, in build order."""
    built = []

    class Counting(compression.Layout):
        def __init__(self, plan, kept, rows, cols):
            if plan is power.compression:
                built.append(kept.copy())
            super().__init__(plan, kept, rows, cols)

    monkeypatch.setattr(compression, "Layout", Counting)
    return built


def test_a_repeated_decision_builds_its_layout_once(monkeypatch):
    # at qr_tol 1e-12 two XXZ order-4 steps keep the same levels: the
    # plan builds the layout at the first and serves the second, and a
    # step compressed again, from it
    ham = modulated_xxz()
    plan = PowerPlan(ham, 4)
    built = _count_layouts(monkeypatch, plan)
    steps = [dyson_mpo(ham, _order4_table(modulated_xxz, interval), 4,
                       plan=plan)
             for interval in [(0.0, 0.0625), (0.1875, 0.25)]]
    first, _ = row_compress(steps[0])
    layout, = plan.compression._layouts.values()
    assert len(built) == 1
    second, report = row_compress(steps[1])
    again, _ = row_compress(steps[0])
    assert len(built) == 1
    assert list(plan.compression._layouts.values()) == [layout]
    assert second.levels == first.levels == report.kept_levels
    assert [a.tobytes() for a in again.coo()] == \
        [a.tobytes() for a in first.coo()]
    ref, ref_report = row_compress(_without_plan(steps[1]))
    assert [a.tobytes() for a in second.coo()] == \
        [a.tobytes() for a in ref.coo()]
    assert report.to_text() == ref_report.to_text()


def test_a_new_block_pattern_builds_a_new_layout(monkeypatch):
    # the decision reads only the brackets, so an MPO with one entry
    # fewer keeps the same levels; its fold still needs its own index
    # arrays, and equals the fold of a plan of its own
    ham = modulated_xxz()
    plan = PowerPlan(ham, 4)
    built = _count_layouts(monkeypatch, plan)
    interval = (0.0, 0.0625)
    mpo = dyson_mpo(ham, _order4_table(modulated_xxz, interval), 4,
                    plan=plan)
    first, _ = row_compress(mpo)
    thinned = ExtensiveMPO(
        mpo.d, mpo.levels, *(a[1:] for a in mpo.coo()), order=mpo.order,
        params=mpo.params)
    out, report = row_compress(thinned)
    assert len(built) == 2
    assert [k.tolist() for k in built[:1]] == [built[1].tolist()]
    ref, ref_report = row_compress(_without_plan(thinned))
    assert [a.tobytes() for a in out.coo()] == \
        [a.tobytes() for a in ref.coo()]
    assert report.to_text() == ref_report.to_text()
    assert out.coo()[2].tobytes() != first.coo()[2].tobytes()


def test_plan_compressions_through_layout_misses_equal_fresh_plans(
        monkeypatch):
    # at qr_tol 1e-6 consecutive XXZ order-4 steps keep different sets, so
    # the plan replaces its layout where the decision changes and reuses
    # it where it repeats; every result is bitwise the one of a plan of
    # its own
    ham = modulated_xxz()
    plan = PowerPlan(ham, 4)
    built = _count_layouts(monkeypatch, plan)
    kept_sets = []
    for step in range(6):
        interval = (step / 16, (step + 1) / 16)
        mpo = dyson_mpo(ham, _order4_table(modulated_xxz, interval), 4,
                        plan=plan)
        out, report = row_compress(mpo, tol=1e-6)
        ref, ref_report = row_compress(_without_plan(mpo), tol=1e-6)
        assert [a.tobytes() for a in out.coo()] == \
            [a.tobytes() for a in ref.coo()]
        assert report.kept_levels == ref_report.kept_levels
        assert report.removed_levels == ref_report.removed_levels
        assert report.fold_residual == ref_report.fold_residual
        kept_sets.append(report.kept_levels)
    changes = sum(a != b for a, b in zip(kept_sets, kept_sets[1:]))
    assert len(built) == 1 + changes
    # both a miss after the first step and a hit occur
    assert 1 < len(built) < len(kept_sets)
    assert [len(k) for k in kept_sets[:2]] == [163, 154]


@pytest.mark.parametrize("tol", [1e-12, 1e-6])
@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("model", [modulated_ising, modulated_xxz])
def test_magnus_compression_matches_literal_fold_bitwise(model, order, tol):
    # a Magnus step is the Dyson step under its own label; one plan serves
    # three intervals and every compressed MPO is the literal one
    ham = model()
    plan = PowerPlan(ham, order)
    for interval in [(0.0, 0.0625), (0.1875, 0.25), (0.1, 0.35)]:
        tab = _order4_table(model, interval)
        mpo = magnus_evolution(ham, tab, order, plan=plan)
        out, report = row_compress(mpo, tol=tol)
        ref, ref_report = literal_row_compress(mpo, tol=tol)
        assert out.levels == ref.levels
        assert report.to_text() == ref_report.to_text()
        assert np.array_equal(out.site_tensor(), ref.site_tensor())
    assert plan.compression is not None


def test_basis_that_cannot_span_raises_naming_the_block(monkeypatch):
    # a greedy subset of the QR's size that picks the smallest residual
    # columns leaves a removed level outside the kept span; the error
    # names the first such block in block order
    ham = modulated_xxz()
    tab = _order4_table(modulated_xxz, (0.1875, 0.25))
    mpo = dyson_mpo(ham, tab, 4)
    greedy = compression._select_new_levels
    chosen = []

    def smallest(residual, tol, ref):
        size = len(greedy(residual, tol, ref))
        norms = np.linalg.norm(residual, axis=0)
        chosen.append(residual)
        return sorted(np.argsort(norms, kind="stable")[:size].tolist())

    monkeypatch.setattr(compression, "_select_new_levels", smallest)
    with pytest.raises(compression.CompressionBasisError) as exc:
        row_compress(mpo, tol=1e-12)
    assert chosen
    named = re.fullmatch(r"group \((\d+),(\d+)\) block (.*): "
                         r"(expansion residual .*|nothing spans .*)",
                         str(exc.value))
    assert named
    blocks = [(b.n2, b.n3, repr(b.two_sequence))
              for b in mpo.params["plan"].compression.blocks]
    assert (int(named[1]), int(named[2]), named[3]) in blocks


def test_greedy_selection_only_where_rank_leaves_a_choice(monkeypatch):
    # the greedy pass runs on blocks whose QR rank lies strictly between
    # 0 and the column count; elsewhere the pivots fix the kept set
    ham = modulated_xxz()
    tab = _order4_table(modulated_xxz, (0.1875, 0.25))
    mpo = dyson_mpo(ham, tab, 4)
    residuals = []
    greedy = compression._select_new_levels

    def recording(residual, tol, ref):
        residuals.append(residual.copy())
        return greedy(residual, tol, ref)

    monkeypatch.setattr(compression, "_select_new_levels", recording)
    out, report = row_compress(mpo, tol=1e-12)
    ref, ref_report = literal_row_compress(mpo, tol=1e-12)
    assert residuals
    assert all(r.shape[1] >= 2 for r in residuals)
    assert len(residuals) < len(mpo.params["plan"].compression.blocks)
    assert out.levels == ref.levels
    assert report.to_text() == ref_report.to_text()
    assert np.array_equal(out.site_tensor(), ref.site_tensor())


def test_greedy_sees_the_residuals_of_a_literal_evaluation(monkeypatch):
    # the batched path factorises its residuals in place; the greedy pass
    # must still receive each block's residual, single-row blocks included
    import helpers

    ham = modulated_xxz()
    tab = _order4_table(modulated_xxz, (0.1875, 0.25))
    mpo = dyson_mpo(ham, tab, 4)
    greedy = compression._select_new_levels
    seen = {"plan": [], "literal": []}

    def recording(side):
        def select(residual, tol, ref):
            seen[side].append(residual.copy())
            return greedy(residual, tol, ref)
        return select

    monkeypatch.setattr(compression, "_select_new_levels", recording("plan"))
    monkeypatch.setattr(helpers, "_select_new_levels", recording("literal"))
    row_compress(mpo, tol=1e-12)
    literal_row_compress(mpo, tol=1e-12)
    assert seen["plan"]
    for r in seen["plan"]:
        assert any(q.shape == r.shape and np.array_equal(q, r)
                   for q in seen["literal"])


def test_single_row_residual_reaches_the_greedy_pass_intact(monkeypatch):
    # a one-row residual stack is contiguous in either axis order, and the
    # pivoted QR must factorise a copy of it, not the residual itself
    values = np.array([3.0j, 2.0 + 1.0j, 1.0, 0.0])
    batch = Batch([0], 0, np.array([[1, 2, 3]]), np.array([[[[0, 1, 2]]]]))
    seen = []

    def recording(residual, tol, ref):
        seen.append(residual.copy())
        return [0]

    monkeypatch.setattr(compression, "_select_new_levels", recording)
    kept = np.ones((1, 4), dtype=bool)
    g, ref = compression._decide(batch, values[None], kept, 1e-12)
    assert len(seen) == 1
    assert np.array_equal(seen[0], values[None, :3])
    assert kept[0].tolist() == [True, True, False, False]
    # the gammas and column scale the fold of levels 2 and 3 reads
    assert np.array_equal(g[0], values[None, None, :3])
    assert ref[0].tolist() == [3.0]


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e-160, 0.0])
def test_column_scale_is_the_largest_column_norm(scale):
    # the rank threshold: bitwise the per-column np.linalg.norm maximum,
    # also for near ties and for squares in or below the subnormal range
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5))
        g /= np.linalg.norm(g, axis=0)
        g *= scale * (1.0 + 1e-15 * rng.integers(-3, 4, size=5))
        expected = max(np.linalg.norm(g[:, j]) for j in range(5))
        assert compression._column_scale(g) == expected


@pytest.mark.parametrize("tol", [math.nan, -1e-12, 1.0, 2.5])
def test_row_compress_rejects_tolerance_outside_unit_interval(tol):
    ham = modulated_ising()
    tab = table_for(ham, 0.0, 0.0625, 2)
    named = re.escape(f"got {tol!r}")
    with pytest.raises(ValueError, match=named):
        row_compress(dyson_mpo(ham, tab, 2), tol=tol)
    with pytest.raises(ValueError, match=named):
        build_step_mpo(ham, tab, 2, qr_tol=tol)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_row_compress_rejects_non_finite_brackets(bad):
    # checked once per step, before any block is factorised
    ham = modulated_ising()
    tab = table_for(ham, 0.0, 0.0625, 2)
    values = dict(tab.values)
    values[("zz", "x")] = complex(bad, 0.0)
    broken = BracketTable(tab.interval, values, tab.max_order)
    # the power build multiplies the infinity by zeros on the way
    with np.errstate(invalid="ignore"):
        mpo = dyson_mpo(ham, broken, 2)
        with pytest.raises(ValueError, match=re.escape("('zz', 'x')")):
            row_compress(mpo)
        with pytest.raises(ValueError, match="not finite"):
            build_step_mpo(ham, broken, 2, qr_tol=1e-12)


def test_compressed_mpo_holds_its_fold_tensor(monkeypatch):
    # the compressed MPO holds the coordinate blocks the fold made, in
    # row-major order and none of them zero; apply_mpo builds its transfer
    # operators from them without a dense site tensor, and coo(),
    # site_tensor() and entries agree exactly
    folded = []
    fold = compression._fold

    def recording(*args):
        folded.append(fold(*args))
        return folded[-1]

    monkeypatch.setattr(compression, "_fold", recording)
    ham = modulated_xxz()
    tab = table_for(ham, 0.0, 0.0625, 3)
    out, _ = row_compress(dyson_mpo(ham, tab, 3))
    rows, cols, blocks = out.coo()
    assert all(a is b for a, b in zip(out.coo(), folded[0]))
    m = out.bond_dimension
    assert np.all(np.diff(rows * m + cols) > 0)
    assert blocks.any(axis=(1, 2)).all()
    site = out.site_tensor()
    assert np.array_equal(site[rows, cols], blocks)
    assert np.count_nonzero(site.any(axis=(2, 3))) == len(rows)
    lv = out.levels
    assert list(entries(out)) == [(lv[a], lv[b]) for a, b in zip(rows, cols)]
    assert all(np.array_equal(op, block)
               for op, block in zip(entries(out).values(), blocks))
    psi = FiniteMPS.random_product(6, rng=5)
    ref = apply_mpo(out, psi, d_max=8)
    fresh = ExtensiveMPO(out.d, out.levels, rows, cols, blocks)

    def no_site_tensor(self):
        raise AssertionError("apply_mpo asked for the dense site tensor")

    monkeypatch.setattr(ExtensiveMPO, "site_tensor", no_site_tensor)
    got = apply_mpo(fresh, psi, d_max=8)
    assert np.array_equal(got[0].to_dense(), ref[0].to_dense())
    assert got[1] == ref[1]


def xxz_with_field():
    """The modulated XXZ plus a driven on-site field: three channels."""
    field = Channel("x", fdmpo.from_terms(2, on_site=SX), COS)
    return TimeDependentHamiltonian(list(modulated_xxz().channels) + [field])


def three_level_longer_range():
    """d = 3, a coupling over a middle-slot chain (A), three channels."""
    rng = np.random.default_rng(1)

    def op():
        return rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))

    h1 = fdmpo.FirstDegreeMPO(3, 2, L={0: op(), 1: op()}, A={(0, 1): op()},
                              R={0: op(), 1: op()}, D=op())
    h2 = fdmpo.FirstDegreeMPO(3, 1, L={0: op()}, R={0: op()})
    h3 = fdmpo.FirstDegreeMPO(3, 0, D=op())
    return TimeDependentHamiltonian([Channel("p", h1, SIN),
                                     Channel("q", h2, ConstDriving(1.0)),
                                     Channel("r", h3, COS)])


def _same_arrays(a, b):
    """Equal lists of arrays: dtype, shape and every element."""
    return len(a) == len(b) and all(
        x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)
        for x, y in zip(a, b))


def _weight(sigma):
    return 0.5 ** len(sigma) * (1 + 1j * sum(map(len, sigma)))


def _loop_scatter_add(out, slot, add):
    for i, s in enumerate(slot.tolist()):
        out[s] += add[i]


@pytest.mark.parametrize("d, n_out, slot", [
    (2, 3, [2, 0, 2, 2, 0, 0, 2, 1, 1]),
    (3, 4, [3, 1, 3, 0, 1]),
    (2, 3, []),
])
def test_scatter_add_adds_in_position_order_bitwise(d, n_out, slot):
    # each entry sums its terms in position order, signed zeros included;
    # the block size comes from `out`, so an empty `slot` is no error
    rng = np.random.default_rng(3)
    slot = np.array(slot, dtype=np.intp)

    def stack(n):
        parts = rng.normal(size=(2, n, d, d)) * 10.0 ** rng.integers(
            -8, 9, size=(2, n, d, d))
        parts[rng.random(parts.shape) < 0.3] = -0.0
        return parts[0] + 1j * parts[1]

    start, add = stack(n_out), stack(len(slot))
    if len(slot):
        # one entry sums nothing but negative zeros
        start[slot[-1]] = add[slot == slot[-1]] = complex(-0.0, -0.0)
    ref = start.copy()
    _loop_scatter_add(ref, slot, add)
    out = start.copy()
    scatter_add(out, slot, add)
    assert out.tobytes() == ref.tobytes()
    if len(slot):
        assert np.signbit(ref[slot[-1]].view(float)).all()
    if len(set(slot.tolist())) < len(slot):
        # the data tells the orders apart
        rev = start.copy()
        _loop_scatter_add(rev, slot[::-1], add[::-1])
        assert rev.tobytes() != ref.tobytes()


@pytest.mark.parametrize("model, order", [
    (model, order) for model in (modulated_ising, modulated_xxz)
    for order in range(1, 6)] + [
    (model, order) for model in (xxz_with_field, three_level_longer_range)
    for order in range(1, 5)])
def test_step_plans_equal_the_literal_builds_bitwise(model, order):
    # the power and its compression plan, built in array passes, equal
    # the power built entry by entry and the keys enumerated per (level,
    # row) pair: levels, entry order and blocks, keys, index arrays,
    # waves and the settled stack
    ham = model()
    plan, ref = PowerPlan(ham, order), literal_power_plan(ham, order)
    mpo = plan.mpo(_weight)
    assert plan.levels == ref.levels and plan.sigmas == ref.sigmas
    assert _same_arrays(plan._fixed + plan._rerouted,
                        ref._fixed + ref._rerouted)
    assert _same_arrays(mpo.coo(), ref.mpo(_weight).coo())
    # levels in an order of their own, so that positions are not trivial
    shuffled = plan.levels[::-1]
    comp = CompressionPlan(shuffled, order)
    lit = literal_compression_plan(shuffled, order)
    assert comp.levels == lit.levels == plan.levels
    assert comp.keys == lit.keys
    assert [(b.n2, b.n3, b.two_sequence, b.n_prior) for b in comp.blocks] \
        == [(b.n2, b.n3, b.two_sequence, b.n_prior) for b in lit.blocks]
    assert _same_arrays(
        [a for b in comp.blocks for a in (b.levels, b.index)],
        [a for b in lit.blocks for a in (b.levels, b.index)])
    assert [[batch.numbers for batch in wave] for wave in comp.waves] == \
        [[batch.numbers for batch in wave] for wave in lit.waves]
    assert _same_arrays(
        [a for wave in comp.waves for batch in wave
         for a in (batch.levels, batch.index)],
        [a for wave in lit.waves for batch in wave
         for a in (batch.levels, batch.index)])
    assert comp.settled.numbers == lit.settled.numbers
    assert _same_arrays(
        [comp.positions, comp.settled.levels, comp.settled.index],
        [lit.positions, lit.settled.levels, lit.settled.index])


@pytest.mark.parametrize("model, order", [
    (model, order) for model in (modulated_ising, modulated_xxz)
    for order in range(1, 6)])
def test_plan_partitions_its_blocks_into_stacks(model, order):
    # read against the plan's block list alone: each block sits in one
    # stack, settled or of one wave and shape, padded with -1
    power = PowerPlan(model(), order)
    power.mpo(_weight)
    plan = CompressionPlan(power.levels, order)
    blocks = plan.blocks
    stacks = [plan.settled] + [batch for wave in plan.waves for batch in wave]
    numbers = [b for stack in stacks for b in stack.numbers]
    assert sorted(numbers) == list(range(len(blocks)))
    for b in plan.settled.numbers:
        assert blocks[b].n_prior == 0 and len(blocks[b].levels) == 1
    wave_n3 = []
    for wave in plan.waves:
        wave_n3.append(blocks[wave[0].numbers[0]].n3)
        for batch in wave:
            shapes = {(blocks[b].n3, blocks[b].n_prior)
                      + blocks[b].index.shape[1:] for b in batch.numbers}
            assert len(shapes) == 1
            n3, n_prior, rows, columns = shapes.pop()
            assert n3 == wave_n3[-1] and batch.n_prior == n_prior
            assert n_prior > 0 or columns > 1
    assert wave_n3 == sorted(set(wave_n3))
    for stack in stacks:
        for k, b in enumerate(stack.numbers):
            depth, rows, columns = blocks[b].index.shape
            assert np.array_equal(stack.levels[k], blocks[b].levels)
            padded = stack.index[:, k].copy()
            assert np.array_equal(padded[:depth, :rows, :columns],
                                  blocks[b].index)
            padded[:depth, :rows, :columns] = -1
            assert (padded == -1).all()
    owner = np.full(len(plan.levels), -1)
    for b, block in enumerate(blocks):
        assert (owner[block.levels[block.n_prior:]] == -1).all()
        owner[block.levels[block.n_prior:]] = b
    assert np.array_equal(plan.block_of, owner)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_compression_plan_below_the_power_order_equals_the_literal(order):
    # levels longer than the compression order take no block
    plan = PowerPlan(modulated_xxz(), 4)
    plan.mpo(_weight)
    comp = CompressionPlan(plan.levels, order)
    lit = literal_compression_plan(plan.levels, order)
    assert comp.keys == lit.keys
    assert [(b.n2, b.n3, b.two_sequence, b.n_prior) for b in comp.blocks] \
        == [(b.n2, b.n3, b.two_sequence, b.n_prior) for b in lit.blocks]
    assert _same_arrays(
        [a for b in comp.blocks for a in (b.levels, b.index)],
        [a for b in lit.blocks for a in (b.levels, b.index)])


def _stack_tables(ham, intervals, order):
    channels = [(c.name, c.driving) for c in ham.channels]
    return BracketTable.compute(channels, [a for a, _ in intervals],
                                [b for _, b in intervals], order)


def _assert_stack_is_one_at_a_time(ham, tables, order, tol):
    """The stacked build of `tables` against a build of each table alone,
    with a plan of its own; returns the stacked reports."""
    stacked = build_step_mpo(ham, tables, order, qr_tol=tol)
    assert len(stacked) == len(tables)
    for table, (mpo, report) in zip(tables, stacked):
        alone, ref = build_step_mpo(ham, table, order, qr_tol=tol)
        assert [a.tobytes() for a in mpo.coo()] == \
            [a.tobytes() for a in alone.coo()]
        assert mpo.bond_dimension == alone.bond_dimension
        if ref is None:
            assert report is None
            continue
        assert report.to_text() == ref.to_text()
        assert report.fold_residual == ref.fold_residual
        assert report.bulk_residual == ref.bulk_residual
    return [report for _, report in stacked]


STACK_STEPS = [(0.0, 0.0625), (0.0625, 0.125), (0.1875, 0.25), (0.1, 0.35)]


@pytest.mark.parametrize("model, order", [
    (modulated_ising, 1), (modulated_ising, 2), (modulated_ising, 3),
    (modulated_ising, 4), (modulated_xxz, 3), (modulated_xxz, 4)])
def test_a_stacked_build_is_bitwise_the_one_at_a_time_build(model, order):
    ham = model()
    tables = _stack_tables(ham, STACK_STEPS, order)
    reports = _assert_stack_is_one_at_a_time(ham, tables, order, 1e-12)
    assert all(r is not None for r in reports)


def test_stacked_steps_that_decide_differently_keep_their_decisions():
    # at qr_tol 1e-6 the XXZ order-4 steps of one stack keep different
    # sets; each is decided in full, as a step alone is
    ham = modulated_xxz()
    steps = [(k / 16, (k + 1) / 16) for k in range(4)]
    reports = _assert_stack_is_one_at_a_time(
        ham, _stack_tables(ham, steps, 4), 4, 1e-6)
    assert len({tuple(r.kept_levels) for r in reports}) > 1


def test_a_stack_of_frozen_taylor_tables_is_bitwise_one_at_a_time():
    ham = modulated_xxz()
    cache = BracketCache(ham)
    tables = [step_table(cache, "taylor", a, b, 3) for a, b in STACK_STEPS]
    _assert_stack_is_one_at_a_time(ham, tables, 3, 1e-12)


def test_an_all_zero_table_in_a_stack_stays_the_identity():
    # the empty interval builds the bond-1 identity, which is not
    # compressed; the stack compresses the other steps around it
    ham = modulated_ising()
    steps = [(0.0, 0.0625), (0.3, 0.3), (0.1875, 0.25)]
    reports = _assert_stack_is_one_at_a_time(
        ham, _stack_tables(ham, steps, 3), 3, 1e-12)
    assert [r is None for r in reports] == [False, True, False]


def test_a_stack_whose_block_patterns_differ_is_one_at_a_time():
    # over whole drive periods some brackets vanish, and the silent
    # channel's never show, so the steps' MPOs differ in their blocks
    ham = ising_with_silent_channel()
    steps = [(0.0, 0.0625), (0.0, 1.0), (0.0, 0.5), (0.25, 0.75)]
    tables = _stack_tables(ham, steps, 3)
    plan = PowerPlan(ham, 3)
    patterns = {tuple(np.concatenate(dyson_mpo(ham, t, 3, plan=plan)
                                     .coo()[:2]).tolist()) for t in tables}
    assert len(patterns) > 1
    for tol in (1e-12, 1e-6):
        _assert_stack_is_one_at_a_time(ham, tables, 3, tol)


def test_each_stack_member_is_folded_by_its_own_call(monkeypatch):
    # the first call solves the stack and folds only its own MPO; the
    # others' solutions wait on the plan until their calls fold them
    ham = modulated_xxz()
    plan = PowerPlan(ham, 3)
    mpos = [dyson_mpo(ham, t, 3, plan=plan)
            for t in _stack_tables(ham, STACK_STEPS, 3)]
    passes = []
    solve_stack = compression._solve_stack
    monkeypatch.setattr(compression, "_solve_stack",
                        lambda *args: passes.append(args[1]) or
                        solve_stack(*args))
    folded = []
    fold = compression._fold
    monkeypatch.setattr(compression, "_fold",
                        lambda mpo, *args: folded.append(mpo) or
                        fold(mpo, *args))
    for k, mpo in enumerate(mpos):
        row_compress(mpo, stack=mpos)
        assert folded == mpos[:k + 1]
        assert len(plan.compression._pending) == len(mpos) - k - 1
    assert passes == [mpos]
    # a stack at another tolerance, or without the MPO, is its own pass
    row_compress(mpos[0], tol=1e-6, stack=mpos)
    assert len(passes) == 2
    with pytest.raises(ValueError, match="does not hold"):
        row_compress(mpos[0], stack=mpos[1:])
    with pytest.raises(ValueError, match="share one power plan"):
        row_compress(mpos[0], stack=[mpos[0], dyson_mpo(
            ham, _stack_tables(ham, STACK_STEPS[:1], 3)[0], 3)])


def test_a_long_stack_is_compressed_in_bounded_passes(monkeypatch):
    # a pass closes once its raw MPOs hold STACK_SLOTS block entries;
    # where the passes fall changes no bit
    ham = modulated_xxz()
    tables = _stack_tables(ham, STACK_STEPS, 3)
    whole = build_step_mpo(ham, tables, 3, qr_tol=1e-12)
    passes = []
    solve_stack = compression._solve_stack
    monkeypatch.setattr(compression, "_solve_stack",
                        lambda *args: passes.append(len(args[1])) or
                        solve_stack(*args))
    size = dyson_mpo(ham, tables[0], 3).coo()[2].size
    monkeypatch.setattr(bench, "STACK_SLOTS", 2 * size)
    parts = build_step_mpo(ham, tables, 3, qr_tol=1e-12)
    assert passes == [2, 2]
    for (mpo, report), (part, part_report) in zip(whole, parts):
        assert [a.tobytes() for a in mpo.coo()] == \
            [a.tobytes() for a in part.coo()]
        assert report.to_text() == part_report.to_text()


def test_a_stack_raises_the_fold_error_of_its_first_failing_step(
        monkeypatch):
    # the greedy subset of the smallest residual columns leaves removed
    # levels outside the kept span; a stack raises what its first
    # failing member raises alone, and leaves no solution waiting
    greedy = compression._select_new_levels

    def smallest(residual, tol, ref):
        size = len(greedy(residual, tol, ref))
        norms = np.linalg.norm(residual, axis=0)
        return sorted(np.argsort(norms, kind="stable")[:size].tolist())

    monkeypatch.setattr(compression, "_select_new_levels", smallest)
    ham = modulated_xxz()
    plan = PowerPlan(ham, 4)
    intervals = [(0.0, 0.0625), (0.1875, 0.25), (0.1, 0.35)]
    mpos = [dyson_mpo(ham, _order4_table(modulated_xxz, interval), 4,
                      plan=plan) for interval in intervals]
    alone = []
    for mpo in mpos:
        with pytest.raises(compression.CompressionBasisError) as exc:
            row_compress(_without_plan(mpo))
        alone.append(str(exc.value))
    assert len(set(alone)) > 1
    for k in range(len(mpos)):
        stack = mpos[k:] + mpos[:k]
        with pytest.raises(compression.CompressionBasisError) as exc:
            row_compress(stack[-1], stack=stack)
        assert str(exc.value) == alone[k]
        assert plan.compression._pending == {}

import math
import re

import numpy as np
import pytest

from helpers import (column_compress, flat_dyson_mpo, flat_taylor_mpo,
                     literal_row_compress)

from dysonmpo import compression, fdmpo
from dysonmpo.bench import build_step_mpo
from dysonmpo.brackets import BracketTable, TaylorBrackets
from dysonmpo.compression import row_compress
from dysonmpo.driving import Channel, ConstDriving, TimeDependentHamiltonian, \
    TrigDriving
from dysonmpo.dyson import dyson_mpo
from dysonmpo.extensive import PowerPlan, RewiredHamiltonian
from dysonmpo.levels import ONE, LevelLabel, three, two
from dysonmpo.magnus import magnus_evolution
from dysonmpo.models import modulated_ising, modulated_xxz, static_tfi
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
    assert set(a.entries) == set(b.entries)
    for key, op in a.entries.items():
        np.testing.assert_allclose(b.entries[key], op, rtol=0, atol=atol)


def test_column_compress_merges_same_history_labels():
    ham = appendix_hamiltonian()
    tab = table_for(ham, 0.1, 0.25, 3)
    flat = flat_dyson_mpo(ham, 0.1, 0.25, 3, tab)
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
    assert_same_mpo(merged, dyson_mpo(ham, 0.1, 0.25, 3, tab))


def test_column_compress_first_order_noop():
    ham = appendix_hamiltonian()
    tab = table_for(ham, 0.0, 0.2, 1)
    w = dyson_mpo(ham, 0.0, 0.2, 1, tab)
    merged, report = column_compress(w)
    assert merged.levels == w.levels
    assert report.bond_dimension_before == report.bond_dimension_after
    assert_same_mpo(merged, w, atol=0.0)
    # at first order the flat power has no 1 symbols to merge either
    assert_same_mpo(flat_dyson_mpo(ham, 0.0, 0.2, 1, tab), w)


@pytest.mark.parametrize("kind", ["taylor", "dyson"])
def test_column_compress_exact_third_order(kind):
    if kind == "taylor":
        flat = flat_taylor_mpo(static_tfi(), -0.09j, 3)
        built = taylor_mpo(static_tfi(), -0.09j, 3)
    else:
        ham = appendix_hamiltonian()
        tab = table_for(ham, 0.05, 0.2, 3)
        flat = flat_dyson_mpo(ham, 0.05, 0.2, 3, tab)
        built = dyson_mpo(ham, 0.05, 0.2, 3, tab)
    merged, _ = column_compress(flat)
    np.testing.assert_allclose(merged.to_dense(4), flat.to_dense(4), atol=1e-13)
    assert merged.bond_dimension < flat.bond_dimension
    assert_same_mpo(merged, built)


def test_row_compress_rejects_flat_mpo():
    # levels that still carry 1 symbols have not been column-merged
    ham = appendix_hamiltonian()
    tab = table_for(ham, 0.05, 0.2, 2)
    with pytest.raises(ValueError, match="1 symbols"):
        row_compress(flat_dyson_mpo(ham, 0.05, 0.2, 2, tab), 2, tol=1e-6)
    with pytest.raises(ValueError, match="1 symbols"):
        row_compress(flat_taylor_mpo(static_tfi(), -0.09j, 2), 2)


def test_row_compress_explicit_linear_combination():
    # the removed level (3_1 2_1) expands as [f1] * (2_1) - (2_1 3_1),
    # and (3_2 2_1) as [f2] * (2_1) - (2_1 3_2)
    ham = appendix_hamiltonian()
    tab = table_for(ham, 0.1, 0.25, 3)
    w = dyson_mpo(ham, 0.1, 0.25, 3, tab)
    _, report = row_compress(w, 3)
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
    w = dyson_mpo(ham, 0.1, 0.25, 3, tab)
    compressed, report = row_compress(w, 3)
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
    w = dyson_mpo(ham, 0.1, 0.25, 3, tab)
    compressed, report = row_compress(w, 3, tol=1e-6)
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
        g = block.gamma(values)
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
        w = dyson_mpo(ham, 0.0, dt, order, tab)
        wc, _ = row_compress(w, order, tol=1e-6)
        diffs.append(np.linalg.norm(wc.to_dense(n) - w.to_dense(n), 2))
    if max(diffs) < 1e-14:
        return  # compression exact for this order
    for d1, d2 in zip(diffs, diffs[1:]):
        assert d1 / d2 > 0.7 * 2 ** (order + 1)


def test_row_compress_idempotent():
    ham = appendix_hamiltonian()
    tab = table_for(ham, 0.1, 0.25, 3)
    w = dyson_mpo(ham, 0.1, 0.25, 3, tab)
    once, _ = row_compress(w, 3, tol=1e-6)
    twice, report = row_compress(once, 3, tol=1e-6)
    assert twice.bond_dimension == once.bond_dimension
    assert not report.removed_levels
    for key, op in once.entries.items():
        np.testing.assert_allclose(twice.entries[key], op, atol=1e-14)


def test_row_compress_zero_driving_leaves_identity():
    h = fdmpo.from_terms(2, two_site=[(SZ, SZ)])
    ham = TimeDependentHamiltonian([Channel("c", h, ConstDriving(0.0))])
    tab = table_for(ham, 0.0, 0.3, 2)
    w = dyson_mpo(ham, 0.0, 0.3, 2, tab)
    wc, _ = row_compress(w, 2, tol=1e-10)
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
    wc, _ = row_compress(w, order)
    assert wc.bond_dimension == expected(chi)


def test_compress_taylor_requires_taylor_mpo():
    # Taylor brackets come from a recorded step; an MPO that carries
    # neither a step nor a bracket table cannot be row-compressed
    ham = modulated_ising()
    tab = table_for(ham, 0.0, 0.1, 1)
    w = dyson_mpo(ham, 0.0, 0.1, 1, tab)
    del w.params["brackets"]
    with pytest.raises(ValueError, match="no bracket table"):
        row_compress(w, 1)


def test_compress_taylor_preserves_order_accuracy():
    import scipy.linalg
    h = static_tfi()
    href = h.to_dense(4)
    order = 3
    diffs = []
    for tau in (-0.1j, -0.05j, -0.025j):
        w = taylor_mpo(h, tau, order)
        wc, _ = row_compress(w, order)
        diffs.append(np.linalg.norm(wc.to_dense(4) - scipy.linalg.expm(tau * href)))
    for d1, d2 in zip(diffs, diffs[1:]):
        assert abs(d1 / d2 - 2 ** (order + 1)) < 0.3 * 2 ** (order + 1)


def test_report_serialization():
    ham = appendix_hamiltonian()
    tab = table_for(ham, 0.1, 0.25, 2)
    w = dyson_mpo(ham, 0.1, 0.25, 2, tab)
    _, report = row_compress(w, 2, tol=1e-6)
    text = report.to_text()
    assert "bond dimension" in text and "kept levels" in text
    assert str(report.bond_dimension_after) in text


@pytest.mark.parametrize("model", [modulated_ising, modulated_xxz])
def test_row_compress_evaluates_each_gamma_entry_once(model, monkeypatch):
    # the keys of each (level, row) entry are enumerated once, when the
    # plan is built; a later step of the same plan enumerates none
    ham = model()
    tab = table_for(ham, 0.0, 0.0625, 4)
    mpo = dyson_mpo(ham, 0.0, 0.0625, 4, tab)
    seen = []
    keys = compression.gamma_keys

    def counting_keys(level, row, order):
        seen.append((level, row))
        return keys(level, row, order)

    monkeypatch.setattr(compression, "gamma_keys", counting_keys)
    out, report = row_compress(mpo, tol=1e-12)
    assert report.bond_dimension_after < report.bond_dimension_before
    assert seen
    assert len(set(seen)) == len(seen)
    n_seen = len(seen)
    tab2 = table_for(ham, 0.0625, 0.125, 4)
    row_compress(dyson_mpo(ham, 0.0625, 0.125, 4, tab2,
                           plan=mpo.params["plan"]), tol=1e-12)
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
    plan = PowerPlan(RewiredHamiltonian.from_hamiltonian(ham), order)
    settled_zero = 0
    for interval in [(0.0, 0.0625), (0.1875, 0.25), (0.1, 0.35)]:
        tab = _order4_table(model, interval)
        mpo = dyson_mpo(ham, *interval, order, tab, plan=plan)
        out, report = row_compress(mpo, order, tol=tol)
        ref, ref_report = literal_row_compress(mpo, order, tol=tol)
        assert out.levels == ref.levels
        assert report.to_text() == ref_report.to_text()
        assert np.array_equal(out.site_tensor(), ref.site_tensor())
        nonzero = plan.compression.settled_nonzero(
            plan.compression.values(tab))
        settled_zero += int(np.count_nonzero(~nonzero))
    assert plan.compression is not None
    if model is ising_with_silent_channel:
        # the plan-settled removals are compared as well
        assert settled_zero > 0


@pytest.mark.parametrize("tol", [1e-12, 1e-6])
@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("model", [modulated_ising, modulated_xxz])
def test_magnus_compression_matches_literal_fold_bitwise(model, order, tol):
    # Magnus steps weight the Dyson plan with other numbers; one plan
    # serves three intervals and every compressed MPO is the literal one
    ham = model()
    plan = PowerPlan(RewiredHamiltonian.from_hamiltonian(ham), order)
    for interval in [(0.0, 0.0625), (0.1875, 0.25), (0.1, 0.35)]:
        tab = _order4_table(model, interval)
        mpo = magnus_evolution(ham, *interval, 2, order, tab, plan=plan)
        out, report = row_compress(mpo, order, tol=tol)
        ref, ref_report = literal_row_compress(mpo, order, tol=tol)
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
    mpo = dyson_mpo(ham, 0.1875, 0.25, 4, tab)
    greedy = compression._select_new_levels
    chosen = []

    def smallest(residual, tol, ref):
        size = len(greedy(residual, tol, ref))
        norms = np.linalg.norm(residual, axis=0)
        chosen.append(residual)
        return sorted(np.argsort(norms, kind="stable")[:size].tolist())

    monkeypatch.setattr(compression, "_select_new_levels", smallest)
    with pytest.raises(compression.CompressionBasisError) as exc:
        row_compress(mpo, 4, tol=1e-12)
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
    mpo = dyson_mpo(ham, 0.1875, 0.25, 4, tab)
    residuals = []
    greedy = compression._select_new_levels

    def recording(residual, tol, ref):
        residuals.append(residual.copy())
        return greedy(residual, tol, ref)

    monkeypatch.setattr(compression, "_select_new_levels", recording)
    out, report = row_compress(mpo, 4, tol=1e-12)
    ref, ref_report = literal_row_compress(mpo, 4, tol=1e-12)
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
    mpo = dyson_mpo(ham, 0.1875, 0.25, 4, tab)
    greedy = compression._select_new_levels
    seen = {"plan": [], "literal": []}

    def recording(side):
        def select(residual, tol, ref):
            seen[side].append(residual.copy())
            return greedy(residual, tol, ref)
        return select

    monkeypatch.setattr(compression, "_select_new_levels", recording("plan"))
    monkeypatch.setattr(helpers, "_select_new_levels", recording("literal"))
    row_compress(mpo, 4, tol=1e-12)
    literal_row_compress(mpo, 4, tol=1e-12)
    assert seen["plan"]
    for r in seen["plan"]:
        assert any(q.shape == r.shape and np.array_equal(q, r)
                   for q in seen["literal"])


def test_single_row_residual_reaches_the_greedy_pass_intact(monkeypatch):
    # a one-row residual stack is contiguous in either axis order, and the
    # pivoted QR must factorise a copy of it, not the residual itself
    class OneRowBatch:
        n_prior = 0
        numbers = [0]
        blocks = [None]
        levels = np.array([[1, 2, 3]])

        def gamma(self, values):
            return np.array([[[3.0j, 2.0 + 1.0j, 1.0]]])

    seen = []

    def recording(residual, tol, ref):
        seen.append(residual.copy())
        return [0]

    monkeypatch.setattr(compression, "_select_new_levels", recording)
    kept = np.ones(4, dtype=bool)
    folds = []
    compression._decide(OneRowBatch(), None, kept, 1e-12, folds)
    assert len(seen) == 1
    assert np.array_equal(seen[0], OneRowBatch().gamma(None)[0])
    assert kept.tolist() == [True, True, False, False]
    assert [f.levels.tolist() for f in folds] == [[1, 2, 3]]


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
        row_compress(dyson_mpo(ham, 0.0, 0.0625, 2, tab), 2, tol=tol)
    with pytest.raises(ValueError, match=named):
        build_step_mpo(ham, 0.0, 0.0625, 2, "dyson", tab, qr_tol=tol)


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
        mpo = dyson_mpo(ham, 0.0, 0.0625, 2, broken)
        with pytest.raises(ValueError, match=re.escape("('zz', 'x')")):
            row_compress(mpo, 2)
        with pytest.raises(ValueError, match="not finite"):
            build_step_mpo(ham, 0.0, 0.0625, 2, "dyson", broken,
                           qr_tol=1e-12)


def test_compressed_mpo_holds_its_fold_tensor():
    # apply_mpo reads the tensor the fold produced, not a copy rebuilt
    # from entries, and the entries derived from it agree
    ham = modulated_ising()
    tab = table_for(ham, 0.0, 0.0625, 3)
    out, _ = row_compress(dyson_mpo(ham, 0.0, 0.0625, 3, tab), 3)
    site = out.site_tensor()
    assert out.site_tensor() is site and not site.flags.writeable
    idx = {lvl: i for i, lvl in enumerate(out.levels)}
    rebuilt = np.zeros_like(site)
    for (a, b), op in out.entries.items():
        rebuilt[idx[a], idx[b]] = op
    assert np.array_equal(rebuilt, site)

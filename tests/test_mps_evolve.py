import math
import re
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse

from helpers import dispatch_rk4, kron_chain, literal_apply_mpo, literal_rk4, \
    numpy_factorisations

from dysonmpo import evolve, modelfile, mps
from dysonmpo.bench import build_step_mpo
from dysonmpo.brackets import BracketTable
from dysonmpo.compression import row_compress
from dysonmpo.driving import Channel, ConstDriving, ExpDriving, PolyDriving, \
    SampledDriving, TimeDependentHamiltonian, TrigDriving
from dysonmpo.dyson import dyson_mpo, identity_mpo
from dysonmpo.evolve import (OPERATOR_CAP, STATE_CAP,
                             exact_evolution_operator, exact_evolve,
                             sparse_operator)
from dysonmpo.extensive import ExtensiveMPO
from dysonmpo.fdmpo import FirstDegreeMPO, from_terms
from dysonmpo.models import modulated_ising, modulated_xxz, static_tfi
from dysonmpo.mps import FiniteMPS, apply_mpo, trace_distance_error
from dysonmpo.spin import SZ, SX
from dysonmpo.taylor import taylor_mpo


def test_mps_product_state_norm():
    psi = FiniteMPS.random_product(5, rng=1)
    assert abs(psi.norm() - 1.0) < 1e-12
    assert psi.bond_dimensions == [1, 1, 1, 1]


@pytest.mark.parametrize("shapes, message", [
    ([], "an MPS needs at least one site"),
    ([(2, 2, 1)], "boundary bonds must have dimension 1"),
    ([(1, 2, 2), (2, 2, 2)], "boundary bonds must have dimension 1"),
    ([(1, 2, 2), (3, 2, 1)], "mismatched internal bonds"),
])
def test_mps_rejects_bad_bonds(shapes, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        FiniteMPS([np.zeros(shape) for shape in shapes])


def test_overlap_needs_chains_of_equal_length():
    with pytest.raises(ValueError, match="^site counts differ$"):
        FiniteMPS.all_up(3).overlap(FiniteMPS.all_up(4))


def test_apply_identity_mpo():
    psi = FiniteMPS.random_product(4, rng=3)
    out, disc = apply_mpo(identity_mpo(2), psi)
    assert abs(abs(out.overlap(psi)) - 1.0) < 1e-12
    assert disc < 1e-20


def test_apply_taylor_matches_dense():
    psi = FiniteMPS.random_product(6, rng=4)
    w = taylor_mpo(static_tfi(), -0.01j, 2)
    out, _ = apply_mpo(w, psi, d_max=64)
    ref = w.to_dense(6) @ psi.to_dense()
    ref /= np.linalg.norm(ref)
    assert abs(abs(np.vdot(out.to_dense(), ref)) - 1.0) < 1e-10


def test_apply_dyson_first_order_on_chain_of_eight():
    ham = modulated_ising()
    tab = BracketTable.compute([(c.name, c.driving) for c in ham.channels],
                               0.0, 0.125, 1)
    w = dyson_mpo(ham, tab, 1)
    psi = FiniteMPS.all_up(8)
    out, _ = apply_mpo(w, psi, d_max=16)
    assert abs(out.norm() - 1.0) < 1e-12
    assert out.max_bond <= 16


def test_apply_dimension_mismatch():
    psi = FiniteMPS.random_product(3, d=2, rng=5)
    w = identity_mpo(3)
    with pytest.raises(ValueError):
        apply_mpo(w, psi)


def test_trace_distance_basics():
    up = FiniteMPS.product_state([[1, 0]])
    down = FiniteMPS.product_state([[0, 1]])
    plus = FiniteMPS.product_state([[1 / math.sqrt(2), 1 / math.sqrt(2)]])
    assert trace_distance_error(up, up) == 0.0
    assert abs(trace_distance_error(up, down) - 1.0) < 1e-14
    assert abs(trace_distance_error(up, plus) - 1 / math.sqrt(2)) < 1e-12


def test_trace_distance_resolves_nearby_states():
    # the overlap form reads up to ~4e-8 for a state against itself; the
    # difference MPS resolves distances down to rounding
    rng = np.random.default_rng(7)
    psi = _random_mps(16, 8, rng)
    assert trace_distance_error(psi, psi) <= 1e-14
    turned = FiniteMPS([np.exp(0.7j) * psi.tensors[0]] + psi.tensors[1:])
    assert trace_distance_error(psi, turned) <= 1e-14
    # in left-canonical form, as apply_mpo's states are, one tensor
    # perturbed by 1e-10 moves the state by a few 1e-10; both evaluations
    # carry about 1e-16 of rounding in delta
    tensors = list(psi.tensors)
    for i in range(15):
        dl, d, dr = tensors[i].shape
        q, r = np.linalg.qr(tensors[i].reshape(dl * d, dr))
        tensors[i] = q.reshape(dl, d, -1)
        tensors[i + 1] = np.tensordot(r, tensors[i + 1], axes=(1, 0))
    tensors[15] = tensors[15] / np.linalg.norm(tensors[15])
    canonical = FiniteMPS(tensors)
    tensors = list(tensors)
    tensors[5] = tensors[5] + 1e-10 * rng.normal(size=tensors[5].shape)
    near = FiniteMPS(tensors)
    a = canonical.to_dense()
    b = near.to_dense()
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    ov = np.vdot(b, a)
    delta = np.linalg.norm(a - ov / abs(ov) * b)
    dense = delta * math.sqrt(1.0 - 0.25 * delta ** 2)
    assert 1e-11 < dense < 1e-9
    assert trace_distance_error(canonical, near) == pytest.approx(
        dense, rel=1e-6, abs=0.0)


def test_exact_evolve_time_independent_matches_expm():
    h = static_tfi()
    ham = TimeDependentHamiltonian([Channel("c", h, ConstDriving(1.0))])
    rng = np.random.default_rng(6)
    psi0 = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi0 /= np.linalg.norm(psi0)
    out = exact_evolve(ham, psi0, 0.0, 0.3, substeps=2000)
    ref = scipy.linalg.expm(-1j * 0.3 * h.to_dense(4)) @ psi0
    assert np.abs(out - ref).max() < 1e-11


def test_exact_evolve_commuting_closed_form():
    hz = from_terms(2, on_site=SZ)
    ham = TimeDependentHamiltonian([Channel("z", hz,
                                            TrigDriving("sin", omega=2 * math.pi))])
    psi0 = np.array([1.0, 1.0]) / math.sqrt(2)
    out = exact_evolve(ham, psi0, 0.0, 0.7, substeps=3000)
    phase = (1 - math.cos(2 * math.pi * 0.7)) / (2 * math.pi)
    ref = scipy.linalg.expm(-1j * phase * SZ) @ psi0
    assert np.abs(out - ref).max() < 1e-10
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def test_exact_evolve_zero_hamiltonian():
    h = from_terms(2, on_site=SX)
    ham = TimeDependentHamiltonian([Channel("c", h, ConstDriving(0.0))])
    psi0 = np.array([0.6, 0.8], dtype=complex)
    out = exact_evolve(ham, psi0, 0.0, 1.0, substeps=100)
    np.testing.assert_allclose(out, psi0, atol=1e-14)


def test_exact_evolution_operator_unitary():
    ham = modulated_ising()
    u = exact_evolution_operator(ham, 3, 0.0, 0.2, substeps=1500)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-10)


ORACLE_MODELS = {"tfi": modulated_ising, "xxz": modulated_xxz}

POLY_SAMPLES_TEXT = """
dim 2
channel zz
driving poly coeffs=[0.3, -1.2, 2.0]
L [[1, 0], [0, -1]]
R [[1, 0], [0, -1]]
end
channel x
driving samples t0=0.05 t1=0.3 values=[0.2, 1.0, -0.5, 0.7]
D [[0, 1], [1, 0]]
end
channel y
driving exp rate=2j amplitude=0.4
D [[0, -1j], [1j, 0]]
end
"""


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("model", sorted(ORACLE_MODELS))
def test_exact_evolve_matches_literal_rk4(model, n):
    ham = ORACLE_MODELS[model]()
    psi0 = FiniteMPS.random_product(n, rng=n).to_dense()
    out = exact_evolve(ham, psi0, 0.1, 0.35, substeps=300)
    ref = literal_rk4(ham, n, psi0, 0.1, 0.35, 300)
    assert np.abs(out - ref).max() <= 1e-14


@pytest.mark.parametrize("n, substeps", [(6, 100), (8, 12)])
@pytest.mark.parametrize("model", sorted(ORACLE_MODELS))
def test_exact_evolution_operator_matches_literal_rk4(model, n, substeps):
    ham = ORACLE_MODELS[model]()
    u = exact_evolution_operator(ham, n, 0.1, 0.35, substeps=substeps)
    ref = literal_rk4(ham, n, np.eye(2 ** n), 0.1, 0.35, substeps)
    assert np.abs(u - ref).max() <= 1e-14


def test_exact_evolve_poly_and_samples_model_matches_literal_rk4():
    ham = modelfile.loads(POLY_SAMPLES_TEXT)
    psi0 = FiniteMPS.random_product(6, rng=3).to_dense()
    # the run crosses every knot of the samples and ends past the last
    out = exact_evolve(ham, psi0, 0.0, 0.4, substeps=400)
    ref = literal_rk4(ham, 6, psi0, 0.0, 0.4, 400)
    assert np.abs(out - ref).max() <= 1e-14
    u = exact_evolution_operator(ham, 4, 0.0, 0.4, substeps=100)
    ref = literal_rk4(ham, 4, np.eye(16), 0.0, 0.4, 100)
    assert np.abs(u - ref).max() <= 1e-14


MODEL_FILES = sorted((Path(__file__).resolve().parent.parent / "demos" /
                      "models").glob("*.model"))
CHANNEL_MODELS = {
    **{path.stem: lambda path=path: modelfile.load(str(path))
       for path in MODEL_FILES},
    **ORACLE_MODELS, "poly_samples": lambda: modelfile.loads(
        POLY_SAMPLES_TEXT)}


@pytest.mark.parametrize("model", sorted(CHANNEL_MODELS))
def test_sparse_operators_equal_the_dense_chain(model):
    ham = CHANNEL_MODELS[model]()
    for ch in ham.channels:
        for n in range(1, 9):
            op = sparse_operator(ch.operator, n)
            dense = ch.operator.to_dense(n)
            assert np.array_equal(op.toarray(), dense)
            assert op.nnz == np.count_nonzero(dense)
        if ch.operator.D is None:  # no one-site term: the zero operator
            assert sparse_operator(ch.operator, 1).nnz == 0


def test_sparse_operators_drop_the_entries_that_cancel():
    # XX + YY: each pair's XX and YY entries coincide, and half cancel
    xy = modulated_xxz().channels[0]
    assert xy.name == "xy"
    assert sparse_operator(xy.operator, 8).nnz == 896


def _random_fdmpo(rng, d=3, chi=2):
    def op():
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return FirstDegreeMPO(
        d, chi, L={k: op() for k in range(chi)},
        A={(i, j): 0.5 * op() for i in range(chi) for j in range(chi)},
        R={k: op() for k in range(chi)}, D=op())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sparse_operators_of_random_mpos_with_chains(seed):
    w = _random_fdmpo(np.random.default_rng(seed))
    for n in range(1, 6):
        op = sparse_operator(w, n)
        dense = w.to_dense(n)
        assert np.abs(op.toarray() - dense).max() <= \
            1e-15 * np.abs(dense).max()
        assert op.nnz == np.count_nonzero(dense)


def test_exact_evolve_field_only_at_twelve_sites():
    # H(t) = f(t) sum_i D_i: every site turns by exp(-i F D), F = int f
    drv = TrigDriving("cos", omega=3.0, offset=0.5)
    phase = math.sin(3.0 * 0.4) / 3.0 + 0.5 * 0.4
    field = 0.7 * SX + 0.3 * SZ
    ham = TimeDependentHamiltonian([Channel(
        "f", from_terms(2, on_site=field), drv)])
    rng = np.random.default_rng(21)
    sites = rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2))
    sites /= np.linalg.norm(sites, axis=1, keepdims=True)
    out = exact_evolve(ham, kron_chain(sites[:, None])[0], 0.0, 0.4,
                      substeps=400)
    turn = scipy.linalg.expm(-1j * phase * field)
    ref = kron_chain((sites @ turn.T)[:, None])[0]
    assert np.abs(out - ref).max() < 1e-10


def test_exact_evolve_zz_only_at_twelve_sites():
    # H(t) = g(t) sum_i Z_i Z_{i+1} is diagonal: psi_z picks up the phase
    # exp(-i G E(z)), G = int g, with E(z) the bond sum of z's spins
    n = 12
    drv = TrigDriving("sin", omega=2 * math.pi, offset=1.0)
    phase = (1.0 - math.cos(2 * math.pi * 0.3)) / (2 * math.pi) + 0.3
    ham = TimeDependentHamiltonian([Channel(
        "zz", from_terms(2, two_site=[(SZ, SZ)]), drv)])
    spins = 1 - 2 * ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1)
    energy = (spins[:, 1:] * spins[:, :-1]).sum(axis=1)
    rng = np.random.default_rng(22)
    psi0 = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    psi0 /= np.linalg.norm(psi0)
    out = exact_evolve(ham, psi0, 0.0, 0.3, substeps=800)
    ref = np.exp(-1j * phase * energy) * psi0
    assert np.abs(out - ref).max() < 1e-10


def test_exact_evolve_takes_states_up_to_the_cap():
    ham = modulated_xxz()
    psi0 = FiniteMPS.random_product(14, rng=14).to_dense()
    assert psi0.size == STATE_CAP
    out = exact_evolve(ham, psi0, 0.0, 0.01, substeps=2)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-8
    with pytest.raises(ValueError, match=f"STATE_CAP = {STATE_CAP}"):
        exact_evolve(ham, np.ones(2 * STATE_CAP), 0.0, 0.25, substeps=10)


@pytest.mark.parametrize("n_sites", [11, 40])
def test_exact_evolution_operator_rejects_before_it_allocates(n_sites,
                                                              monkeypatch):
    # 2**40 columns could not be allocated; nothing is built either
    built = []
    monkeypatch.setattr(evolve, "sparse_operator",
                        lambda *args: built.append(args))
    with pytest.raises(ValueError, match=f"OPERATOR_CAP = {OPERATOR_CAP}"):
        exact_evolution_operator(modulated_ising(), n_sites, 0.0, 0.25,
                                 substeps=10)
    assert not built


BUNDLED_DRIVINGS = [
    ConstDriving(0.7), ConstDriving(1.5 - 0.5j),
    TrigDriving("sin", omega=2 * math.pi),
    TrigDriving("cos", omega=3.1, phase=0.4, amplitude=1.3, offset=2.0),
    TrigDriving("sin", omega=0.0, phase=0.2, offset=-1.0),
    ExpDriving(rate=-0.8, amplitude=2.0), ExpDriving(rate=2j, amplitude=0.4),
    PolyDriving((0.3, -1.2, 2.0)), PolyDriving((1j, 0.5)),
    SampledDriving(0.05, 0.3, (0.2, 1.0, -0.5, 0.7)),
]


@pytest.mark.parametrize("drv", BUNDLED_DRIVINGS, ids=lambda d: d.describe())
def test_driving_on_array_matches_point_by_point(drv):
    # the RK4 oracle evaluates each driving on whole time grids at once
    ts = np.concatenate([np.linspace(-0.2, 0.6, 101), [0.05, 0.3]])
    values = np.asarray(drv(ts), dtype=complex)
    points = np.array([complex(np.asarray(drv(t)).item()) for t in ts])
    assert values.shape == ts.shape
    np.testing.assert_array_max_ulp(values.real, points.real, maxulp=1)
    np.testing.assert_array_max_ulp(values.imag, points.imag, maxulp=1)


@pytest.mark.parametrize("substeps", [0, -5, 2.5, 1000.0, True, False,
                                      "10", None])
def test_oracle_rejects_substeps_below_one(substeps):
    # an int of at least 1: not a bool, a float or anything else
    ham = modulated_ising()
    psi0 = FiniteMPS.all_up(3).to_dense()
    message = re.escape(f"got {substeps!r}")
    with pytest.raises(ValueError, match=message):
        exact_evolve(ham, psi0, 0.0, 0.25, substeps=substeps)
    with pytest.raises(ValueError, match=message):
        exact_evolution_operator(ham, 3, 0.0, 0.25, substeps=substeps)
    with pytest.raises(ValueError, match="an int"):
        evolve.check_oracle(8, substeps)


@pytest.mark.parametrize("size", [3, 6, 12])
def test_exact_evolve_rejects_size_not_power_of_d(size):
    with pytest.raises(ValueError, match=f"state size {size} "):
        exact_evolve(modulated_ising(), np.ones(size), 0.0, 0.25,
                     substeps=10)


@pytest.mark.parametrize("t0, t", [(0.1, 0.35), (0.35, 0.1)],
                         ids=["forward", "backward"])
@pytest.mark.parametrize("n", [4, 8, 10])
@pytest.mark.parametrize("model", sorted(ORACLE_MODELS))
def test_rk4_equals_the_dispatch_loop_bitwise(model, n, t0, t):
    ham = ORACLE_MODELS[model]()
    psi0 = FiniteMPS.random_product(n, rng=n).to_dense()
    out = exact_evolve(ham, psi0, t0, t, substeps=40)
    assert np.array_equal(out, dispatch_rk4(ham, n, psi0, t0, t, 40))
    substeps = 2 if n == 10 else 10  # a 1,024-column block at 10 sites
    u = exact_evolution_operator(ham, n, t0, t, substeps=substeps)
    ref = dispatch_rk4(ham, n, np.eye(2 ** n), t0, t, substeps)
    assert np.array_equal(u, ref)


def test_rk4_backward_undoes_forward():
    ham = modulated_xxz()
    psi0 = FiniteMPS.random_product(6, rng=6).to_dense()
    there = exact_evolve(ham, psi0, 0.1, 0.35, substeps=400)
    back = exact_evolve(ham, there, 0.35, 0.1, substeps=400)
    assert np.abs(back - psi0).max() < 1e-9


def test_rk4_at_t_equal_t0_returns_the_input():
    ham = modulated_ising()
    psi0 = FiniteMPS.random_product(5, rng=5).to_dense()
    out = exact_evolve(ham, psi0, 0.3, 0.3, substeps=10)
    assert np.array_equal(out, psi0) and out is not psi0
    out[0] = 7.0
    assert psi0[0] != 7.0
    u = exact_evolution_operator(ham, 3, 0.3, 0.3, substeps=10)
    assert np.array_equal(u, np.eye(8))


@pytest.mark.parametrize("end", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("which", ["t0", "t"])
def test_oracle_rejects_a_non_finite_interval_end(which, end):
    ham = modulated_ising()
    ends = {"t0": 0.0, "t": 0.25, which: end}
    psi0 = FiniteMPS.all_up(3).to_dense()
    with pytest.raises(ValueError, match=f"interval end {which} = "):
        exact_evolve(ham, psi0, ends["t0"], ends["t"], substeps=10)
    with pytest.raises(ValueError, match=f"interval end {which} = "):
        exact_evolution_operator(ham, 3, ends["t0"], ends["t"], substeps=10)


@pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0, -math.inf)])
@pytest.mark.parametrize("index", [0, 5])
def test_exact_evolve_rejects_a_non_finite_state(entry, index):
    psi0 = FiniteMPS.random_product(3, rng=3).to_dense()
    psi0[index] = entry
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        exact_evolve(modulated_ising(), psi0, 0.0, 0.25, substeps=10)


@pytest.mark.parametrize("size", [0, 1])
def test_exact_evolve_rejects_a_state_below_the_local_dimension(size):
    with pytest.raises(ValueError,
                       match=f"state size {size} is below the local "
                             "dimension 2"):
        exact_evolve(modulated_ising(), np.ones(size), 0.0, 0.25,
                     substeps=10)


@pytest.mark.parametrize("substeps", [np.int64(20), np.int32(20)])
def test_oracle_takes_numpy_integer_substeps(substeps):
    ham = modulated_ising()
    psi0 = FiniteMPS.random_product(3, rng=3).to_dense()
    ref = exact_evolve(ham, psi0, 0.0, 0.25, substeps=20)
    assert np.array_equal(exact_evolve(ham, psi0, 0.0, 0.25, substeps), ref)
    u = exact_evolution_operator(ham, 3, 0.0, 0.25, substeps=substeps)
    assert np.array_equal(u, exact_evolution_operator(ham, 3, 0.0, 0.25, 20))


def test_exact_evolve_raises_where_rk4_is_unstable():
    # three substeps over 1e300 overflow; the overflow warnings come first
    psi0 = np.ones(4)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(ValueError,
                           match=r"over \[0\.0, 1e\+300\] in substeps = 3 "
                                 "gave a non-finite state"):
            exact_evolve(modulated_ising(), psi0, 0.0, 1e300, substeps=3)
    assert any("overflow" in str(w.message) for w in seen)
    assert np.array_equal(psi0, np.ones(4))


@pytest.mark.parametrize("n_sites", [0, -1, 2.5, 2.0, True, False, "3",
                                     None])
def test_exact_evolution_operator_rejects_a_bad_n_sites(n_sites):
    # an int of at least 1, as `mps.check_d_max` takes d_max
    with pytest.raises(ValueError, match="n_sites must be at least 1 and an "
                       f"int .* got {re.escape(repr(n_sites))}"):
        exact_evolution_operator(modulated_ising(), n_sites, 0.0, 0.25,
                                 substeps=10)


def test_exact_evolution_operator_takes_numpy_integer_n_sites():
    ham = modulated_ising()
    u = exact_evolution_operator(ham, np.int64(3), 0.0, 0.25, substeps=20)
    assert np.array_equal(u, exact_evolution_operator(ham, 3, 0.0, 0.25, 20))


def test_csr_kernels_are_bound_from_sparsetools():
    stub = types.ModuleType("stub_sparsetools")
    stub.csr_matvec, stub.csr_matvecs = object(), object()
    assert evolve._bind_csr_kernels(stub) == (stub.csr_matvec,
                                              stub.csr_matvecs)
    assert evolve._CSR_MATVEC is sparse._sparsetools.csr_matvec
    assert evolve._CSR_MATVECS is sparse._sparsetools.csr_matvecs


@pytest.mark.parametrize("missing", ["csr_matvec", "csr_matvecs"])
def test_csr_kernel_binding_names_a_missing_kernel(missing):
    stub = types.ModuleType("stub_sparsetools")
    stub.csr_matvec, stub.csr_matvecs = object(), object()
    delattr(stub, missing)
    with pytest.raises(ImportError) as exc:
        evolve._bind_csr_kernels(stub)
    message = str(exc.value)
    assert f"has no {missing} in SciPy {scipy.__version__}" in message


def test_energy_drift_time_independent():
    # unitarity of the series to truncation order: at order 4 and small dt
    # the energy of the evolved state stays put over 100 steps
    h = static_tfi()
    href = h.to_dense(4)
    w = taylor_mpo(h, -1j * 1e-2, 4)
    psi = FiniteMPS.random_product(4, rng=7)
    e0 = None
    for _ in range(100):
        psi, _ = apply_mpo(w, psi, d_max=16)
        vec = psi.to_dense()
        energy = np.real(vec.conj() @ href @ vec)
        if e0 is None:
            e0 = energy
    assert abs(energy - e0) < 1e-6


def test_exact_regime_commutes_with_dense_application():
    ham = modulated_ising()
    tab = BracketTable.compute([(c.name, c.driving) for c in ham.channels],
                               0.0, 0.1, 2)
    from dysonmpo.dyson import dyson_mpo
    w = dyson_mpo(ham, tab, 2)
    psi = FiniteMPS.random_product(6, rng=8)
    out, _ = apply_mpo(w, psi, d_max=8)  # 8 = d**(L/2) is exact at L=6
    ref = w.to_dense(6) @ psi.to_dense()
    ref /= np.linalg.norm(ref)
    assert 1.0 - abs(np.vdot(out.to_dense(), ref)) < 1e-10


def _dyson_builds(ham, dt, n_steps=4, order=4):
    """``(mpo, report)`` of each step, and the row-compressed MPOs."""
    builds, rows = [], []
    for i in range(n_steps):
        t0, t1 = i * dt, (i + 1) * dt
        tab = BracketTable.compute([(c.name, c.driving) for c in ham.channels],
                                   t0, t1, order)
        builds.append(build_step_mpo(ham, tab, order, qr_tol=1e-12))
        rows.append(row_compress(dyson_mpo(ham, tab, order),
                                 tol=1e-12)[0])
    return builds, rows


@pytest.fixture(scope="module")
def tfi_steps():
    return [w for w, _ in _dyson_builds(modulated_ising(), 0.125)[0]]


@pytest.fixture(scope="module")
def xxz_builds():
    return _dyson_builds(modulated_xxz(), 0.0625)


@pytest.fixture(scope="module")
def xxz_steps(xxz_builds):
    """The order-4 XXZ steps `build_step_mpo` applies (bulk MPOs)."""
    return [w for w, _ in xxz_builds[0]]


@pytest.fixture(scope="module")
def xxz_rows(xxz_builds):
    """The same steps, row-compressed only."""
    return xxz_builds[1]


def _assert_matches_literal(steps, n_sites, d_max):
    psi = ref = FiniteMPS.random_product(n_sites, rng=10 + n_sites)
    for w in steps:
        psi, disc = apply_mpo(w, psi, d_max=d_max)
        ref, disc_ref = literal_apply_mpo(w, ref, d_max=d_max)
        assert psi.bond_dimensions == ref.bond_dimensions
        assert np.abs(psi.to_dense() - ref.to_dense()).max() <= 1e-12
        assert abs(disc - disc_ref) <= 1e-9 * disc_ref + 1e-24
        assert abs(psi.norm() - 1.0) < 1e-12


@pytest.mark.parametrize("n_sites,d_max", [
    (1, None), (2, None), (2, 1), (3, None), (8, None), (8, 4), (9, None),
    (9, 3)])
def test_apply_matches_literal_tfi(tfi_steps, n_sites, d_max):
    assert tfi_steps[0].bond_dimension == 11
    _assert_matches_literal(tfi_steps, n_sites, d_max)


def test_apply_matches_literal_xxz(xxz_builds, xxz_steps):
    assert max(w.bond_dimension for w in xxz_steps) == 35
    reports = [report for _, report in xxz_builds[0]]
    assert max(r.bond_dimension_after for r in reports) == 163
    assert max(r.bond_dimension_bulk for r in reports) == 35
    _assert_matches_literal(xxz_steps, 8, 16)


def _random_mps(n, chi, rng, d=2):
    """Random MPS with bonds ``min(d^i, chi, d^(n-i))``."""
    bonds = [min(d ** i, chi, d ** (n - i)) for i in range(n + 1)]
    return FiniteMPS([rng.normal(size=(bonds[i], d, bonds[i + 1]))
                      + 1j * rng.normal(size=(bonds[i], d, bonds[i + 1]))
                      for i in range(n)])


class _QRCalls(list):
    """Shapes of the matrices passed to `linalg.qr`; `modes` holds the
    mode of each call."""

    def __init__(self):
        super().__init__()
        self.modes = []


@pytest.fixture
def qr_shapes(monkeypatch):
    """Shapes of the matrices `mps` passes to `linalg.qr` during the test."""
    shapes = _QRCalls()
    qr = mps.qr

    def recording_qr(a, *args, **kwargs):
        shapes.append(a.shape)
        shapes.modes.append(kwargs.get("mode", args[0] if args else
                                       "reduced"))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(mps, "qr", recording_qr)
    return shapes


def test_apply_factorises_no_matrix_wider_than_half_chain(tfi_steps,
                                                         qr_shapes):
    # the raw product of an order-4 TFI step (bond 11) and a bond-32 MPS
    # has bond 352; no factorised matrix may have both sides above the
    # Hilbert space dimension of half the chain
    n, chi, d = 16, 32, 2
    psi = _random_mps(n, chi, np.random.default_rng(11))
    assert psi.max_bond == chi
    out, _ = apply_mpo(tfi_steps[0], psi, d_max=chi)
    assert qr_shapes
    assert max(min(shape) for shape in qr_shapes) <= d ** (n // 2)
    assert out.max_bond == chi


def test_apply_factorises_wide_matrices_only_where_cheap(tfi_steps,
                                                        qr_shapes):
    # a QR of a matrix no taller than it is wide yields a square unitary
    # that shrinks no bond; the left and right steps take it (as the QR of
    # the leading square block) only while it costs no more than the
    # contraction that formed the matrix, which bounds its rows by
    # chi + D_w*d (the 256x480 matrix at site 7 of this chain is carried raw)
    n, chi, d = 16, 32, 2
    dw = tfi_steps[0].bond_dimension
    psi = _random_mps(n, chi, np.random.default_rng(11))
    out, _ = apply_mpo(tfi_steps[0], psi, d_max=chi)
    wide = [shape for shape in qr_shapes if shape[0] <= shape[1]]
    assert wide
    assert all(rows <= chi + dw * d for rows, _ in wide), wide
    assert out.max_bond == chi


@pytest.mark.parametrize("d_max", [None, 3])
def test_apply_matches_literal_skipped_and_factorised_steps(qr_shapes, d_max):
    # MPO bond 2 on MPS bond 16: the steps nearest the chain ends are wide
    # and cheap to factorise, the next ones are wide and costlier to
    # factorise than to form and skip it, the inner ones are tall
    ham = modulated_ising()
    tab = BracketTable.compute([(c.name, c.driving) for c in ham.channels],
                               0.0, 0.125, 1)
    w = dyson_mpo(ham, tab, 1)
    assert w.bond_dimension == 2
    n = 12
    psi = _random_mps(n, 16, np.random.default_rng(13))
    out, disc = apply_mpo(w, psi, d_max=d_max)
    # every site but the centre n // 2 takes one left or right step; the
    # Gram factors right of the centre take n - 1 - n // 2 more calls, and
    # form no Q
    step_qrs = len(qr_shapes) - (n - 1 - n // 2)
    assert 0 < step_qrs < n - 1
    assert qr_shapes.modes[:step_qrs] == ["reduced"] * step_qrs
    assert qr_shapes.modes[step_qrs:] == ["r"] * (n - 1 - n // 2)
    assert any(rows <= cols for rows, cols in qr_shapes[:step_qrs])
    ref, disc_ref = literal_apply_mpo(w, psi, d_max=d_max)
    assert out.bond_dimensions == ref.bond_dimensions
    assert np.abs(out.to_dense() - ref.to_dense()).max() <= 1e-12
    assert abs(disc - disc_ref) <= 1e-9 * disc_ref + 1e-24
    assert abs(out.norm() - 1.0) < 1e-12


@pytest.mark.parametrize("d_max", [None, 16])
@pytest.mark.parametrize("case", ["tfi_8", "tfi_16", "xxz_bulk_8"])
def test_apply_is_bitwise_that_of_numpy_and_scipy_factorisations(
        tfi_steps, xxz_steps, monkeypatch, case, d_max):
    # linalg.qr and linalg.svd_truncate_v skip the numpy and SciPy wrappers
    # but not their LAPACK calls: every byte of the applied state and the
    # discarded weight must come out the same with the wrappers back in
    model, n = case.rsplit("_", 1)
    w = (xxz_steps if model == "xxz_bulk" else tfi_steps)[0]
    psi = _random_mps(int(n), 32, np.random.default_rng(5)).normalized()
    outs = [apply_mpo(w, psi, d_max=d_max)]
    with monkeypatch.context() as patch:
        numpy_factorisations(patch)
        outs.append(apply_mpo(w, psi, d_max=d_max))
    (out, disc), (ref, disc_ref) = outs
    assert out.bond_dimensions == ref.bond_dimensions
    assert [t.tobytes() for t in out.tensors] == \
        [t.tobytes() for t in ref.tensors]
    assert disc == disc_ref


def _assert_right_canonical(psi):
    """Sites 1 .. n-1 are right isometries and site 0 holds the unit norm."""
    for t in psi.tensors[1:]:
        m = t.reshape(t.shape[0], -1)
        assert np.abs(m @ m.conj().T - np.eye(len(m))).max() <= 1e-12
    assert abs(np.linalg.norm(psi.tensors[0]) - 1.0) <= 1e-12


@pytest.mark.parametrize("steps, n_sites, d_max", [
    ("tfi_steps", 9, None), ("tfi_steps", 8, 4), ("xxz_steps", 8, 16)])
def test_apply_returns_right_canonical_form(steps, n_sites, d_max, request):
    psi = FiniteMPS.random_product(n_sites, rng=n_sites)
    for w in request.getfixturevalue(steps):
        assert w.order == 4
        psi, _ = apply_mpo(w, psi, d_max=d_max)
        _assert_right_canonical(psi)


def test_apply_matches_literal_with_identity_sites_on_both_sides(
        tfi_steps, monkeypatch):
    # an order-4 TFI step (bond 11) on a bond-16 MPS of 13 sites: both
    # inward sweeps carry sites as identity isometries, and d_max = 8 cuts
    # the exact product's bonds on both sides of the centre
    skipped = []
    for name in ("_left_step", "_right_step"):
        def recording(*args, step=getattr(mps, name), name=name):
            q, r = step(*args)
            if q is None:
                skipped.append(name)
            return q, r
        monkeypatch.setattr(mps, name, recording)
    w, n, d_max = tfi_steps[0], 13, 8
    psi = _random_mps(n, 16, np.random.default_rng(17))
    out, disc = apply_mpo(w, psi, d_max=d_max)
    assert set(skipped) == {"_left_step", "_right_step"}
    exact = literal_apply_mpo(w, psi)[0].bond_dimensions
    assert max(exact[:n // 2]) > d_max and max(exact[n // 2:]) > d_max
    ref, disc_ref = literal_apply_mpo(w, psi, d_max=d_max)
    assert out.bond_dimensions == ref.bond_dimensions
    assert np.abs(out.to_dense() - ref.to_dense()).max() <= 1e-12
    assert abs(disc - disc_ref) <= 1e-9 * disc_ref + 1e-24
    _assert_right_canonical(out)


@pytest.mark.parametrize("d_max", [0, -1])
def test_apply_rejects_d_max_below_one(d_max):
    psi = FiniteMPS.random_product(4, rng=12)
    w = taylor_mpo(static_tfi(), -0.01j, 2)
    with pytest.raises(ValueError, match="max_rank"):
        apply_mpo(w, psi, d_max=d_max)


@pytest.mark.parametrize("d_max", [2.5, True, np.float64(2.0)])
@pytest.mark.parametrize("seed", [0, 2])
def test_apply_rejects_a_d_max_that_is_not_an_int(d_max, seed):
    # a float reached the SVD sweep only as a slice bound, and failed
    # there or not at all; a bool was taken as 1
    psi = (FiniteMPS.random_product(6, rng=seed) if seed
           else FiniteMPS.all_up(6))
    w = taylor_mpo(static_tfi(), -0.01j, 2)
    with pytest.raises(ValueError, match=f"got {re.escape(repr(d_max))}"):
        apply_mpo(w, psi, d_max=d_max)


@pytest.mark.parametrize("site", [0, 3, 4, 7])
def test_apply_rejects_a_state_with_a_nan_entry(tfi_steps, site):
    # the truncating sweep's SVD checks its input; nothing is returned
    psi = _random_mps(8, 8, np.random.default_rng(19))
    psi.tensors[site][0, 1, 0] = np.nan
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        apply_mpo(tfi_steps[0], psi, d_max=4)


@pytest.mark.parametrize("n, site, value", [(1, 0, np.nan), (8, 5, np.inf),
                                            (16, 9, np.nan)])
def test_apply_rejects_a_non_finite_state_before_it_runs(tfi_steps, n, site,
                                                          value):
    # one site never reaches an SVD, and an inf fails in a product first
    psi = _random_mps(n, 8, np.random.default_rng(23))
    psi.tensors[site][0, 1, 0] = value
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        apply_mpo(tfi_steps[0], psi, d_max=4)


def test_empty_mps_raises():
    with pytest.raises(ValueError, match="at least one site"):
        FiniteMPS([])


def _fresh(w):
    """A copy of `w` that has built no transfer operators."""
    return ExtensiveMPO(
        w.d, w.bond_dimension if w.levels is None else w.levels, *w.coo(),
        order=w.order, params=w.params, boundary=w.boundary)


def test_transfer_operators_are_the_site_tensor(tfi_steps, xxz_steps):
    # left maps (a, p) to (b, s), right (b, p) to (a, s), of W[a, b, s, p]
    for w in (tfi_steps[0], xxz_steps[0]):
        n = w.bond_dimension * w.d
        site = w.site_tensor()
        left, right = _fresh(w).transfer()
        assert np.array_equal(left, site.transpose(1, 2, 0, 3).reshape(n, n))
        assert np.array_equal(right,
                              site.transpose(0, 2, 1, 3).reshape(n, n))


def test_second_apply_reuses_the_transfer_operators(xxz_rows):
    # the row-compressed order-4 XXZ step (bond 163) applies as it is
    w = _fresh(xxz_rows[0])
    assert w._transfer is None
    psi = FiniteMPS.random_product(8, rng=3)
    first, disc = apply_mpo(w, psi, d_max=16)
    ops = w.transfer()
    assert [op.shape for op in ops] == [(326, 326)] * 2
    again, disc_again = apply_mpo(w, psi, d_max=16)
    assert w.transfer() is ops
    assert np.array_equal(first.to_dense(), again.to_dense())
    assert disc == disc_again

"""Fixtures shared by the test modules."""

from types import SimpleNamespace
from unittest import mock

import pytest
from helpers import coo_digest

from dysonmpo import bench
from dysonmpo.bench import EvolutionConfig, run_benchmark
from dysonmpo.models import modulated_ising

CRITERION_1_CONFIG = EvolutionConfig(
    n_sites=8, t0=0.0, t_final=1.0, method="dyson", d_max=16,
    orders=(1, 2, 3, 4),
    dts=(0.0625, 0.03125, 0.015625, 0.0078125, 0.00390625),
    oracle_substeps=4000, qr_tol=1e-12)


@pytest.fixture(scope="session")
def criterion1_sweep():
    """Criterion 1's Dyson sweep, run once per session.

    8-site modulated TFI, orders 1-4, five step sizes, against RK4.
    `records` are its records; `steps` holds ``(args, kwargs, digest)``
    of every `dyson_mpo` call the sweep made, with the `coo_digest` of
    the uncompressed step MPO it returned.
    """
    steps = []
    original = bench.dyson_mpo

    def recording(*args, **kwargs):
        mpo = original(*args, **kwargs)
        steps.append((args, kwargs, coo_digest(mpo)))
        return mpo

    with mock.patch.object(bench, "dyson_mpo", recording):
        records = run_benchmark(modulated_ising(), CRITERION_1_CONFIG)
    return SimpleNamespace(config=CRITERION_1_CONFIG, records=records,
                           steps=steps)

"""tools/records_digest.py on canned records; no sweep runs."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

from dysonmpo import bench
from dysonmpo.bench import ErrorRecord

_PATH = Path(__file__).resolve().parents[1] / "tools" / "records_digest.py"
_SPEC = importlib.util.spec_from_file_location("records_digest", _PATH)
records_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(records_digest)

RECORDS = [
    ErrorRecord("dyson", 2, 0.125, 3.25e-4, 0.0041, 11, 16, 1,
                mpo_bond_before=15, fold_residual=1.5e-15,
                mpo_builds=2, discarded_weight=2.0e-9, bracket_s=0.0012,
                build_s=0.002, apply_s=0.001, plan_s=0.0003,
                mpo_blocks=40, n_steps=2),
    ErrorRecord("dyson", 4, 0.0625, 1.0e-7, 0.0093, 35, 16, 1,
                mpo_bond_before=163, bulk_residual=2.5e-14,
                mpo_builds=4, n_steps=4),
]


def _digest(records):
    return records_digest.digest(records, bench.UNTIMED_FIELDS)


def test_digest_ignores_the_timed_fields():
    moved = [dataclasses.replace(r, wall_time_per_step=1.0, bracket_s=2.0,
                                 build_s=3.0, apply_s=4.0, plan_s=5.0)
             for r in RECORDS]
    assert _digest(moved) == _digest(RECORDS)


def test_digest_sees_every_untimed_field():
    base = _digest(RECORDS)
    for name in bench.UNTIMED_FIELDS:
        value = getattr(RECORDS[1], name)
        changed = "taylor" if isinstance(value, str) else value + 1
        moved = [RECORDS[0], dataclasses.replace(RECORDS[1], **{name: changed})]
        assert _digest(moved) != base, name


def test_digest_tells_apart_the_last_bit_and_not_the_number_type():
    eps = RECORDS[0].epsilon
    ulp = [dataclasses.replace(RECORDS[0], epsilon=np.nextafter(eps, 1.0))]
    assert _digest(ulp) != _digest(RECORDS[:1])
    # a numpy scalar of the same value gives the same digest
    typed = [dataclasses.replace(RECORDS[0], epsilon=np.float64(eps),
                                 mpo_bond_dim=np.int64(11))]
    assert _digest(typed) == _digest(RECORDS[:1])


def test_digest_depends_on_record_order():
    assert _digest(RECORDS[::-1]) != _digest(RECORDS)
    assert len(_digest(RECORDS)) == 64

"""tools/records_digest.py on canned records; no sweep runs."""

import dataclasses
import importlib.util
import sys
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


SAVED = ["tfi_sweep seed=1 qr_tol=1e-12 " + "a" * 64,
         "tfi_sweep seed=1 qr_tol=1e-06 " + "b" * 64,
         "xxz_wide seed=1 qr_tol=1e-12 " + "c" * 64]


def test_differences_name_the_saved_and_the_new_line():
    assert records_digest.differences(SAVED, SAVED) == []
    moved = [SAVED[0], SAVED[1][:-1] + "d", SAVED[2]]
    assert records_digest.differences(moved, SAVED) == [
        f"- {SAVED[1]}", f"+ {moved[1]}"]
    # a run that lost a line, or made one more, differs too
    assert records_digest.differences(SAVED[:2], SAVED) == [f"- {SAVED[2]}"]
    assert records_digest.differences(SAVED + ["extra"], SAVED) == ["+ extra"]


def test_against_exits_with_1_exactly_when_a_line_differs(
        tmp_path, monkeypatch, capsys):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    saved = tmp_path / "digest.txt"
    saved.write_text("\n".join(SAVED) + "\n\n")
    runs = iter([SAVED, SAVED[:1] + [SAVED[1][:-1] + "d"] + SAVED[2:]])
    monkeypatch.setattr(records_digest, "lines",
                        lambda checkout, bench, modelfile: next(runs))
    assert records_digest.main(["--against", str(saved)]) == 0
    assert capsys.readouterr().out == ""
    assert records_digest.main(["--against", str(saved)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"- {SAVED[1]}", f"+ {SAVED[1][:-1]}d"]

import argparse
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from helpers import count_tables

from dysonmpo import modelfile
from dysonmpo.bench import EvolutionConfig, evolve_state, run_benchmark
from dysonmpo.cli import build_parser, main
from dysonmpo.driving import (Channel, ConstDriving, DrivingFunction,
                              ExpDriving, PolyDriving, SampledDriving,
                              TimeDependentHamiltonian, TrigDriving)
from dysonmpo.fdmpo import FirstDegreeMPO, from_terms, nondisjoint_product
from dysonmpo.models import modulated_ising, modulated_xxz
from dysonmpo.mps import FiniteMPS
from dysonmpo.spin import SX, SZ

TFI_TEXT = """
# modulated transverse-field Ising chain
dim 2
channel zz
driving sin omega=6.283185307179586
L [[1, 0], [0, -1]]
R [[1, 0], [0, -1]]
end
channel x
driving cos omega=6.283185307179586
D [[0, 1], [1, 0]]
end
"""


def test_loads_modulated_tfi():
    ham = modelfile.loads(TFI_TEXT)
    assert [c.name for c in ham.channels] == ["zz", "x"]
    ref = modulated_ising()
    for t in (0.0, 0.3, 0.77):
        np.testing.assert_allclose(ham.to_dense(3, t), ref.to_dense(3, t),
                                   atol=1e-13)


@pytest.mark.parametrize("operator", [
    FirstDegreeMPO(2, 2, L={0: SZ, 1: SX}, R={0: SZ}),
    nondisjoint_product(from_terms(2, two_site=[(SZ, SZ)], on_site=SX),
                        from_terms(2, two_site=[(SZ, SZ)]))],
    ids=["no-R-1", "product"])
def test_dumps_writes_an_empty_slot_as_zero(operator):
    # L and R lines fill consecutive slots, so an absent slot is written
    # as the zero matrix
    ham = TimeDependentHamiltonian(
        [Channel("h", operator, TrigDriving("cos", omega=3.0))])
    assert set(operator.L) != set(operator.R)
    back = modelfile.loads(modelfile.dumps(ham))
    for t in (0.0, 0.4):
        np.testing.assert_array_equal(back.to_dense(3, t), ham.to_dense(3, t))


def every_driving_kind():
    """A Hamiltonian with one channel per driving kind a model file names."""
    zz = from_terms(2, two_site=[(SZ, SZ)])
    x = from_terms(2, on_site=SX)
    drivings = [ConstDriving(0.5),
                TrigDriving("sin", omega=3.0, phase=0.2, amplitude=1.5,
                            offset=0.1),
                TrigDriving("cos", omega=2.0),
                ExpDriving(rate=-0.5 + 1j, amplitude=0.3),
                PolyDriving((0.1, -0.2, 0.3j)),
                SampledDriving(0.0, 1.0, (0.0, 1.0, -0.5))]
    return TimeDependentHamiltonian([
        Channel(f"c{i}", (zz, x)[i % 2], drv)
        for i, drv in enumerate(drivings)])


def test_roundtrip_through_dumps():
    for ham in (modulated_ising(), modulated_xxz(), every_driving_kind()):
        back = modelfile.loads(modelfile.dumps(ham))
        assert [c.name for c in back.channels] == \
            [c.name for c in ham.channels]
        assert [c.driving for c in back.channels] == \
            [c.driving for c in ham.channels]
        np.testing.assert_allclose(back.to_dense(3, 0.4), ham.to_dense(3, 0.4),
                                   atol=1e-13)


def test_dumps_writes_each_driving_kind_with_every_key():
    # one line per kind, its keys in the order the kind table lists them
    lines = [line for line in modelfile.dumps(every_driving_kind())
             .splitlines() if line.startswith("driving")]
    assert lines == [
        "driving const value=0.5",
        "driving sin omega=3.0 phase=0.2 amplitude=1.5 offset=0.1",
        "driving cos omega=2.0 phase=0.0 amplitude=1.0 offset=0.0",
        "driving exp rate=(-0.5+1j) amplitude=0.3",
        "driving poly coeffs=[(0.1+0j), (-0.2+0j), 0.3j]",
        "driving samples t0=0.0 t1=1.0 values=[0.0, 1.0, -0.5]"]
    assert sorted(modelfile.DRIVING_KINDS) == sorted(
        line.split()[1] for line in lines)


def test_dumps_rejects_a_driving_without_a_kind():
    class Square(DrivingFunction):
        def __call__(self, t):
            return np.asarray(t) ** 2

    ham = TimeDependentHamiltonian([
        Channel("sq", from_terms(2, on_site=SX), Square())])
    with pytest.raises(modelfile.ModelFileError,
                       match="cannot serialize driving"):
        modelfile.dumps(ham)


def test_longer_range_and_complex_entries():
    text = """
dim 2
channel decay
driving const value=1.0
L [[1, 0], [0, -1]]
A 0 0 [[0.5, 0], [0, 0.5]]
R [[0, 1j], [-1j, 0]]
end
"""
    ham = modelfile.loads(text)
    op = ham.channels[0].operator
    assert op.chi == 1 and (0, 0) in op.A
    assert op.R[0][0, 1] == 1j


def test_sampled_driving():
    text = """
dim 2
channel c
driving samples t0=0.0 t1=1.0 values=[0.0, 1.0, 0.0]
D [[1, 0], [0, -1]]
end
"""
    ham = modelfile.loads(text)
    f = ham.channels[0].driving
    assert abs(f(0.25) - 0.5) < 1e-14


@pytest.mark.parametrize("bad", [
    "channel x\nD [[0,1],[1,0]]\nend",          # dim missing
    "dim 2\nD [[0,1],[1,0]]",                   # operator outside channel
    "dim 2\nchannel a\nL [[1,0],[0,1]]\nend",   # L without R
    "dim 2\nchannel a\nwhat now\nend",          # unknown directive
    "dim 2\nchannel a\ndriving samples t0=1.0 t1=0.0\nend",  # t1 <= t0
    "dim 2\nchannel a\ndriving samples values=[1j, 2.0]\nend",  # complex
    "dim 2\nchannel a\ndriving sin omega=1e999\nend",  # infinite rate
    "dim 2\nchannel a\ndriving samples t0=0 t1=1e999\nend",  # infinite end
])
def test_parse_errors(bad):
    with pytest.raises(modelfile.ModelFileError):
        modelfile.loads(bad)


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "tfi.model"
    path.write_text(TFI_TEXT)
    return str(path)


def test_cli_build_mpo(model_path, capsys):
    assert main(["build-mpo", "--model", model_path, "--method", "dyson",
                 "--order", "2", "--t0", "0.0", "--t", "0.125",
                 "--qr-tol", "1e-6", "--report"]) == 0
    out = capsys.readouterr().out
    assert "bond dimension" in out
    assert "kept levels" in out


def test_cli_build_mpo_no_compress(model_path, capsys):
    assert main(["build-mpo", "--model", model_path, "--order", "1",
                 "--t", "0.1", "--no-compress"]) == 0
    out = capsys.readouterr().out
    assert "bond dimension: 2" in out


def test_cli_reads_negative_exponent_values(model_path, capsys):
    # "-1e-3" is a value, as "-1" is
    assert main(["build-mpo", "--model", model_path, "--order", "1",
                 "--t0", "-1e-3", "--t", "0.1", "--no-compress"]) == 0
    assert "interval=[-0.001, 0.1]" in capsys.readouterr().out


def test_cli_build_mpo_magnus(model_path, capsys):
    # a Magnus step is the Dyson step bitwise, so "magnus" selects no path
    # of its own and is no method choice
    for command in (["build-mpo", "--order", "2"], ["bench"]):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--model", model_path, "--method", "magnus"])
        assert exc.value.code == 2
        assert "invalid choice: 'magnus' (choose from 'taylor', 'dyson')" \
            in capsys.readouterr().err


def test_cli_build_mpo_reads_the_method_only_for_the_table(capsys):
    # the method chooses the table; the step is built the same way
    model = str(Path(__file__).resolve().parents[1] / "demos" / "models"
                / "modulated_tfi.model")

    def run(method):
        assert main(["build-mpo", "--model", model, "--method", method,
                     "--order", "3", "--report"]) == 0
        header, *rest = capsys.readouterr().out.splitlines()
        assert header.startswith(f"method={method} ")
        return header.removeprefix(f"method={method} "), rest

    assert run("dyson")[0] == run("taylor")[0]


@pytest.mark.parametrize("method,orders", [("dyson", [3]), ("taylor", [])])
def test_cli_build_mpo_table_order(model_path, method, orders, monkeypatch,
                                   capsys):
    computed = count_tables(monkeypatch)
    assert main(["build-mpo", "--model", model_path, "--method", method,
                 "--order", "3", "--t", "0.125"]) == 0
    assert "bond dimension" in capsys.readouterr().out
    assert computed == orders


def test_cli_integrate(model_path, capsys):
    assert main(["integrate", "--model", model_path, "--t0", "0.0",
                 "--t", "0.25", "--max-order", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "channels,real,imag"
    assert len(lines) == 1 + 2 + 4
    row = dict()
    for line in lines[1:]:
        key, re_s, im_s = line.split(",")
        row[key] = complex(float(re_s), float(im_s))
    expected = -1j * (1 - math.cos(2 * math.pi * 0.25)) / (2 * math.pi)
    assert abs(row["zz"] - expected) < 1e-14


def test_cli_bench_writes_csv(model_path, tmp_path, capsys):
    out_path = tmp_path / "bench.csv"
    assert main(["bench", "--model", model_path, "--orders", "1",
                 "--dts", "0.25,0.125", "--sites", "4", "--substeps", "400",
                 "--out", str(out_path)]) == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].startswith("# seed=")
    assert lines[1] == ("method,order,dt,epsilon,wall_time_per_step_s,"
                        "mpo_bond_dim,mps_bond_dim,seed,mpo_bond_before,"
                        "fold_residual,bulk_residual,mpo_builds,"
                        "discarded_weight,bracket_s,build_s,apply_s,plan_s,"
                        "mpo_blocks")
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 2
    eps = [float(r[3]) for r in rows]
    assert eps[0] > eps[1] > 0  # error decreases with dt


@pytest.mark.parametrize("dim", ["0", "-2"])
def test_dim_below_one_is_rejected(dim):
    with pytest.raises(modelfile.ModelFileError,
                       match=f"dim must be at least 1, got {dim}"):
        modelfile.loads(TFI_TEXT.replace("dim 2", f"dim {dim}"))


@pytest.mark.parametrize("text, line, message", [
    ("dim 2\n\ndim 0\n", 3, "dim must be at least 1, got 0"),
    ("dim 2\nchannel a\nwhat now\nend\n", 3, "unknown directive 'what'"),
    ("# no channel yet\ndim 2\nD [[0, 1], [1, 0]]\n", 3,
     "'D' outside a channel block"),
    ("# no dim\nchannel a\n", 2, "dim must come before channels"),
    ("dim 2\nchannel a\nD [[1]]\nend\n", 3,
     "operator must be 2x2, got (1, 1)"),
    ("dim 2\nchannel a\n\ndriving square omega=1.0\nend\n", 4,
     "unknown driving kind 'square'"),
    ("dim 2\nchannel a\ndriving\nend\n", 3,
     "driving needs a kind, one of const, sin, cos, exp, poly, samples"),
    ("dim 2\nchannel a\ndriving const value=1.0 value=2.0\nend\n", 3,
     "driving const repeats parameter 'value'"),
    # a key the kind does not take, one case per kind
    ("dim 2\nchannel a\ndriving const valu=3.0\nend\n", 3,
     "driving const has no parameter 'valu'; it takes value"),
    ("dim 2\nchannel a\ndriving sin omega=1.0 phse=0.5\nend\n", 3,
     "driving sin has no parameter 'phse'; it takes omega, phase, "
     "amplitude, offset"),
    ("dim 2\nchannel a\ndriving cos amplitude=2.0 ofset=1.0\nend\n", 3,
     "driving cos has no parameter 'ofset'; it takes omega, phase, "
     "amplitude, offset"),
    ("dim 2\nchannel a\ndriving exp rate=-1.0 amp=2.0\nend\n", 3,
     "driving exp has no parameter 'amp'; it takes rate, amplitude"),
    ("dim 2\nchannel a\ndriving poly coef=[1, 2]\nend\n", 3,
     "driving poly has no parameter 'coef'; it takes coeffs"),
    ("dim 2\nchannel a\ndriving samples t_start=0 t_end=2 "
     "values=[0.0, 1.0]\nend\n", 3,
     "driving samples has no parameter 't_start'; it takes t0, t1, values"),
    # an A slot past the L count names the A line, not the end line
    ("dim 2\nchannel a\nL [[1, 0], [0, 1]]\nR [[1, 0], [0, 1]]\n"
     "A 0 5 [[1, 0], [0, 1]]\n\nend\n", 5, "A slot (0, 5) outside chi=1"),
    ("dim 2\nchannel a\nA -1 0 [[1, 0], [0, 1]]\n", 3,
     "A slot (-1, 0) outside chi=0"),
    ("dim 2\nchannel a\nD [[1, 0], [0, 1]]\nend\nchannel a\nend\n", 5,
     "channel name 'a' is listed twice"),
    ("dim 2\nchannel\nD [[1, 0], [0, 1]]\nend\n", 2,
     "channel needs a name"),
    # errors found when a block closes name the block's channel line,
    # whether its end line, the next channel or the end of the text
    # closes it
    ("dim 2\nchannel a\nL [[1, 0], [0, 1]]\n", 2,
     "channel a: L and R slot counts differ"),
    ("dim 2\nchannel a\nL [[1, 0], [0, 1]]\nchannel b\n"
     "D [[1, 0], [0, 1]]\nend\n", 2, "channel a: L and R slot counts differ"),
    ("dim 2\nchannel a\nD [[1, 0], [0, 1]]\nend\n\nchannel b\n"
     "R [[1, 0], [0, 1]]\nend\n", 6, "channel b: L and R slot counts differ"),
])
def test_loader_errors_name_their_line(text, line, message):
    with pytest.raises(modelfile.ModelFileError) as exc:
        modelfile.loads(text)
    assert str(exc.value) == f"line {line}: {message}"


@pytest.mark.parametrize("text, line, message", [
    ("dim 2\ndim 2\nchannel a\nend\n", 2, "repeated directive 'dim'"),
    ("dim 2\nchannel a\nD [[1, 0], [0, 1]]\nend\ndim 3\n", 5,
     "repeated directive 'dim'"),
    ("dim 2\nchannel a\ndriving sin omega=1.0\ndriving cos omega=2.0\n"
     "end\n", 4, "channel a: repeated directive 'driving'"),
    ("dim 2\nchannel a\nD [[1, 0], [0, 1]]\n# again\nD [[0, 1], [1, 0]]\n"
     "end\n", 5, "channel a: repeated directive 'D'"),
    ("dim 2\nchannel a\nL [[1, 0], [0, 1]]\nL [[1, 0], [0, 1]]\n"
     "A 0 1 [[1, 0], [0, 1]]\nR [[1, 0], [0, 1]]\nA 0 1 [[0, 1], [1, 0]]\n"
     "R [[1, 0], [0, 1]]\nend\n", 7,
     "channel a: repeated directive 'A 0 1'"),
])
def test_repeated_directives_are_rejected(text, line, message):
    # the second line would silently replace the first
    with pytest.raises(modelfile.ModelFileError) as exc:
        modelfile.loads(text)
    assert str(exc.value) == f"line {line}: {message}"


def test_each_channel_takes_its_own_directives():
    # the same directives in two channel blocks are no repetition
    text = ("dim 2\nchannel a\ndriving sin omega=1.0\nL [[1, 0], [0, 1]]\n"
            "A 0 0 [[1, 0], [0, 1]]\nR [[1, 0], [0, 1]]\n"
            "D [[0, 1], [1, 0]]\nend\nchannel b\ndriving cos omega=2.0\n"
            "D [[1, 0], [0, -1]]\nend\n")
    ham = modelfile.loads(text)
    assert [c.driving.name for c in ham.channels] == ["sin", "cos"]


def test_cli_integrate_rejects_a_non_finite_driving(tmp_path, capsys):
    # an infinite constant once printed NaN rows and exited 0
    path = tmp_path / "inf.model"
    path.write_text(TFI_TEXT.replace("driving cos omega=6.283185307179586",
                                     "driving const value=1e999"))
    with pytest.raises(SystemExit) as exc:
        main(["integrate", "--model", str(path), "--t", "0.25"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("dysonmpo: error: line 10: const value must be "
                          "finite, got inf")
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["integrate", "--max-order", "0"],
    ["integrate", "--max-order", "-3"],
    ["build-mpo", "--order", "0"],
    ["bench", "--sites", "0"],
    ["bench", "--dmax", "0"],
    ["bench", "--substeps", "-3"],
    ["bench", "--orders", "0"],
    ["bench", "--orders", "1,2,0"],
])
def test_cli_rejects_counts_below_one(model_path, args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args[:1] + ["--model", model_path] + args[1:])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "-12"])
def test_cli_rejects_a_negative_seed(model_path, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--model", model_path, "--seed", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --seed: must be at least 0, got {value}" in err


@pytest.mark.parametrize("option, value, named", [
    ("--orders", "1,x", "'x'"),
    ("--orders", "2.5", "'2.5'"),
    ("--orders", "1,,2", "''"),
    ("--dts", "-0.125", "> 0, got -0.125"),
    ("--dts", "0.25,0", "> 0, got 0"),
    ("--dts", "0.125,nan", "> 0, got nan"),
    ("--dts", "inf", "> 0, got inf"),
    ("--dts", "0.25,y", "'y'"),
])
def test_cli_rejects_bad_sweep_lists(model_path, option, value, named,
                                     capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--model", model_path, option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}" in err and named in err


@pytest.mark.parametrize("command", ["bench", "build-mpo", "integrate"])
@pytest.mark.parametrize("option, value", [("--t", "inf"), ("--t0", "nan"),
                                           ("--t", "-inf"), ("--t0", "-inf")])
def test_cli_rejects_non_finite_times(model_path, command, option, value,
                                      capsys):
    # "-inf" as its own argument is a value, not an unknown option
    with pytest.raises(SystemExit) as exc:
        main([command, "--model", model_path, option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: must be finite, got {value}" in err


@pytest.mark.parametrize("args, named", [
    (["bench", "--orders", "1", "--dts", "0.3", "--sites", "3"],
     "must divide t_final - t0"),
    (["bench", "--orders", "1", "--dts", "0.125", "--sites", "3",
      "--qr-tol", "1"], "got 1.0"),
    (["build-mpo", "--qr-tol", "2"], "tol must lie in [0, 1), got 2.0"),
])
def test_cli_reports_library_errors(model_path, args, named, monkeypatch,
                                    capsys):
    # a ValueError from the library ends the run as a message with exit
    # code 2; a sweep is checked whole before its first evolution
    evolved = []
    monkeypatch.setattr("dysonmpo.bench.evolve_state",
                        lambda *a, **k: evolved.append(a))
    with pytest.raises(SystemExit) as exc:
        main(args[:1] + ["--model", model_path] + args[1:])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("dysonmpo: error: ") and named in err
    assert "Traceback" not in err
    assert evolved == []


def test_evolve_state_rejects_unknown_method():
    # an empty interval takes no step, so only an entry check can catch it
    config = EvolutionConfig(n_sites=3, t_final=0.0, method="bogus")
    with pytest.raises(ValueError, match="'bogus'"):
        evolve_state(modulated_ising(), FiniteMPS.all_up(3), config, 2,
                     0.125)


SPIN1_TEXT = """
# spin-1 chain: sin(wt) sum Sz Sz + cos(wt) sum Sx
dim 3
channel zz
driving sin omega=6.283185307179586
L [[1, 0, 0], [0, 0, 0], [0, 0, -1]]
R [[1, 0, 0], [0, 0, 0], [0, 0, -1]]
end
channel x
driving cos omega=6.283185307179586
D [[0, 0.7071067811865476, 0], [0.7071067811865476, 0, 0.7071067811865476], [0, 0.7071067811865476, 0]]
end
"""


def test_spin_one_sweep_runs_against_rk4(tmp_path):
    # the sweep's initial state takes the model's physical dimension
    ham = modelfile.loads(SPIN1_TEXT)
    assert ham.d == 3
    config = EvolutionConfig(n_sites=4, t_final=0.25, orders=(1, 2),
                             dts=(0.125,), oracle_substeps=400, seed=1)
    eps = [r.epsilon for r in run_benchmark(ham, config)]
    assert 0 < eps[1] < eps[0] < 0.1
    path, out = tmp_path / "spin1.model", tmp_path / "spin1.csv"
    path.write_text(SPIN1_TEXT)
    assert main(["bench", "--model", str(path), "--orders", "1,2", "--dts",
                 "0.125", "--sites", "4", "--t", "0.25", "--substeps", "400",
                 "--seed", "1", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [float(r[3]) for r in rows] == pytest.approx(eps, rel=1e-11)


# `dysonmpo bench` flags whose destination is not their config field's name
FIELD_OF_FLAG = {"sites": "n_sites", "t": "t_final", "dmax": "d_max",
                 "substeps": "oracle_substeps"}


def test_bench_flags_are_the_config_fields(model_path, monkeypatch, capsys):
    # every EvolutionConfig field has one bench flag, and every flag but
    # --model and --out sets one field to the value it is given
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest for a in sub.choices["bench"]._actions}
    flags -= {"help", "model", "out"}
    assert sorted(FIELD_OF_FLAG.get(f, f) for f in flags) == \
        sorted(f.name for f in fields(EvolutionConfig))
    seen = []
    monkeypatch.setattr("dysonmpo.cli.run_benchmark",
                        lambda ham, config: seen.append(config) or [])
    assert main(["bench", "--model", model_path, "--sites", "5", "--t0",
                 "0.5", "--t", "1.5", "--method", "taylor", "--dmax", "7",
                 "--substeps", "9", "--qr-tol", "1e-7", "--self-reference",
                 "--seed", "3", "--orders", "2,3", "--dts", "0.5,0.25"]) == 0
    given = EvolutionConfig(n_sites=5, t0=0.5, t_final=1.5, method="taylor",
                            d_max=7, oracle_substeps=9, qr_tol=1e-7,
                            self_reference=True, seed=3, orders=(2, 3),
                            dts=(0.5, 0.25))
    assert seen == [given]
    assert all(getattr(given, f.name) != f.default
               for f in fields(EvolutionConfig))

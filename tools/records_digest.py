"""Print one digest per benchmark run over the record fields it reproduces.

    python3 tools/records_digest.py [--checkout DIR] [--against FILE]

Runs ``dysonmpo.bench.run_benchmark`` on the configurations of the three
perfbench workloads (read from ``perfbench/run.py`` of the checkout, by
default the one this script lives in) at config seeds 1-3 and ``qr_tol``
1e-12 and 1e-6, with one BLAS thread as perfbench pins it, and prints

    <workload> seed=<seed> qr_tol=<qr_tol> <sha256>

per run.  The digest covers the fields of every `ErrorRecord` of the run
that are not marked timed (``bench.UNTIMED_FIELDS``), each written
exactly, so two checkouts whose lines agree made the same records bit for
bit.  A checkout whose `ErrorRecord` marks no timed field exits with 2.

With ``--against FILE``, a saved output of this script, it prints instead
the lines that differ from the file, ``- <saved line>`` and ``+ <new
line>``, and exits with 1 if any do, else with 0.
"""

import argparse
import hashlib
import importlib.util
import numbers
import os
import sys
from pathlib import Path

SEEDS = (1, 2, 3)
QR_TOLS = (1e-12, 1e-6)


def _exact(value):
    """`value` as text that tells apart any two different numbers."""
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return float(value).hex()
    return repr(value)


def digest(records, names):
    """SHA-256 of the fields `names` of each of `records`, in order."""
    h = hashlib.sha256()
    for r in records:
        h.update(repr([(name, _exact(getattr(r, name)))
                       for name in names]).encode())
    return h.hexdigest()


def workloads(checkout):
    """``perfbench/run.py``'s `WORKLOADS` of `checkout`, without running it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", checkout / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def library(checkout):
    """``(bench, modelfile)`` of the library in `checkout`, imported with
    one BLAS thread, as perfbench pins it."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(checkout / "src"))
    from dysonmpo import bench, modelfile
    return bench, modelfile


def config(bench, w, seed, qr_tol=1e-12):
    """The `EvolutionConfig` of the Dyson sweep of perfbench workload `w`
    at config seed `seed`."""
    return bench.EvolutionConfig(
        n_sites=w.n_sites, t0=0.0, t_final=w.t_final, method="dyson",
        d_max=w.d_max, oracle_substeps=w.oracle_substeps,
        self_reference=w.self_reference, seed=seed, orders=w.orders,
        dts=w.dts, qr_tol=qr_tol)


def lines(checkout, bench, modelfile):
    """One ``<workload> seed=.. qr_tol=.. <digest>`` line per run."""
    names = bench.UNTIMED_FIELDS
    out = []
    for name, w in sorted(workloads(checkout).items()):
        ham = modelfile.load(str(checkout / w.model))
        for seed in SEEDS:
            for qr_tol in QR_TOLS:
                records = bench.run_benchmark(ham, config(bench, w, seed,
                                                          qr_tol))
                out.append(f"{name} seed={seed} qr_tol={qr_tol:g} "
                           f"{digest(records, names)}")
    return out


def differences(new, saved):
    """``- <line>`` for each saved line the new run lacks, then ``+
    <line>`` for each new line the saved run lacks, in their order."""
    return ([f"- {line}" for line in saved if line not in new]
            + [f"+ {line}" for line in new if line not in saved])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", default=str(Path(__file__).resolve()
                                                  .parent.parent),
                        help="source checkout whose library runs")
    parser.add_argument("--against", metavar="FILE",
                        help="a saved output to compare the lines with")
    args = parser.parse_args(argv)
    checkout = Path(args.checkout).resolve()
    bench, modelfile = library(checkout)
    if not hasattr(bench, "UNTIMED_FIELDS"):
        print(f"records_digest: {checkout} marks no timed record field",
              file=sys.stderr)
        return 2
    if args.against is None:
        for line in lines(checkout, bench, modelfile):
            print(line, flush=True)
        return 0
    saved = [line for line in Path(args.against).read_text().splitlines()
             if line.strip()]
    changed = differences(lines(checkout, bench, modelfile), saved)
    for line in changed:
        print(line)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())

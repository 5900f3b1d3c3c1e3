"""Error scaling of Dyson-MPO time evolution on a finite chain.

Evolves |0...0> over one driving period of the modulated Ising chain,
one Dyson MPO per step (built, compressed, applied), and compares to a
dense Runge-Kutta reference.  The error shrinks as O(dt^N).

A scaled-down version of the full benchmark; the acceptance suite runs the
eight-site, five-step-size original.  Also writable as CSV via
``dysonmpo bench --model demos/models/modulated_tfi.model --out scaling.csv``.
"""

import dysonmpo as dm

ham = dm.models.modulated_ising()
config = dm.EvolutionConfig(
    n_sites=6, t0=0.0, t_final=1.0, method="dyson", d_max=8,
    orders=(1, 2, 3), dts=(0.25, 0.125, 0.0625, 0.03125),
    oracle_substeps=2000)

print("evolving |0...0> on 6 sites over one driving period")
records = dm.run_benchmark(ham, config)

print(f"\n{'order':>5} {'dt':>9} {'epsilon':>12} {'mpo bond':>9} "
      f"{'s/step':>8}")
for r in records:
    print(f"{r.order:>5} {r.dt:>9.5f} {r.epsilon:>12.3e} "
          f"{r.mpo_bond_dim:>9} {r.wall_time_per_step:>8.3f}")

slopes = dm.order_slopes(records)
print("\nfitted log-log slopes (expect ~N):",
      {n: round(s, 2) for n, s in slopes.items()})

runtimes = dm.runtime_at_accuracy(records, 1e-6, span=1.0)
print("estimated total runtime to reach epsilon = 1e-6:")
for order, seconds in sorted(runtimes.items()):
    print(f"  order {order}: {seconds:10.2f} s")

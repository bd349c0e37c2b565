"""Rebuild the error-rate figures at a reduced size.

The real desk-scale runs (n = 150, 20k trials per point) live behind the
CLI: `indelkit reproduce-figure fig1 --scale desk --plot`.  This demo runs
a miniature version of the deletion-side experiment so it finishes in
seconds, then prints measured-versus-closed-form per grid point and writes
the CSV/SVG to the current directory.
"""

from indelkit.channels import ChannelSpec
from indelkit.harness import (ExperimentConfig, figure_rows, run_experiment,
                              write_figure_csv, write_figure_svg)

n, q, trials = 80, 2, 3000

cfg = ExperimentConfig(channel=ChannelSpec("del"), t=2, n=n, q=q,
                       decoder="mld2del", p_grid=(0.01, 0.02, 0.03, 0.05),
                       trials_per_point=trials, master_seed=2024)
rows = figure_rows("fig1", run_experiment(cfg))

print(f"two deletion traces, q={q}, n={n}, {trials} trials per point")
print(f"{'p':>6} {'measured':>12} {'closed form':>12} {'ratio':>7}")
for r in rows:
    print(f"{r['p']:>6} {r['measured_rate']:>12.3e} "
          f"{r['formula_rate']:>12.3e} "
          f"{r['measured_rate'] / r['formula_rate']:>7.3f}")

csv_path, svg_path = "mini_fig1.csv", "mini_fig1.svg"
write_figure_csv(rows, csv_path)
write_figure_svg(rows, svg_path, title="two-deletion error rate (mini)")
print(f"\nwrote {csv_path} and {svg_path}")

"""
The benchmark harness end to end
================================

run_benchmark executes a batch of configurations and drops three CSV
layouts into a directory: the per-step solver log, a per-level summary,
and a runs.csv index with fitted convergence rates.  collect_rates reads
such a directory back and checks every fitted rate against its reference
slope, which is what `afem rates --assert` scripts in CI.

Budgets here are small so the demo finishes in a few seconds; the rates
are already close to their asymptotic values.  Push max_elements to 100000
to reproduce the headline numbers.
"""

import os
import tempfile

from afem.driver import AdaptiveConfig
from afem.experiments import (collect_rates, parse_sweep_spec, rates_report,
                              run_benchmark)

out = os.path.join(tempfile.gettempdir(), "afem_demo_bench")

# the same grid a sweep spec file would expand to:
#
#   domain = zshape
#   theta = 0.3, 0.5, 0.7
#   max-elements = 8000
#
spec = "domain=zshape\ntheta=0.3,0.5,0.7\nmax-elements=8000\n"
configs = parse_sweep_spec(spec)
configs.append(AdaptiveConfig(domain="lshape", theta=0.5, max_elements=8000))
configs.append(AdaptiveConfig(domain="zshape", theta=1.0, max_elements=8000))

results = run_benchmark(configs, out_dir=out, report=print)

print("\nwrote %s:" % out)
for name in sorted(os.listdir(out)):
    print("  %s" % name)

print()
rates_report(collect_rates(out))
# theta=1 refines everything, so its reference slope is the uniform
# -2/7 for this domain rather than the adaptive -1/2

"""Benchmark-suite configuration.

Every benchmark regenerates one table or figure from the paper's
Section 5: it computes the same series the paper plots (in simulated
cost units), writes the report — table plus an ASCII chart — to
``benchmarks/results/``, and asserts the qualitative shape the paper
claims.  The figure tables are deterministic and committed; CI re-runs
them and fails on any diff (the ``paper-figures`` job).
"""

import sys
from pathlib import Path

# Make the sibling `_workloads` helper importable regardless of the
# directory pytest is invoked from.
sys.path.insert(0, str(Path(__file__).parent))

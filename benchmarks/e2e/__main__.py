"""``python -m benchmarks.e2e``: the same command line as ``run.py``."""

import os
import runpy

runpy.run_path(os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
               run_name="__main__")

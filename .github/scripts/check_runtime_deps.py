"""Run `socest simulate` on a cell document socest wrote; fail if PyYAML is
installed or was imported.

Run it with an interpreter that has socest installed without extras, from a
scratch directory: it writes its cell, profile and trajectory there. It
passes only if the runtime dependencies that pyproject.toml declares (NumPy
alone) are enough for a command that reads a cell document.
"""
import importlib.util
import sys

import numpy as np

from socest.cli import main
from socest.ecm import EcmParams, OcvTable, Profile
from socest.io import write_params, write_profile

if importlib.util.find_spec("yaml") is not None:
    sys.exit("PyYAML is installed, so this run proves nothing")
cell = EcmParams(
    r0=0.05, r1=0.015, c1=2000.0, r2=0.025, c2=40000.0, q_max=18000.0,
    ocv=OcvTable.from_function(lambda z: 3.2 + 0.7 * z, spacing=0.1),
)
write_params(cell, "cell.yaml")
write_profile(Profile.uniform(np.full(100, -1.0)), "drive.csv")
if main(["simulate", "--params", "cell.yaml", "--profile", "drive.csv", "--out", "traj.csv"]):
    sys.exit("simulate failed")
if sys.modules.get("yaml") is not None:
    sys.exit("simulate imported PyYAML")
print("simulate read a cell document with NumPy alone")

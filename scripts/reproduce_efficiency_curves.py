#!/usr/bin/env python3
"""Reproduce the three quasi-static efficiency comparison curves.

Writes one CSV per panel into ./out (created if missing):

  curve_energy.csv : efficiency vs the cold-bath gap at T_hot=15, T_cold=10
  curve_tcold.csv  : efficiency vs T_cold at T_hot=20, gap 15
  curve_thot.csv   : efficiency vs T_hot at T_cold=5, gap 15

and prints the gap at which the attainability criterion crosses 1 for the
first panel. Render with any plotting tool, e.g.:

    import pandas as pd, matplotlib.pyplot as plt
    df = pd.read_csv("out/curve_energy.csv")
    plt.plot(df.sweep_variable, df.eta_nano, df.sweep_variable, df.eta_carnot)
"""
import pathlib
import sys

from nanoheat.cli import run_command
from nanoheat.nano import omega_single
from nanoheat.second_laws import _bisect

OUT = pathlib.Path(__file__).resolve().parent.parent / "out"


def main():
    OUT.mkdir(exist_ok=True)
    runs = [
        ["sweep", "--mode", "energy", "--t-hot", "15", "--t-cold", "10",
         "--lo", "1", "--hi", "60", "--steps", "120",
         "--output", str(OUT / "curve_energy.csv")],
        ["sweep", "--mode", "tcold", "--t-hot", "20", "--e-min", "15",
         "--lo", "1", "--hi", "19.5", "--steps", "120",
         "--output", str(OUT / "curve_tcold.csv")],
        ["sweep", "--mode", "thot", "--t-cold", "5", "--e-min", "15",
         "--lo", "5.5", "--hi", "60", "--steps", "120",
         "--output", str(OUT / "curve_thot.csv")],
    ]
    for args in runs:
        rc = run_command(args)
        if rc != 0:
            return rc

    crossing = _bisect(lambda e: omega_single(e, 1 / 10, 1 / 15) < 1.0, 1.0, 60.0)
    print(f"criterion crosses 1 at E = {crossing:.6f} for T=(15,10)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate the five study curves as CSV files via the command line
entry point, then spot-check their shapes.

Run from anywhere; files land in the working directory as figure1.csv
through figure5.csv.
"""

import csv

from credit_pricer.cli import main

for figure in (1, 2, 3, 4, 5):
    rc = main(["curves", "--figure", str(figure)])
    assert rc == 0, f"figure {figure} failed with exit code {rc}"


def read_csv(path):
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    header, data = rows[0], [[float(x) for x in r] for r in rows[1:]]
    return header, data


# figure 2: the bond price at T1 crosses the exercise level 0.9 near the
# early redemption boundary 199.109
header, data = read_csv("figure2.csv")
crossing = next(v for v, b in data if b >= 0.9)
print(f"figure2: B(V, T1) crosses 0.9 at V ~ {crossing:.1f}")

# figure 4: the put vanishes at the barrier and decays for large V
header, data = read_csv("figure4.csv")
print(f"figure4: P at barrier = {data[0][1]:.2e}, "
      f"peak = {max(r[1] for r in data):.4f}, "
      f"at V=300: {data[-1][1]:.4f}")

# figure 5: the puttable bond is continuous from the left at the exercise
# date and reads max(B, E) there; after it the curve follows the plain bond,
# so it drops at T1 wherever B(V, T1) < E, as at V = 139
header, data = read_csv("figure5.csv")
mid = len(data) // 2
print(f"figure5: puttable(V=139) around T1: "
      f"{data[mid - 1][1]:.5f} {data[mid][1]:.5f} {data[mid + 1][1]:.5f}")

"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/record_reference.py [book] [figures] [verify]

Writes, under perfbench/reference/:
- book.csv: survival, bond, option and composite price of every book pool
  position, or the exception the library raised on it;
- figure1.csv .. figure5.csv: `curves --figure N` at the reference
  configuration with 201 samples;
- verify.json: the status of every check `verify --suite all` prints,
  per configuration and MC seed 0..VERIFY_SEEDS-1.

Run it only on a commit whose outputs are the accepted ones: every later
benchmark run is judged against these files.
"""

from __future__ import annotations

import csv
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import workloads  # noqa: E402


def record_book() -> None:
    failures = 0
    with open(os.path.join(gate.REFERENCE_DIR, "book.csv"), "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["index", "survival", "bond", "option", "composite", "error"])
        for i, position in enumerate(workloads.book_pool()):
            try:
                values = workloads.price_position(position, 0.0)
            except Exception as exc:  # recorded as this position's reference outcome
                out.writerow([i, "", "", "", "", type(exc).__name__])
                failures += 1
            else:
                out.writerow([i, *(repr(v) for v in values), ""])
    print(f"book: {workloads.BOOK_POOL_SIZE} positions, {failures} raised")


def record_figures() -> None:
    os.chdir(ROOT)  # the CSV's parameter echo then holds a relative path
    for n in workloads.FIGURES:
        path = os.path.relpath(os.path.join(gate.REFERENCE_DIR, f"figure{n}.csv"), ROOT)
        code, _ = workloads.run_cli(["curves", "--figure", str(n), "--samples", "201",
                                     "--out", path])
        if code != 0:
            raise SystemExit(f"curves --figure {n} exited with {code}")
    print(f"figures: {len(workloads.FIGURES)} CSVs")


def record_verify() -> None:
    statuses = {config: {} for config in workloads.VERIFY_CONFIGS}
    for seed in range(workloads.VERIFY_SEEDS):
        bench = workloads.Verify(seed=seed, work_dir=HERE)
        for slot, config in enumerate(workloads.VERIFY_CONFIGS):
            code, stdout = bench.execute(workloads.Request("verify", slot))
            checks = gate.verify_checks(stdout)
            if not checks or code != (0 if all(s == "PASS" for s, _ in checks) else 1):
                raise SystemExit(f"verify on {config}, seed {seed} exited with {code}:\n{stdout}")
            statuses[config][str(seed)] = checks
            failed = [name for status, name in checks if status != "PASS"]
            if failed:
                print(f"verify: {config}, seed {seed}: FAIL {', '.join(failed)}")
    with open(os.path.join(gate.REFERENCE_DIR, "verify.json"), "w", encoding="utf-8") as fh:
        json.dump(statuses, fh, indent=1)
        fh.write("\n")
    print(f"verify: {len(workloads.VERIFY_CONFIGS)} configurations x "
          f"{workloads.VERIFY_SEEDS} seeds")


if __name__ == "__main__":
    parts = {"book": record_book, "figures": record_figures, "verify": record_verify}
    for name in sys.argv[1:] or parts:
        parts[name]()

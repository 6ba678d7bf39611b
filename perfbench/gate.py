"""Correctness gate: every benchmark request is judged against reference
outputs recorded by record_reference.py.

Numbers must match the reference within the library's own path-agreement
tolerance, |x - ref| <= 1e-9 * max(1, |ref|): relative above 1 and an
absolute floor of 1e-9 below it. A request that gave no correct output is
a failure, labelled by exception type or by the check it broke. A failure
is also a regression, which makes the run incorrect, unless it repeats a
failure the reference itself recorded: a book position on which the
library raised, or a verify check that failed for the same configuration
and MC seed, when the reference was taken.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass

TOL = 1e-9
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


@dataclass(frozen=True)
class Verdict:
    passed: bool
    label: str = "ok"
    regression: bool = False


PASS = Verdict(True)


def close(x: float, ref: float) -> bool:
    return math.isfinite(x) and abs(x - ref) <= TOL * max(1.0, abs(ref))


def _slack(x: float) -> float:
    return TOL * max(1.0, abs(x))


# ---------------------------------------------------------------------------
# book

def load_book_reference(path: str | None = None) -> list:
    """One entry per pool position: a 4-tuple of floats, or the name of the
    exception the library raised."""
    rows = []
    with open(path or os.path.join(REFERENCE_DIR, "book.csv"), newline="") as fh:
        for rec in csv.DictReader(fh):
            if rec["error"]:
                rows.append(rec["error"])
            else:
                rows.append(tuple(float(rec[k]) for k in ("survival", "bond", "option", "composite")))
    return rows


def within_bounds(p, values) -> bool:
    """No-arbitrage bounds of one priced position: survival in [0, 1], the
    bond between its discounted recovery and the discounted face, the put
    below the discounted exercise amount, the call below the bond, and the
    composite equal to bond + put or bond - call."""
    if len(values) != 4 or not all(math.isfinite(v) for v in values):
        return False
    surv, bond, opt, comp = values
    disc = math.exp(-p.r * (p.T - p.t))
    cap = p.E * math.exp(-p.r * (p.T1 - p.t)) if p.kind == "put" else bond
    composite = bond + opt if p.kind == "put" else bond - opt
    return (-_slack(0.0) <= surv <= 1.0 + _slack(1.0)
            and p.R * disc - _slack(disc) <= bond <= disc + _slack(disc)
            and -_slack(0.0) <= opt <= cap + _slack(cap)
            and abs(comp - composite) <= _slack(composite))


def book_verdict(position, result, ref) -> Verdict:
    """result is the 4-tuple the request returned or the exception it raised."""
    known_failure = isinstance(ref, str)
    if isinstance(result, BaseException):
        return Verdict(False, type(result).__name__, regression=not known_failure)
    if known_failure:
        return PASS if within_bounds(position, result) else Verdict(False, "out_of_bounds", True)
    if len(result) == len(ref) and all(close(x, r) for x, r in zip(result, ref)):
        return PASS
    return Verdict(False, "mismatch", True)


# ---------------------------------------------------------------------------
# figures

def parse_curves_csv(text: str) -> tuple[list[str], list[list[float]]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty CSV")
    header = lines[0].split(",")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    if any(len(row) != len(header) for row in rows):
        raise ValueError("ragged CSV")
    return header, rows


def load_figure_reference(figure: int) -> str:
    with open(os.path.join(REFERENCE_DIR, f"figure{figure}.csv"), encoding="utf-8") as fh:
        return fh.read()


def figure_verdict(code: int, text: str | None, ref_text: str) -> Verdict:
    """A curves command passes if it exits 0 and writes a CSV whose header
    and every cell match the reference, with every bond column over the V
    axis nondecreasing."""
    if code != 0:
        return Verdict(False, f"exit_{code}", True)
    if text is None:
        return Verdict(False, "missing_csv", True)
    try:
        header, rows = parse_curves_csv(text)
    except ValueError:
        return Verdict(False, "malformed_csv", True)
    ref_header, ref_rows = parse_curves_csv(ref_text)
    if header[0] == "V":
        for col, name in enumerate(header):
            if name.startswith("bond") and any(
                    b[col] < a[col] for a, b in zip(rows, rows[1:])):
                return Verdict(False, "non_monotone_bond", True)
    if header != ref_header or len(rows) != len(ref_rows):
        return Verdict(False, "mismatch", True)
    for row, ref_row in zip(rows, ref_rows):
        if not all(close(x, r) for x, r in zip(row, ref_row)):
            return Verdict(False, "mismatch", True)
    return PASS


# ---------------------------------------------------------------------------
# verify

def load_verify_reference() -> dict[str, dict[str, list[list[str]]]]:
    """[status, check name] of every check `verify --suite all` printed at
    the reference commit, per configuration and per MC seed."""
    with open(os.path.join(REFERENCE_DIR, "verify.json"), encoding="utf-8") as fh:
        return json.load(fh)


def verify_checks(stdout: str) -> list[list[str]]:
    """[status, name] of every check line."""
    out = []
    for line in io.StringIO(stdout):
        parts = line.split()
        if parts and parts[0] in ("PASS", "FAIL"):
            out.append([parts[0], parts[1]])
    return out


def verify_verdict(code: int, stdout: str, expected: list[list[str]]) -> Verdict:
    """A verify run passes only if it exits 0 and every check line reads
    PASS. It must run exactly the checks the reference ran; a FAIL on a
    check that also failed in the reference, for the same configuration and
    seed, is a known failure rather than a regression."""
    checks = verify_checks(stdout)
    if [name for _, name in checks] != [name for _, name in expected]:
        return Verdict(False, "check_set_changed", True)
    failed = [(name, ref_status) for (status, name), (ref_status, _) in zip(checks, expected)
              if status != "PASS"]
    if failed:
        new = [name for name, ref_status in failed if ref_status == "PASS"]
        return Verdict(False, f"FAIL:{(new or [failed[0][0]])[0]}", regression=bool(new))
    if code != 0:
        return Verdict(False, f"exit_{code}", True)
    if f"{len(expected)} checks, 0 failed" not in stdout:
        return Verdict(False, "missing_summary", True)
    return PASS

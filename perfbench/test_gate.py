"""Tests of the correctness gate itself: a perturbed price, a broken CSV and
a FAIL line must each count as failures.

    python3 -m pytest -q perfbench/test_gate.py
"""

from __future__ import annotations

import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gate  # noqa: E402
import workloads  # noqa: E402

BOOK_REFERENCE = gate.load_book_reference()
POOL = workloads.book_pool()


def _priced_position():
    """First pool position whose reference option price is well above the
    tolerance floor, so a 1e-6 relative change is measurable."""
    for i, ref in enumerate(BOOK_REFERENCE):
        if not isinstance(ref, str) and ref[2] > 1e-2:
            return i, ref
    raise AssertionError("no priced position in the book reference")


def test_reference_outputs_pass():
    i, ref = _priced_position()
    assert gate.book_verdict(POOL[i], ref, ref).passed


def test_book_price_perturbed_by_1e6_relative_fails():
    i, ref = _priced_position()
    for k in range(4):
        perturbed = list(ref)
        perturbed[k] *= 1.0 + 1e-6
        verdict = gate.book_verdict(POOL[i], tuple(perturbed), ref)
        assert not verdict.passed and verdict.regression and verdict.label == "mismatch"


def test_book_exception_counts_by_type():
    i, ref = _priced_position()
    verdict = gate.book_verdict(POOL[i], OverflowError("math range error"), ref)
    assert (verdict.passed, verdict.label, verdict.regression) == (False, "OverflowError", True)


def test_known_failure_is_a_failure_but_not_a_regression():
    i = next(k for k, ref in enumerate(BOOK_REFERENCE) if isinstance(ref, str))
    verdict = gate.book_verdict(POOL[i], OverflowError("math range error"), BOOK_REFERENCE[i])
    assert (verdict.passed, verdict.regression) == (False, False)


def test_known_failure_passes_once_priced_within_bounds():
    i = next(k for k, ref in enumerate(BOOK_REFERENCE) if isinstance(ref, str))
    p = POOL[i]
    bond = 0.5 * (p.R + 1.0) * math.exp(-p.r * (p.T - p.t))  # inside [R disc, disc]
    option = 0.0
    composite = bond + option if p.kind == "put" else bond - option
    assert gate.book_verdict(p, (0.5, bond, option, composite), BOOK_REFERENCE[i]).passed
    nan = float("nan")
    assert not gate.book_verdict(p, (0.5, bond, nan, composite), BOOK_REFERENCE[i]).passed
    assert not gate.book_verdict(p, (1.5, bond, option, composite), BOOK_REFERENCE[i]).passed


def test_figure_reference_passes():
    for n in workloads.FIGURES:
        ref = gate.load_figure_reference(n)
        assert gate.figure_verdict(0, ref, ref).passed


def test_non_monotone_bond_column_fails():
    ref = gate.load_figure_reference(2)
    lines = ref.splitlines()
    first = next(k for k, ln in enumerate(lines) if ln.startswith("V,")) + 1
    mid = first + 100
    lines[mid], lines[mid + 1] = (
        lines[mid].split(",")[0] + "," + lines[mid + 1].split(",")[1],
        lines[mid + 1].split(",")[0] + "," + lines[mid].split(",")[1],
    )
    verdict = gate.figure_verdict(0, "\n".join(lines) + "\n", ref)
    assert (verdict.passed, verdict.label, verdict.regression) == (False, "non_monotone_bond", True)


def test_figure_cell_perturbed_fails():
    ref = gate.load_figure_reference(3)
    lines = ref.splitlines()
    row = next(k for k, ln in enumerate(lines) if ln.startswith("t,")) + 50
    cells = lines[row].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-6) + 1e-8)
    lines[row] = ",".join(cells)
    assert gate.figure_verdict(0, "\n".join(lines) + "\n", ref).label == "mismatch"


def test_figure_nonzero_exit_and_missing_file_fail():
    ref = gate.load_figure_reference(1)
    assert gate.figure_verdict(1, ref, ref).label == "exit_1"
    assert gate.figure_verdict(0, None, ref).label == "missing_csv"


def _verify_stdout(checks):
    lines = ["config: {}"]
    for status, name in checks:
        lines.append(f"{status}  {name:<34} measured=1.000000e-12  tol=1.000000e-09")
    failed = sum(status != "PASS" for status, _ in checks)
    lines.append(f"{len(checks)} checks, {failed} failed")
    return "\n".join(lines) + "\n"


def _with_fail(checks, index):
    return [["FAIL" if k == index else status, name] for k, (status, name) in enumerate(checks)]


VERIFY_REFERENCE = gate.load_verify_reference()
PASSING = VERIFY_REFERENCE["reference"]["1"]


def test_verify_reference_passes():
    assert gate.verify_verdict(0, _verify_stdout(PASSING), PASSING).passed


def test_forced_fail_line_fails():
    stdout = _verify_stdout(_with_fail(PASSING, 3))
    # even with exit code 0, a FAIL line is a failure
    for code in (0, 1):
        verdict = gate.verify_verdict(code, stdout, PASSING)
        assert (verdict.passed, verdict.label, verdict.regression) == (
            False, f"FAIL:{PASSING[3][1]}", True)


def test_known_verify_failure_is_not_a_regression_unless_another_check_fails():
    seed, expected = next((s, c) for s, c in VERIFY_REFERENCE["moving_call"].items()
                          if any(status == "FAIL" for status, _ in c))
    verdict = gate.verify_verdict(1, _verify_stdout(expected), expected)
    assert (verdict.passed, verdict.regression) == (False, False)
    passing = next(k for k, (status, _) in enumerate(expected) if status == "PASS")
    verdict = gate.verify_verdict(1, _verify_stdout(_with_fail(expected, passing)), expected)
    assert (verdict.passed, verdict.regression) == (False, True)


def test_verify_nonzero_exit_and_dropped_check_fail():
    assert gate.verify_verdict(1, _verify_stdout(PASSING), PASSING).label == "exit_1"
    assert gate.verify_verdict(0, _verify_stdout(PASSING[:-1]), PASSING).label == "check_set_changed"


class _InjectedFailures(workloads.Workload):
    """One cycle of four requests that each give a wrong answer, plus one
    correct request."""

    def __init__(self):
        super().__init__(seed=0, work_dir=HERE)
        self.index, self.ref = _priced_position()
        self.figure = gate.load_figure_reference(2)

    def cycle(self, k):
        return [workloads.Request(kind, 0) for kind in
                ("ok", "perturbed", "non_monotone", "fail_line", "raises")]

    def execute(self, req):
        if req.kind == "raises":
            raise OverflowError("math range error")
        return req.kind

    def judge(self, req, result):
        if isinstance(result, BaseException):
            return gate.book_verdict(POOL[self.index], result, self.ref)
        if result in ("ok", "perturbed"):
            scale = 1.0 + (1e-6 if result == "perturbed" else 0.0)
            values = (self.ref[0], self.ref[1], self.ref[2] * scale, self.ref[3])
            return gate.book_verdict(POOL[self.index], values, self.ref)
        if result == "non_monotone":
            rows = self.figure.splitlines()
            broken = rows[:-1] + [rows[-1].split(",")[0] + ",0.0"]
            return gate.figure_verdict(0, "\n".join(broken) + "\n", self.figure)
        return gate.verify_verdict(0, _verify_stdout(_with_fail(PASSING, 0)), PASSING)


def test_runner_counts_every_gate_failure_without_aborting():
    import run

    phase = run.run_cycles(_InjectedFailures(), [_InjectedFailures().cycle(0)], None)
    assert phase.attempted == 5
    assert phase.failed == 4
    assert dict(phase.failures) == {"mismatch": 1, "non_monotone_bond": 1,
                                    f"FAIL:{PASSING[0][1]}": 1, "OverflowError": 1}
    assert phase.regressions == phase.failures

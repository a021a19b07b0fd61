"""Shared pytest plumbing.

Collects the outcome of each acceptance test and prints one pass/fail
line per criterion in the terminal summary, with any measured numbers
the test chose to record.
"""

import os
from pathlib import Path

import pytest

# pyproject's `pythonpath` puts src on this process's path; the CLI tests
# run `python -m smoothloc` in a child, which needs it in the environment
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    str(Path(__file__).resolve().parents[1] / "src"),
    os.environ.get("PYTHONPATH"))))

# acceptance test function -> printable label, in report order
CRITERIA = {
    "test_criterion_01_gaussian_closed_forms":
        "1. gaussian closed forms (pdf/score/fisher)",
    "test_criterion_02_fisher_sandwich":
        "2. fisher information sandwich",
    "test_criterion_03_gaussian_collapse":
        "3. gaussian collapse identity",
    "test_criterion_04_coverage_1d":
        "4. 1-d laplace coverage and sample-mean baseline",
    "test_criterion_05_sawtooth_phase":
        "5. sawtooth phase transition direction",
    "test_criterion_06_coverage_hd":
        "6. high-dimensional coverage",
    "test_criterion_07_norm_concentration":
        "7. subgamma norm concentration",
    "test_criterion_08_score_inversion_bias":
        "8. score-inversion bias scaling",
    "test_criterion_09_subgamma_score_moments":
        "9. subgamma score moments",
    "test_criterion_10_determinism":
        "10. CLI determinism across thread counts",
}

_details: dict = {}


@pytest.fixture
def detail(request):
    """Record a short measured-values string for the summary line."""

    def record(text: str) -> None:
        name = request.node.name.split("[")[0]
        _details[name] = text

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::" not in nodeid:
                continue
            name = nodeid.split("::")[-1].split("[")[0]
            if name in CRITERIA:
                ok = status == "passed"
                outcomes[name] = outcomes.get(name, True) and ok
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for name, label in CRITERIA.items():
        if name not in outcomes:
            continue
        status = "PASS" if outcomes[name] else "FAIL"
        extra = _details.get(name, "")
        suffix = f"  ({extra})" if extra else ""
        terminalreporter.write_line(f"[{status}] {label}{suffix}")

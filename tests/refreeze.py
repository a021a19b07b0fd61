"""Regenerate the frozen test values that depend on the sawtooth's draws.

The tests pin some outputs bit for bit: sha256 digests of sawtooth draws
and CSVs of seeded runs whose models include a sawtooth.  A change that
alters the sawtooth's random streams on purpose changes exactly these
values.  This script recomputes each one with the package in ./src, writes
it over the old literal in its test file, and prints old -> new for the
change's notes.  Every other frozen value is left as it is.

Run from the root of a checkout:

    python tests/refreeze.py

Values regenerated:

- SAWTOOTH_DIGESTS in tests/test_model.py
- FROZEN_1D[3], the sawtooth scan, in tests/test_harness.py
- FROZEN_HD[1], the product with a sawtooth(0.05,4) column, in
  tests/test_harness.py
"""

from __future__ import annotations

import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

import test_harness  # noqa: E402
import test_model  # noqa: E402
from smoothloc import run_coverage_hd  # noqa: E402


def _replace(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{path.name}: the old value is not there exactly once")
    path.write_text(text.replace(old, new))


def main() -> None:
    model_py = TESTS / "test_model.py"
    for (w, slope), old in test_model.SAWTOOTH_DIGESTS.items():
        new = test_model.sawtooth_digest(w, slope)
        print(f"SAWTOOTH_DIGESTS[({w}, {slope})]: {old} -> {new}")
        if new != old:
            _replace(model_py, old, new)

    harness_py = TESTS / "test_harness.py"
    run, kw, old = test_harness.FROZEN_1D[3]
    new = run(threads=1, **kw).to_csv()
    print(f"FROZEN_1D[3]:\n{old}->\n{new}")
    if new != old:
        _replace(harness_py, old, new)
    kw, old = test_harness.FROZEN_HD[1]
    new = run_coverage_hd(threads=1, **kw).to_csv()
    print(f"FROZEN_HD[1]:\n{old}->\n{new}")
    if new != old:
        _replace(harness_py, old, new)


if __name__ == "__main__":
    main()

"""Read CLI artifacts by value and check them, one check per workload.

The reader does not depend on layout.  ``rows`` may be a list of objects
or an object of columnar arrays, and ``NaN`` and ``null`` both read as NaN.
A check returns ``None`` when the artifact is correct and a reason when
it is not.

The ``dist`` check compares the artifact with the in-process law bit for
bit, and its survival column with the first-passage oracle within
``ORACLE_TOL`` (see ``perfbench/NOTES.md`` for why that tolerance).
"""

from __future__ import annotations

import math

import numpy as np

# Absolute tolerance between the artifact's survival values and the
# first-passage oracle at N = 1e6.  The measured gap is 2.8e-9 at rho = 0.5
# and comes from the oracle's cumulative-sum drift, not from the closed form.
ORACLE_TOL = 1e-7


def _data(doc: dict) -> dict:
    return doc.get("data", doc)


def column(doc: dict, name: str) -> np.ndarray:
    """One column of the artifact's rows, as floats."""
    data = _data(doc)
    rows = data.get("rows", data)
    values = [row[name] for row in rows] if isinstance(rows, list) else rows[name]
    return np.array([math.nan if v is None else v for v in values], dtype=float)


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit for bit, except that any two NaNs match (JSON keeps no NaN payload)."""
    if a.shape != b.shape:
        return False
    return bool(np.all((a.view(np.uint64) == b.view(np.uint64)) | (np.isnan(a) & np.isnan(b))))


def dist_check(n: int, rho: float):
    """Check of ``dist --n n --rho rho`` against this commit's in-process law."""
    from bdheight import exactdist, make_params, oracle

    p = make_params(n, rho=rho)
    law = exactdist.height_distribution(p)
    survival = law.survival_values()
    pmf = np.array(law.pmf, dtype=float)
    first_passage = oracle.height_dist_oracle(p, cap=n)

    def check(doc: dict) -> str | None:
        k = column(doc, "k")
        order = np.argsort(k, kind="stable")
        if not np.array_equal(k[order], np.arange(1, n + 1)):
            return f"rows do not hold k = 1..{n} once each"
        got_survival = column(doc, "survival")[order]
        if not _bits_equal(got_survival, survival):
            return "survival differs from exactdist.height_distribution"
        if not _bits_equal(column(doc, "pmf")[order], pmf):
            return "pmf differs from exactdist.height_distribution"
        gap = float(np.max(np.abs(got_survival - first_passage)))
        if not gap <= ORACLE_TOL:
            return f"survival is {gap:.3g} from the oracle (tolerance {ORACLE_TOL:g})"
        return None

    return check


def verify_check(doc: dict) -> str | None:
    data = _data(doc)
    if data.get("passed") is not True or data.get("n_failed") != 0:
        return f"verify reports passed={data.get('passed')!r}, n_failed={data.get('n_failed')!r}"
    return None


def simulate_check(samples: int):
    def check(doc: dict) -> str | None:
        total = column(doc, "count").sum()
        if total != samples:
            return f"counts sum to {total:g}, not {samples}"
        return None

    return check


def oracle_gap(laws) -> float:
    """Largest |closed form - first-passage oracle| over the survival values of ``laws``."""
    from bdheight import exactdist, make_params, oracle

    gap = 0.0
    for n, rho in laws:
        p = make_params(n, rho=rho)
        exact = exactdist.height_distribution(p).survival_values()
        gap = max(gap, float(np.max(np.abs(exact - oracle.height_dist_oracle(p, cap=n)))))
    return gap

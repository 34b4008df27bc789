"""Correctness checks on estimate reports, independent of rieszreg's code.

Reports are checked in their JSON form, the layout of
``EstimateReport.to_dict`` that the CLI writes; in-process reports are
converted with ``to_dict`` first, so both paths check the same layout. Each
check returns a list of human-readable problems; an empty list means the
report passed.
"""

from __future__ import annotations

import math
import sys
from statistics import NormalDist

import numpy as np

IDENTITY_RTOL = 1e-12
CI_RTOL = 1e-9


def headline(view: dict) -> float:
    contrast = view["contrast"]
    return contrast["difference"] if contrast is not None else view["theta_hat"]


def corrupt_headline(view: dict) -> None:
    """Self-test hook: shift the reported headline so the checks must fail."""
    if view["contrast"] is not None:
        view["contrast"]["difference"] += 1.0
    else:
        view["theta_hat"] += 1.0


def _close(a: float, b: float, rtol: float, *scale: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b), *(abs(s) for s in scale))


def _check_interval(tag: str, center: float, se: float, ci: dict) -> list[str]:
    """Both half-widths equal z(level)*se, relative to the half-width (plus
    the rounding of subtracting the center)."""
    if not (math.isfinite(se) and se > 0):
        return [f"{tag}: standard error {se!r} is not finite and positive"]
    half = NormalDist().inv_cdf(0.5 + ci["level"] / 2.0) * se
    slack = CI_RTOL * half + 4 * sys.float_info.epsilon * abs(center)
    return [f"{tag}: {side} half-width {width!r} != z*se {half!r}"
            for side, width in (("upper", ci["hi"] - center), ("lower", center - ci["lo"]))
            if not abs(width - half) <= slack]


def check_arm(view: dict, tag: str = "report") -> list[str]:
    """Bookkeeping identity, finite influence values and a symmetric CI."""
    eif = np.asarray(view["eif_values"], dtype=np.float64)
    if not np.all(np.isfinite(eif)):
        return [f"{tag}: influence values are not all finite"]
    gap = view["theta_hat"] - view["plug_in"]
    mean = float(np.mean(eif))
    problems = []
    if not _close(gap, mean, IDENTITY_RTOL, view["theta_hat"], view["plug_in"]):
        problems.append(f"{tag}: theta_hat - plug_in = {gap!r} but mean(eif) = {mean!r}")
    return problems + _check_interval(tag, view["theta_hat"], view["std_error"], view["ci"])


def check_report(view: dict) -> list[str]:
    """Every arm, plus the contrast identities when the report has two arms."""
    problems = check_arm(view, "arm hi" if view["contrast"] is not None else "report")
    contrast = view["contrast"]
    if contrast is None:
        return problems
    other = contrast["other"]
    problems += check_arm(other, "arm lo")
    expected = view["theta_hat"] - other["theta_hat"]
    if not _close(contrast["difference"], expected, IDENTITY_RTOL,
                  view["theta_hat"], other["theta_hat"]):
        problems.append(f"contrast: difference {contrast['difference']!r} != "
                        f"theta_hi - theta_lo {expected!r}")
    eif_hi = np.asarray(view["eif_values"], dtype=np.float64)
    eif_lo = np.asarray(other["eif_values"], dtype=np.float64)
    eif_diff = np.asarray(contrast["eif_values"], dtype=np.float64)
    if eif_diff.shape != eif_hi.shape or not np.allclose(
            eif_diff, eif_hi - eif_lo, rtol=IDENTITY_RTOL, atol=IDENTITY_RTOL):
        problems.append("contrast: influence values != eif_hi - eif_lo")
    problems += _check_interval("contrast", contrast["difference"], contrast["std_error"],
                                contrast["ci"])
    return problems


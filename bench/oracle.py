"""Closed forms the benchmark checks the program's outputs against.

They are written from the paper's formulas (the family table and the
symmetric identities V_cvf = V_cv+- = N, T_s+- = g^2 v / (g^2 v + N)),
not from the package's code paths, so a wrong program result shows up as
a mismatch.  Values agree to REL_TOL; a region or boolean whose deciding
quantity lies within BOUNDARY_TOL of its threshold may take either side.
"""

from __future__ import annotations

REL_TOL = 1e-9
BOUNDARY_TOL = 1e-9
SNAP = 1e-12  # the program's documented guard band at region and bound thresholds

CRITERIA = ("ts_plus", "ts_minus", "t_t", "c_plus", "c_minus", "vcv_plus", "vcv_minus", "v_t", "c_f", "v_cvf")


def family_noise(family: str, gain: float, resource: float | None) -> float:
    """Added noise per quadrature of a built-in family (paper's table)."""
    if family == "epr":
        return (1 + gain) ** 2 * resource / 2 + (1 - gain) ** 2 / (2 * resource)
    if family == "single_mode":
        return (1 + gain) ** 2 * (1 + resource) / 4 + (1 - gain) ** 2 * (1 + 1 / resource) / 4
    if family == "classical":
        return 1 + gain**2
    raise ValueError(f"no closed form for family {family!r}")


def terms_noise(terms) -> float:
    """Added noise of a custom map given as (mode_id, coefficient, variance)."""
    return sum(c * c * v for _, c, v in terms)


def close(value: float, expected: float) -> bool:
    return abs(value - expected) <= REL_TOL * max(1.0, abs(expected))


def sides(value: float, threshold: float) -> set[bool]:
    """Acceptable answers to ``value >= threshold``."""
    if abs(value - threshold) <= BOUNDARY_TOL:
        return {True, False}
    return {value >= threshold}


def regions(v_cvf: float) -> set[str]:
    """Acceptable region labels for a field conditional variance."""
    labels = set()
    for v in (v_cvf - BOUNDARY_TOL, v_cvf, v_cvf + BOUNDARY_TOL):
        if v >= 2.0 - SNAP:
            labels.add("Classical")
        elif v >= 1.0 - SNAP:
            labels.add("Intermediate")
        else:
            labels.add("Strong")
    return labels


def _transfer(gain: float, v_in: float, noise: float) -> float:
    signal = gain * gain * v_in
    return 0.0 if signal == 0.0 else signal / (signal + noise)


def criteria(
    gain_plus: float,
    noise_plus: float,
    v_plus: float,
    gain_minus: float,
    noise_minus: float,
    v_minus: float,
    symmetric_noise: bool,
) -> dict[str, float]:
    """Every criterion of a two-quadrature linear map.

    With ``symmetric_noise`` (a built-in family, same gain and noise on both
    quadratures) V_cvf is the paper's identity V_cvf = N; otherwise it is
    (V_out+ + V_out- - (cov+ + cov-)^2 / (V_in+ + V_in-)) / 2.
    """
    ts_p = _transfer(gain_plus, v_plus, noise_plus)
    ts_m = _transfer(gain_minus, v_minus, noise_minus)
    cov_sum = gain_plus * v_plus + gain_minus * v_minus
    v_out_sum = gain_plus**2 * v_plus + noise_plus + gain_minus**2 * v_minus + noise_minus
    if symmetric_noise:
        v_cvf = noise_plus
    else:
        v_cvf = 0.5 * (v_out_sum - cov_sum * cov_sum / (v_plus + v_minus))
    return {
        "ts_plus": ts_p,
        "ts_minus": ts_m,
        "t_t": ts_p + ts_m,
        "c_plus": ts_p,
        "c_minus": ts_m,
        "vcv_plus": noise_plus,
        "vcv_minus": noise_minus,
        "v_t": 0.5 * (noise_plus + noise_minus),
        "c_f": cov_sum * cov_sum / ((v_plus + v_minus) * v_out_sum),
        "v_cvf": v_cvf,
    }


def optimal_gain_epr(resource: float) -> tuple[float, float]:
    """EPR gain minimizing V_cvf and the minimum: (1-v^2)/(1+v^2), 2v/(1+v^2)."""
    return (1 - resource**2) / (1 + resource**2), 2 * resource / (1 + resource**2)


def bell(s_i: float, gain: float, v_cvf: float) -> float | None:
    """Clauser-Horne S after teleportation; None where it is undefined."""
    denominator = (v_cvf - 1) + 2 * gain * gain
    if abs(denominator) <= BOUNDARY_TOL:
        return None
    return ((v_cvf - 1) / 2 + gain * gain * (s_i + 0.5)) / denominator

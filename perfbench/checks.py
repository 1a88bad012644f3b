"""Output checks computed apart from dicap, from closed forms of our own.

Each check returns (name, passed, detail). The closed forms:

- feedforward MA(1) capacity: water-filling fills the whole noise spectrum
  when P >= 2|alpha|, so C = 1/2 ln(P + 1 + alpha^2);
- feedback MA(1) capacity (Y.-H. Kim, IEEE T-IT 2006): C = -ln x0, with x0
  the root in (0, 1) of P x^2 - (1 - x^2)(1 - |alpha| x)^2, found with numpy's
  polynomial root finder;
- DI rate of i.i.d. N(0, P) input through MA(1) noise:
  R = 1/2 ln((a + sqrt(a^2 - 4 alpha^2)) / 2) with a = 1 + alpha^2 + P.
"""

import math

import numpy as np

BASELINE_TOL = 1e-9
POWER_TOL = 1e-6
DI_REL_TOL = 0.10      # acceptance criterion 3


def ff_capacity(power, alpha):
    if power < 2 * abs(alpha):
        raise ValueError("closed form needs P >= 2|alpha|")
    return 0.5 * math.log(power + 1 + alpha * alpha)


def fb_capacity(power, alpha):
    a = abs(alpha)
    quartic = np.polysub([power, 0.0, 0.0],
                         np.polymul([-1.0, 0.0, 1.0], np.polymul([-a, 1.0], [-a, 1.0])))
    roots = [r.real for r in np.roots(quartic)
             if abs(r.imag) < 1e-12 and 0.0 < r.real < 1.0]
    if len(roots) != 1:
        raise ValueError(f"expected one root in (0, 1), got {roots}")
    return -math.log(roots[0])


def di_rate(power, alpha):
    a = 1 + alpha * alpha + power
    return 0.5 * math.log((a + math.sqrt(a * a - 4 * alpha * alpha)) / 2)


def capacity_checks(rec, feedback, power, alpha, samples_requested):
    """The five report checks of one capacity round."""
    rep = rec["report"]
    cap = fb_capacity(power, alpha) if feedback else ff_capacity(power, alpha)
    upper = cap + max(0.03, 0.1 * cap)
    base = rep["baseline_nats"]
    est = rep["capacity_nats"]
    return [
        ("baseline_closed_form",
         base is not None and abs(base - cap) <= BASELINE_TOL,
         f"baseline {base!r} vs closed form {cap!r}"),
        ("not_failed", not rep["failed"], rep["failure_reason"]),
        ("estimate_range", 0.0 < est <= upper,
         f"estimate {est!r} not in (0, {upper!r}]"),
        ("realized_power", abs(rep["realized_power"] - power) <= POWER_TOL,
         f"realized power {rep['realized_power']!r} vs {power!r}"),
        ("eval_samples", rep["eval_samples"] >= samples_requested,
         f"{rep['eval_samples']} evaluation samples < {samples_requested}"),
    ]


def di_checks(rec, power, alpha, rows):
    """The two report checks of one di_estimate round."""
    rep = rec["report"]
    rate = di_rate(power, alpha)
    est = rep["estimate_nats"]
    rel = abs(est - rate) / rate
    return [
        ("di_rate", rel <= DI_REL_TOL,
         f"estimate {est!r} vs closed form {rate!r}: rel err {rel:.3f}"),
        ("eval_covers_file", rep["samples"] == rows,
         f"{rep['samples']} evaluation samples, file has {rows} rows"),
    ]

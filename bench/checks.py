"""Correctness checks applied to the result of every benchmark op.

An op *fails* when it raised, when ``cli.main`` returned nonzero, when its
output does not parse, or when a determinism twin differs.  Separately, each
quantity a library op simulates gets a z-score against its closed form; one
more than ``Z_LIMIT`` standard errors away is an *outlier*.  Outliers are
reported, not counted as failures, because the model has one known bias that
the benchmark must keep showing (see :func:`known_bias`).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

QUANTITIES = ("p_t", "p_cond", "psnr", "qber", "g2", "car", "herald_rate_hz")
Z_LIMIT = 5.0
# A 5-SE limit rests on the normal approximation, which needs ~25 expected
# counts; a count fraction's relative null SE is 1/sqrt(expected count), so
# quantities with a larger relative SE are skipped: one count where 0.01 were
# expected is a 1% event but reads as z = 10.
MAX_REL_SE = 0.2


@dataclass
class Outcome:
    """What one op produced, as far as the checks are concerned.

    ``zs`` holds ``(quantity, z, known_bias)`` for each checked quantity;
    ``skipped`` counts quantities left unchecked (see :func:`check_estimates`).
    """

    error: str | None = None
    zs: list = field(default_factory=list)
    skipped: int = 0

    def outliers(self) -> list:
        return [(q, z, known) for q, z, known in self.zs if abs(z) > Z_LIMIT]


def known_bias(quantity: str, config) -> bool:
    """True where the closed form is known to be biased for this config.

    Under receiver deadtime the HBT estimate H*nc/(n2*n3) grows as one over
    the live fraction, so g2 reads high against its prediction.
    """
    return quantity == "g2" and config.apply_receiver_deadtime


def check_estimates(est, pred: dict, errs: dict, config) -> Outcome:
    """z-scores of a ``MetricsEstimate`` against ``analytic_predictions``.

    The SE is the null SE of ``analytic_std_errs``, as in the CLI's
    ``z_score`` column: an estimate's own first-order SE shrinks with its
    counts, so at a few counts it turns chance into many-sigma outliers.
    Quantities the run did not measure are ignored; those predicted None or
    non-finite, or with no SE or too few expected counts, are skipped.
    """
    out = Outcome()
    for q in QUANTITIES:
        e, p, se = getattr(est, q), pred[q], errs[q]
        if e is None:
            continue
        if (p is None or se is None or not (math.isfinite(p) and math.isfinite(e.value))
                or not 0.0 < se <= MAX_REL_SE * abs(p)):
            out.skipped += 1
            continue
        z = (e.value - p) / se
        if q == "p_cond" and config.apply_receiver_deadtime:
            # the prediction ignores receiver deadtime, so it is only an upper bound
            z = max(z, 0.0)
        out.zs.append((q, z, known_bias(q, config)))
    return out


def check_counts(counts, config) -> str | None:
    """Invariants every ``RunCounts`` must meet; the failure reason or None."""
    if counts.slots != config.n_slots:
        return f"slots {counts.slots} != n_slots {config.n_slots}"
    if counts.gated_slots > counts.slots:
        return "gated_slots exceeds slots"
    return None


def parse_csv(text: str) -> list[dict]:
    """Rows of a CLI CSV as dicts; ValueError when the table is malformed."""
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2 or not rows[0]:
        raise ValueError("CSV has no header or no data rows")
    header = rows[0]
    for i, row in enumerate(rows[1:], 1):
        if len(row) != len(header):
            raise ValueError(f"CSV row {i} has {len(row)} cells, header has {len(header)}")
    return [dict(zip(header, row)) for row in rows[1:]]


def check_cli(command: str, fmt: str, code: int, text: str) -> Outcome:
    """Exit status and parse of one CLI call; every ``reproduce`` row must pass.

    The CLI simulations run at a few tens of counts, too few for z checks.
    """
    if code != 0:
        return Outcome(error=f"exit code {code}")
    try:
        if fmt == "json":
            json.loads(text)
        else:
            rows = parse_csv(text)
            if command == "reproduce" and any(r["status"] != "PASS" for r in rows):
                return Outcome(error="reproduce check not PASS")
    except (ValueError, KeyError) as exc:
        return Outcome(error=f"unparseable output: {exc}")
    return Outcome()

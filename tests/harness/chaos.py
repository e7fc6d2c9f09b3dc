"""Test-side facade over the chaos campaign (``repro.harness.chaos``).

The campaign implementation lives in :mod:`repro.harness.chaos` so that
``python -m repro chaos`` ships with the package; this module is the
stable import point the test-suite (and this directory's README-level
docs) use, mirroring :mod:`tests.harness.faults` for the single-process
fault injectors.  It re-exports the campaign entry points and adds the
small pinned configurations the acceptance tests run.
"""

from __future__ import annotations

from repro.harness.chaos import (
    DEFAULT_PACE,
    FAULT_KINDS,
    PACE_ENV,
    ChaosReport,
    FaultRecord,
    campaign_specs,
    child_main,
    paced_worker,
    run_campaign,
)

__all__ = [
    "DEFAULT_PACE",
    "FAULT_KINDS",
    "PACE_ENV",
    "ChaosReport",
    "FaultRecord",
    "campaign_specs",
    "child_main",
    "paced_worker",
    "run_campaign",
    "smoke_campaign",
]

#: The pinned configuration the acceptance test and CI smoke job run:
#: small enough to converge in well under a minute, disturbed enough
#: (five faults across two workers) to mean something.
SMOKE_SEED = 1302
SMOKE_BUDGET = 5


def smoke_campaign(root=None, log=None) -> ChaosReport:
    """Run the pinned smoke campaign used by tests and CI."""
    return run_campaign(
        seed=SMOKE_SEED,
        budget=SMOKE_BUDGET,
        root=root,
        workers=2,
        jobs=2,
        scale=0.05,
        log=log,
    )

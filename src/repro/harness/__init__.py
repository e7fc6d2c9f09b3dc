"""Experiment harness: run benchmark x prefetcher x config grids and
reproduce each of the paper's figures and tables.

The harness is layered: :mod:`repro.harness.sweep` provides the parallel
sweep engine and the persistent result cache, :mod:`repro.harness.runner`
normalizes run requests and memoizes results through it,
:mod:`repro.harness.experiments` defines the per-figure grids, and
:mod:`repro.harness.perf` benchmarks the simulator hot path itself.
:mod:`repro.harness.coordinate` lets concurrent sweep processes sharing
one cache partition uncached work via work-claim leases,
:mod:`repro.harness.fsck` audits every durable artifact the harness
writes, and :mod:`repro.harness.chaos` runs the crash-consistency
campaign.  The package re-exports nothing: import names from their
modules, and each ``repro`` command imports only the modules it runs.
"""

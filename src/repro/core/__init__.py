"""The paper's primary contribution: MT-prefetching mechanisms.

This subpackage contains everything Section III-V of the paper proposes or
compares against, independent of the timing simulator:

* baseline CPU-style hardware prefetchers (stride RPT, per-PC stride, stream,
  GHB AC/DC) in naive and warp-id-enhanced ("many-thread aware trained")
  forms — Table V;
* the many-thread aware hardware prefetcher **MT-HWP** with its PWS, GS
  (stride promotion) and IP (hardware inter-thread) tables — Fig. 6;
* the adaptive prefetch **throttle engine** driven by early-eviction rate and
  merge ratio — Table I;
* feedback-directed baselines **GHB+F** and **StridePC+T** — Section VIII-C;
* the **MTAML** analytical model of useful/neutral/harmful prefetching —
  Section IV.

The package re-exports nothing; import names from their modules.
"""

"""The paper's contribution: Crusader Pulse Synchronization and Theorem 5.

* :mod:`repro.core.params` — parameter derivation (Theorem 17/Corollary 4);
* :mod:`repro.core.tcb` — timed crusader broadcast (Figure 2);
* :mod:`repro.core.cps` — the pulse-synchronization protocol (Figure 3);
* :mod:`repro.core.attacks` — Byzantine strategies tailored to CPS;
* :mod:`repro.core.lower_bound` — the executable Theorem 5 construction;
* :mod:`repro.core.synchronizer` — the round-simulation application the
  introduction motivates.
"""

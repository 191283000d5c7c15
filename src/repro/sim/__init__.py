"""Timed discrete-event simulation substrate.

This package realizes the paper's network and timing model:

* :mod:`repro.sim.clocks` — hardware clocks with rates in ``[1, theta]``;
* :mod:`repro.sim.network` — delays in ``[d - u, d]`` (``[d - u_tilde, d]``
  on links with a faulty endpoint), adversary-controlled via delay policies;
* :mod:`repro.sim.scheduler` — the deterministic event loop tying together
  honest protocol state machines and a Byzantine behaviour;
* :mod:`repro.sim.knowledge` — enforcement of signature unforgeability
  against the adversary;
* :mod:`repro.sim.trace` — structured execution records.
"""

"""Synchronous-round substrate and protocols (Section 2 of the paper).

Provides the compute-send-receive round engine with a rushing adversary,
crusader broadcast (Algorithm CB, Figure 4) and iterated approximate agreement
(Algorithm APA, Figure 1 / Theorem 9 / Corollary 2).
"""

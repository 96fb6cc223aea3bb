"""Challenge-response compute telemetry toolkit.

Measures whether a remote worker actually performs the computation it
claims to, using four probe families (memory-hard proof of work,
sequential-squaring delay functions, hash-chained matrix puzzles, and
memory-residency timing probes) combined with exponential and Poisson
decision tests on the observed solve times.

``import gputelem`` imports no submodule: import the ones you use
(``from gputelem import protocol``), so numpy and the cryptographic
backends load only with the probes that need them.
"""

__version__ = "0.1.0"

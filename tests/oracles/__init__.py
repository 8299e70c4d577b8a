"""Reference implementations and pinned outputs that only tests use.

- :mod:`tests.oracles.dense` — the dense all-pairs distance build, the
  parity reference for the lazy row backend;
- :mod:`tests.oracles.golden` — canonical solver outputs recorded before
  the distance tiers were collapsed into one, asserted bit-for-bit.
"""

"""Link-level HARQ simulator for land-mobile-satellite channels.

The package models a saturated forward link over a three-state LMS
channel with GEO feedback delay and compares incremental-redundancy
retransmission policies: a fixed equal-split table, a statically
optimized table, and a receiver-driven adaptive policy based on
accumulated mutual information.
"""

__version__ = "0.1.0"

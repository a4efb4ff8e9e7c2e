"""Heterogeneous core pools and energy accounting for the FM simulator.

Generalizes the engine from ``N`` identical cores to typed pools
(big/little, optional DVFS states) with a deterministic per-pool
energy accounting.  See DESIGN.md §12.
"""

from repro.hetero.energy import EnergyReport, PoolEnergy
from repro.hetero.pools import CorePool, DVFSState, Topology

__all__ = [
    "CorePool",
    "DVFSState",
    "Topology",
    "PoolEnergy",
    "EnergyReport",
]

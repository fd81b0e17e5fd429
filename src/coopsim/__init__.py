"""Adaptive physical-layer relay cooperation toolkit.

Submodules:
  topology  - Rayleigh link statistics, channel sampling, schedules
  outage    - cut-set capacity approximation, outage bounds, subnetwork search
  netsim    - two-phase cooperative frame simulation
  selection - LEARN / SPA adaptive mode selection and baseline policies
  ensemble  - ensemble-average policy evaluation over recorded datasets
  macemu    - trace-driven MAC emulation and genie-aided routing oracle
  cli       - experiment runner (`coopsim` entry point)
"""

__version__ = "0.3.0"

from .netsim import Mode, Strategy, enumerate_modes
from .selection import LearnParams, RankedModeList, SpaParams
from .topology import Topology, TopologySchedule

__all__ = [
    "__version__",
    "LearnParams",
    "Mode",
    "RankedModeList",
    "SpaParams",
    "Strategy",
    "Topology",
    "TopologySchedule",
    "enumerate_modes",
]

"""Deterministic simulation and verification of output-mask privacy in
continuous-time multiagent dynamics.

The modules are the API, one per layer: netgraph, masks, dynamics, solver,
analysis, adversary, scenario and cli.
"""

__version__ = "0.1.0"

"""Payment-channel-network routing engine.

Distributed push-relabel routing over a deterministic message-passing
simulator, verified against sequential max-flow oracles, with encrypted
sink-to-source flow reporting and scale-free benchmark tooling.
"""

__version__ = "0.1.0"

from .graph import Channel, ChannelGraph, FlowAssignment
from .oracle import OracleResult, is_feasible, maxflow_augmenting
from .protocol import NodeState, RoutingOutcome, init_instance
from .sim import LatencyModel, SimConfig, Simulator, run
from .decompose import decompose, cancel_cycles
from .report import ReconstructedFlow, ReportPacket, reconstruct, run_report
from .topology import (
    BAConfig,
    Transaction,
    WorkloadConfig,
    generate_ba,
    generate_workload,
)
from .netfile import load_network, save_network

__all__ = [
    "Channel",
    "ChannelGraph",
    "FlowAssignment",
    "OracleResult",
    "is_feasible",
    "maxflow_augmenting",
    "NodeState",
    "RoutingOutcome",
    "init_instance",
    "LatencyModel",
    "SimConfig",
    "Simulator",
    "run",
    "decompose",
    "cancel_cycles",
    "ReconstructedFlow",
    "ReportPacket",
    "reconstruct",
    "run_report",
    "BAConfig",
    "Transaction",
    "WorkloadConfig",
    "generate_ba",
    "generate_workload",
    "load_network",
    "save_network",
]

"""Violating fixture: a controller that reads and programs the live network itself
(the imports ``core/controller.py`` and ``core/rate_control.py`` once had)."""

from repro.core.capacity import CapacityModel
from repro.net.shaper import TokenBucketShaper
from repro.sim.network import MeshNetwork, TcpFlowHandle, UdpFlowHandle
from ..experiment import ExperimentSpec
from repro.net import shaper
import repro.transport.tcp

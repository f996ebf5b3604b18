"""Clean fixture: core reads plain data and the layers below the simulator."""

import numpy as np

from repro.core.capacity import CapacityModel
from repro.mac.constants import MacConfig
from repro.net.routing import FlowRoute, first_use_links
from repro.phy.radio import PhyRate
from . import utility
from .. import simulation_free

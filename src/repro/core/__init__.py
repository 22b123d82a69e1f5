"""The paper's contribution: automatic configuration of RouteFlow.

The root is lazy (see :func:`repro._lazy_exports`): ``repro.core.ipam``,
which the topology emulator imports, must not drag in
:mod:`repro.core.autoconfig`, which imports the emulator.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "autoconfig": ("AutoConfigFramework", "FrameworkConfig"),
    "config_messages": ("ConfigMessage", "ConfigMessageError",
                        "EdgePortConfigMessage", "LinkConfigMessage",
                        "SwitchConfigMessage", "SwitchRemovedMessage"),
    "gui": ("ConfigurationGUI", "SwitchColor", "SwitchView"),
    "ipam": ("EdgeAddressing", "IPAddressManager", "IPAMError",
             "LinkAddressing"),
    "manual_model": ("ManualConfigurationModel",),
    "rpc": ("RPCClient", "RPCServer"),
    "topology_controller": ("TopologyControllerApp",
                            "build_topology_controller"),
})

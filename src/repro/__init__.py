"""Reproduction of "Automatic Configuration of Routing Control Platforms in
OpenFlow Networks" (Sharma et al., SIGCOMM 2013 demo).

The package is organised by substrate:

* :mod:`repro.sim` — discrete-event simulation kernel
* :mod:`repro.net` — addresses, packet codecs, links, hosts
* :mod:`repro.openflow` — OpenFlow 1.0 codec, flow tables, software switch
* :mod:`repro.controller` — controller framework + LLDP topology discovery
* :mod:`repro.flowvisor` — flowspace-based slicing proxy
* :mod:`repro.quagga` — zebra RIB, OSPFv2, simplified BGP, config files
* :mod:`repro.routeflow` — VMs, RFClient/RFServer/RFProxy, virtual switch
* :mod:`repro.core` — the paper's automatic-configuration framework
* :mod:`repro.topology` — topology generators, pan-European map, emulator
* :mod:`repro.app` — video streaming, ping, traffic generators
* :mod:`repro.experiments` — harness reproducing Figure 3 and the demo

The names below are imported on first use (:func:`_lazy_exports`), so
``import repro.sim`` loads the kernel and nothing else.
"""

import importlib
import sys
from typing import Callable, Dict, List, Tuple

__version__ = "1.0.0"


def _lazy_exports(package: str, exports: Dict[str, Tuple[str, ...]]
                  ) -> Tuple[Callable[[str], object], Callable[[], List[str]],
                             List[str]]:
    """``(__getattr__, __dir__, __all__)`` of a package root that
    re-exports ``exports`` (submodule, relative to ``package`` -> the names
    it defines) and imports each submodule on first access of one of its
    names (PEP 562).

    Used by :mod:`repro`, :mod:`repro.core` and :mod:`repro.experiments`:
    an eager root would load every submodule, and everything those
    import, before the one submodule its importer asked for.
    """
    owners = {name: f"{package}.{module}"
              for module, names in exports.items() for name in names}
    root = sys.modules[package]

    def __getattr__(name: str) -> object:
        if name not in owners:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(owners[name]), name)
        setattr(root, name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(root)) | set(owners))

    return __getattr__, __dir__, sorted(owners)


__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "core.autoconfig": ("AutoConfigFramework", "FrameworkConfig"),
    "core.ipam": ("IPAddressManager",),
    "core.manual_model": ("ManualConfigurationModel",),
    "experiments.config_time": ("run_config_time_sweep",
                                "run_single_configuration"),
    "experiments.demo": ("run_demo",),
    "sim": ("Simulator",),
    "topology.emulator": ("EmulatedNetwork",),
    "topology.generators": ("ring_topology",),
    "topology.pan_european": ("pan_european_topology",),
})
__all__.append("__version__")

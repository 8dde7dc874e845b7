"""The reconfigurable fabric substrate.

Models the FPGA side of an ECOSCALE Worker: partially-reconfigurable
regions, configuration frames and bitstreams (with real compression, per
Koch et al. [11]), a GoAhead-style floorplanner [10] that turns synthesized
netlist resource demands into minimal bounding boxes, a module library,
and the configuration port through which partial bitstreams are loaded.

Fine-grain sharing -- "a function implemented in hardware can be 'called'
by different tasks or threads ... in parallel, through the Virtualization
block" (Section 4.1) -- is modelled by
:class:`~repro.fabric.virtualization.VirtualizedAccelerator`, which
pipelines invocations from many callers at the module's initiation
interval.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "bitstream": (
        "Bitstream CompressedBitstream compress_rle decompress_rle "
        "synthesize_config_data"
    ),
    "floorplan": "Floorplanner Placement TileGrid",
    "module_library": "AcceleratorModule ModuleLibrary",
    "region": "Fabric Region RegionState",
    "reconfiguration": "ConfigPort ReconfigurationController",
    "resources": "ResourceVector",
    "scrubber": "ConfigScrubber UpsetRecord",
    "virtualization": "Invocation VirtualizedAccelerator",
})

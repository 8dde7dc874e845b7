"""The ECOSCALE middleware (Fig. 2, middle layer).

"The middleware will play two main roles, namely providing the
partial-reconfiguration toolset and the SW-HW communication library"
(Section 4.3):

- :class:`PartialReconfigDriver` -- the low-level driver backend with the
  virtualization features the paper lists: "defragmenting the
  reconfigurable resources, accelerator migration, and pre-emptive
  hardware execution".
- :class:`HardwareCallLibrary` -- "a communication library and API in
  order to call any function that is implemented in hardware", with the
  user-level (SMMU-mediated) and OS-mediated paths of Fig. 4.
- :class:`AcceleratorChain` -- "chaining together different accelerator
  modules for building longer complex processing pipelines", the
  energy-saving composition of Section 4.3.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "chaining": "AcceleratorChain ChainCost",
    "comm": "CallPath HardwareCallLibrary",
    "driver": "DefragReport PartialReconfigDriver",
})

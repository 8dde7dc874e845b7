"""The ECOSCALE high-level synthesis tool.

Extends the FASTCUDA-style flow the paper describes (Section 4.3): from a
"non-hardware specific OpenCL model" of a kernel, the tool

- estimates timing and FPGA resources (:mod:`repro.hls.estimator`),
- applies "high-performance hardware implementation techniques, such as
  pipelining, loop unrolling, as well as data storage and data-path
  partitioning and duplication" (:mod:`repro.hls.transforms`),
- automatically explores the "huge cost/performance trade-off space"
  under user area/performance constraints (:mod:`repro.hls.dse`),
- and emits placed, bitstream-backed accelerator modules into the
  runtime's module library (:mod:`repro.hls.synthesis`).

The kernel IR (:mod:`repro.hls.ir`) is deliberately coarse: per-iteration
operation mix, loop nest trip counts, array access counts and loop-carried
recurrences -- exactly the features a real HLS scheduler's II/resource
models consume.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "dse": "DesignPoint DesignSpaceExplorer pareto_front",
    "estimator": "Estimate HlsEstimator OP_COSTS",
    "frontend": "ParseError parse_kernel",
    "ir": "ArrayArg Kernel OpKind",
    "kernels": (
        "cart_split_kernel fir_kernel matmul_kernel montecarlo_kernel saxpy_kernel "
        "stencil_kernel vecadd_kernel"
    ),
    "software": "SoftwareCostModel",
    "synthesis": "HlsTool SynthesisConstraints",
    "transforms": "HlsConfig",
})

"""Workload designs: the paper's example, real kernels and the synthetic
industrial-design generator used for the evaluation section.

:data:`WORKLOAD_REGISTRY` is the single catalog of addressable kernels;
the CLI, flows and benchmarks resolve names through it, and
:func:`register_workload` lets downstream code add entries.
"""

from typing import Callable, Dict

from repro.cdfg.region import Region
from repro.workloads.conv2d import (
    build_conv3x3,
    build_conv3x3_mem,
    reference_conv3x3_mem,
)
from repro.workloads.example1 import build_example1
from repro.workloads.fft import build_fft8, build_fft_stage
from repro.workloads.fir import build_fir, reference_fir
from repro.workloads.idct import build_idct8, build_idct2d
from repro.workloads.matmul import (
    build_dot_product,
    build_dot_product_mem,
    reference_dot_product,
    reference_dot_product_mem,
)
from repro.workloads.sobel import (
    build_sobel,
    build_sobel_mem,
    reference_sobel,
    reference_sobel_mem,
)
from repro.workloads.streaming import (
    build_fir_decimate_stream,
    build_matmul_relu_stream,
    build_sobel_threshold_stream,
    fir_samples,
    matmul_relu_inputs,
    reference_fir_decimate_stream,
    reference_matmul_relu_stream,
    reference_sobel_threshold_stream,
    sobel_rows,
)
from repro.workloads.synthetic import (
    SyntheticSpec,
    build_timing_critical,
    generate_design,
    industrial_suite,
    timing_critical_suite,
)

def build_synthetic() -> Region:
    """A deterministic mid-size synthetic industrial design."""
    return generate_design(SyntheticSpec(name="synthetic", seed=2011,
                                         n_ops=40))


#: workloads addressable by name from the CLI, flows and sweeps.
WORKLOAD_REGISTRY: Dict[str, Callable[[], Region]] = {
    "example1": build_example1,
    "idct": build_idct8,  # the paper's Figure 10/11 kernel (alias)
    "idct8": build_idct8,
    "idct2d": build_idct2d,
    "fir": build_fir,
    "fft_stage": build_fft_stage,
    "fft8": build_fft8,
    "conv3x3": build_conv3x3,
    "conv3x3_mem": build_conv3x3_mem,
    "matmul": build_dot_product,
    "matmul_mem": build_dot_product_mem,
    "sobel": build_sobel,
    "sobel_mem": build_sobel_mem,
    "synthetic": build_synthetic,
}


#: streaming pipelines addressable by name (factories return a
#: :class:`repro.dataflow.Pipeline`, not a Region -- they compose
#: several of them).
PIPELINE_REGISTRY: Dict[str, Callable[[], "Pipeline"]] = {  # noqa: F821
    "matmul_relu_stream": build_matmul_relu_stream,
    "sobel_threshold_stream": build_sobel_threshold_stream,
    "fir_decimate_stream": build_fir_decimate_stream,
}

#: deterministic input streams per registered pipeline (simulation and
#: CLI demos share them).
PIPELINE_INPUTS: Dict[str, Callable[[], Dict[str, list]]] = {
    "matmul_relu_stream": matmul_relu_inputs,
    "sobel_threshold_stream": sobel_rows,
    "fir_decimate_stream": fir_samples,
}


def register_workload(name: str,
                      factory: Callable[[], Region]) -> None:
    """Add (or replace) a named workload in the registry."""
    WORKLOAD_REGISTRY[name] = factory


def get_workload(name: str) -> Callable[[], Region]:
    """Resolve a workload factory; raises ``KeyError`` with choices."""
    try:
        return WORKLOAD_REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; "
                       f"choose from {sorted(WORKLOAD_REGISTRY)}") from None


# imported after the registry above exists: the @pyfunc_workload
# decorators in chstone register themselves via register_workload
from repro.workloads.pyfunc import (  # noqa: E402
    PYFUNC_REGISTRY,
    PyfuncWorkload,
    check_against_oracle,
    pyfunc_workload,
)
from repro.workloads.chstone import (  # noqa: E402
    adpcm_encode,
    jpeg_dct,
    mips_vm,
)


__all__ = [
    "PIPELINE_INPUTS",
    "PIPELINE_REGISTRY",
    "PYFUNC_REGISTRY",
    "PyfuncWorkload",
    "SyntheticSpec",
    "WORKLOAD_REGISTRY",
    "adpcm_encode",
    "check_against_oracle",
    "jpeg_dct",
    "mips_vm",
    "pyfunc_workload",
    "build_conv3x3",
    "build_conv3x3_mem",
    "build_dot_product",
    "build_dot_product_mem",
    "build_example1",
    "build_fft8",
    "build_fft_stage",
    "build_fir",
    "build_fir_decimate_stream",
    "build_idct2d",
    "build_idct8",
    "build_matmul_relu_stream",
    "build_sobel",
    "build_sobel_mem",
    "build_sobel_threshold_stream",
    "build_synthetic",
    "build_timing_critical",
    "fir_samples",
    "generate_design",
    "get_workload",
    "industrial_suite",
    "matmul_relu_inputs",
    "register_workload",
    "reference_conv3x3_mem",
    "reference_dot_product",
    "reference_dot_product_mem",
    "reference_fir",
    "reference_fir_decimate_stream",
    "reference_matmul_relu_stream",
    "reference_sobel",
    "reference_sobel_mem",
    "reference_sobel_threshold_stream",
    "sobel_rows",
    "timing_critical_suite",
]

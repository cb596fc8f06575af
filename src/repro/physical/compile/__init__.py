"""The bitset-division kernel seam.

``kernels`` provides the bitset-division kernel dispatch seam shared by all
eight division algorithms, with an optional numpy fast path.  ``segments``
holds two no-op stubs the benchmark replay still resolves.
"""

from repro.physical.compile.kernels import (
    BitsetKernel,
    KERNEL_NAMES,
    NumpyBitsetKernel,
    PythonBitsetKernel,
    active_kernel,
    available_kernels,
    numpy_available,
    set_kernel,
    use_kernel,
)

__all__ = [
    "BitsetKernel",
    "KERNEL_NAMES",
    "NumpyBitsetKernel",
    "PythonBitsetKernel",
    "active_kernel",
    "available_kernels",
    "numpy_available",
    "set_kernel",
    "use_kernel",
]

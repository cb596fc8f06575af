"""The bitset-division kernel seam.

``kernels`` provides the bitset-division kernel dispatch seam shared by all
eight division algorithms: the numpy kernel, and the Python one it hands
its smallest inputs to.  ``segments`` holds two no-op stubs the benchmark
replay still resolves.
"""

from repro.physical.compile.kernels import (
    NumpyBitsetKernel,
    PythonBitsetKernel,
    active_kernel,
    use_kernel,
)

__all__ = [
    "NumpyBitsetKernel",
    "PythonBitsetKernel",
    "active_kernel",
    "use_kernel",
]

"""Flip graphs of convex polygon triangulations: spectra, censuses, bounds."""

from .triangulations import catalan, enumerate_triangulations, polygon_regions
from .flipgraph import (
    Graph,
    box_product,
    build_associahedron,
    diagonal_slice,
    from_edges,
    induced_subgraph,
    is_connected,
    is_isomorphic,
    slice_product_map,
    validate_regular,
)
from .spectra import (
    SpectralResult,
    Spectrum,
    dense_spectrum,
    lambda_2,
    lambda_min,
)

__version__ = "0.1.0"

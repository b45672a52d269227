"""Well-conditioned interpolation nodes and transferred Zernike-like bases.

Node sets designed on the unit disk (Bos arrays with OCS, Carnicer, or
Cuyt radii, plus spiral, random-thinned, approximate-Fekete, and file-based
sets) are transplanted through diffeomorphisms onto hexagons, ellipses, and
annuli together with orthonormal basis families, preserving or provably
bounding the collocation-matrix condition number.  On top of that sits a
zonal wavefront-reconstruction experiment over a 36-hexagon segmented
aperture.
"""

from .collocation import (
    CollocationMatrix,
    ConditionReport,
    InterpolationResult,
    assemble,
    condition_number,
    lebesgue_constant,
    solve_interpolation,
)
from .domains import (
    AnnulusMap,
    DiskMap,
    DiskZernikeBasis,
    EllipseMap,
    HexagonBasis,
    HexagonMap,
    TransferredBasis,
    make_basis,
    make_map,
    polygon_boundary_radius,
    transfer_nodes,
)
from .errors import ZernkitError
from .samplings import (
    NodeSet,
    Scheme,
    approximate_fekete,
    bos_array,
    carnicer_nodes,
    carnicer_radii,
    cuyt_nodes,
    cuyt_radii,
    generate_nodes,
    load_nodes,
    ocs_nodes,
    ocs_radii,
    random_thinned_nodes,
    save_nodes,
    spiral_nodes,
)
from .wavefront import (
    build_aperture,
    kolmogorov_wavefront,
    run_experiment,
)
from .zernike import (
    ZernikeIndex,
    basis_size,
    index_to_nm,
    nm_to_index,
    zernike_matrix,
    zernike_polar,
    zernike_xy,
)

__version__ = "0.1.0"

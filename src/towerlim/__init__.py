"""towerlim: exact l-adic invariants of twisted Frobenius towers.

Exact-arithmetic tools for matrix products twisted along root-of-unity
orbits, their characteristic polynomials and l-adic congruences, and the
finite-field character sums (Gauss/Jacobi) that realize the same limits
geometrically through curve towers.
"""

from .cache import cache_get, cache_put, cached_r_poly, resolve_cache_dir
from .charsums import (
    artin_schreier_enum_count,
    coleman_gauss_check,
    coleman_jacobi_check,
    fermat_enum_count,
    gauss_sum,
    h_poly_tower,
    jacobi_sum,
    motivating_curve_counts,
    motivating_reference_poly,
    motivating_zeta_check,
    mult_order,
    predicted_counts,
    prime_power_split,
    primitive_char_sum,
    s_rho_n,
    zeta_from_counts,
)
from .config import Experiment, load_config, parse_config
from .cyclo import BiCycloElem, BiCycloRing, CycloElem, CycloRing
from .errors import CheckFailed, GuardExceeded, InputError, TowerlimError
from .fields import FIELD_CAP, FqField, field_build
from .matfermat import (
    arnold_zarelua_check,
    det_from_traces,
    traces_from_det,
)
from .matrices import det_one_minus_y
from .tower import (
    CongruenceRow,
    OrbitParams,
    TowerSpec,
    check_orbit_threshold,
    general_congruence_rows,
    make_tower_spec,
    orbit_params,
    p_poly,
    primitive_orbit_reps,
    qsum_rows,
    r_poly,
    scalar_congruence_rows,
)

from .report import TOOL_VERSION as __version__

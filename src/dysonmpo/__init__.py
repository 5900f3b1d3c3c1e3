"""MPO encodings of Taylor, Magnus and Dyson evolution operators."""

from . import modelfile, models, spin
from .bench import (BracketCache, ErrorRecord, EvolutionConfig,
                    build_step_mpo, evolve_state, order_slopes,
                    records_to_csv, run_benchmark, runtime_at_accuracy,
                    step_table)
from .brackets import BracketTable
from .bulk import BulkCheckError, bulk_compress
from .compression import (CompressionBasisError, CompressionReport,
                          row_compress)
from .driving import (Channel, ConstDriving, DrivingFunction, ExpDriving,
                      Piece, PolyDriving, SampledDriving,
                      TimeDependentHamiltonian, TrigDriving)
from .dyson import dyson_mpo, identity_mpo, magnus_evolution
from .evolve import exact_evolution_operator, exact_evolve
from .extensive import ExtensiveMPO, RewiredHamiltonian
from .fdmpo import (FirstDegreeMPO, add, commutator, from_terms,
                    nondisjoint_product, nondisjoint_square, scale)
from .levels import IDENTITY_LEVEL, LevelLabel, three, two
from .mps import FiniteMPS, apply_mpo, trace_distance_error
from .taylor import mpo_derivative_at_zero, taylor_mpo

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

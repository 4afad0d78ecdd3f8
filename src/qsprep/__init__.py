"""State-preparation circuit synthesis and logical resource estimation.

Two preparation families over a shared gate IR: rotation-based synthesis
(dense/sparse pivot reduction lowered to Clifford+T via grid synthesis)
and alias-table sampling pipelines (QROM / SelectSwap lookups), compared
at matched precision b.
"""
from .alias_prepare import (
    AliasPipeline, AliasTable, LookupSpec, ValidationError,
    build_alias_table, build_qrom, build_selectswap,
    optimal_lambda, prepare_alias_state, realized_marginal,
)
from .benchmark_states import (
    BenchmarkSpec, DegenerateSurrogateError, ParameterError, ParseError,
    gen_dense_random, gen_dicke, gen_magnus, gen_sparse_random,
    gen_sparse_uniform, gen_syk_surrogate, gen_t_friendly, gen_thc_toy,
    gen_w, load_thc_coefficients, magnus_coefficient, make_state,
    save_thc_coefficients,
)
from .circuit_core import (
    Circuit, CircuitError, Gate, ResourceReport, count_resources,
    deserialize, is_pi4_multiple, serialize,
)
from .cliffordt_compile import (
    CompileError, SynthesisConfig, compile_circuit, cost_model_t_count, lower_mcx,
)
from .gridsynth import SynthesisError, exactly_preparable, synthesize_rz_tags
from .rotation_synthesis import (
    AngleTable, StateValidationError, TargetState, choose_pivot, demux_ucry,
    prune_constant_controls, synthesize_dense, synthesize_sparse,
)
from .simulator import (
    DEFAULT_QUBIT_BUDGET, CapacityError, address_marginal,
    classical_simulate, fidelity_prob, fidelity_state, pipeline_histogram,
    simulate,
)

__version__ = "0.1.0"

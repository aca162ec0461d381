"""Toolkit for defining, running, storing, and analyzing HLS design space
explorations: a configuration-space descriptor language, mixed-radix space
enumeration, a relational results store, a parallel campaign runner, and
Pareto/ADRS/hypervolume indicators."""

from .dsl import (
    CSD,
    CsdError,
    CsdSyntaxError,
    CsdValidationError,
    Diagnostic,
    ExplicitList,
    GeneratedRange,
    GeneratorKind,
    Knob,
    Value,
    expand_value_set,
    parse_csd,
    serialize_csd,
    validate_csd,
)
from .space import (
    Configuration,
    SpaceIndex,
    build_index,
    cardinality,
    enumerate_space,
    sample,
)
from .store import Store, StoreError, SynthesisInfo, Tool
from .orchestrator import (
    BackendSpec,
    Campaign,
    CampaignReport,
    ImplementationResult,
    generate_directive_script,
    mock_synthesize,
    parse_report,
    run_campaign,
)
from .analytics import (
    DesignPoint,
    adrs,
    dominates,
    evaluate_strategy,
    hypervolume_2d,
    pareto_front,
)

__version__ = "0.1.0"

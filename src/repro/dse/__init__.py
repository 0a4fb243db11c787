"""Design-space exploration: the Open Source Vizier stand-in."""

from .algorithms import GridSearch, RandomSearch, RegularizedEvolution, TpeLite
from .cache import CACHE_SCHEMA_VERSION, MISS, EvaluationCache, cache_key
from .characterize import (
    OPERAND_CLASSES,
    CharacterizationTarget,
    ClassProfile,
    LatencyEnvelope,
    characterization_targets,
    characterize_cfu,
)
from .exhaustive import (
    ExhaustiveResult,
    ExhaustiveSweeper,
    FamilyPlane,
    GridTensors,
    VectorizedFit,
    pareto_front_indices,
    run_exhaustive_service,
    search_regret,
    sweep,
)
from .pareto import dominates, hypervolume_2d, pareto_front
from .pool import WorkerPool, WorkerPoolError
from .runner import (
    CFU_FAMILIES,
    DsePoint,
    DseResult,
    EvalOutcome,
    Fig7Evaluator,
    evaluate_design,
    run_fig7,
    total_space_size,
    trace_summary,
)
from .service import (
    DEFAULT_BATCH,
    DEFAULT_LEASE_SECONDS,
    DseService,
    FaultInjector,
    ServiceError,
    ServiceStudy,
    ServiceThread,
    serve,
)
from .space import CACHE_SIZES, Parameter, ParameterSpace, point_to_cpu_config, vexriscv_space
from .store import STORE_SCHEMA_VERSION, StudyStore, TrialRecord
from .study import MAXIMIZE, MINIMIZE, MetricGoal, Study, Trial
from .worker import (
    ClientError,
    ServiceClient,
    ServiceUnavailable,
    StaleLeaseError,
    WorkerFleet,
    create_fig7_studies,
    fetch_result,
    run_fig7_service,
    run_worker,
    wait_for_studies,
)

__all__ = [
    "CACHE_SCHEMA_VERSION", "CACHE_SIZES", "CFU_FAMILIES",
    "CharacterizationTarget", "ClassProfile", "ClientError",
    "LatencyEnvelope", "OPERAND_CLASSES", "characterization_targets",
    "characterize_cfu",
    "DEFAULT_BATCH", "DEFAULT_LEASE_SECONDS", "DsePoint",
    "DseResult", "DseService", "EvalOutcome", "EvaluationCache",
    "ExhaustiveResult", "ExhaustiveSweeper", "FamilyPlane", "FaultInjector",
    "Fig7Evaluator", "GridSearch", "GridTensors", "MAXIMIZE", "MINIMIZE",
    "MISS", "MetricGoal", "Parameter",
    "ParameterSpace", "RandomSearch", "RegularizedEvolution",
    "STORE_SCHEMA_VERSION", "VectorizedFit",
    "ServiceClient", "ServiceError", "ServiceStudy",
    "ServiceThread", "ServiceUnavailable", "StaleLeaseError", "Study",
    "StudyStore", "TpeLite", "Trial", "TrialRecord", "WorkerFleet",
    "WorkerPool",
    "WorkerPoolError", "cache_key", "create_fig7_studies", "dominates",
    "evaluate_design", "fetch_result", "hypervolume_2d", "pareto_front",
    "pareto_front_indices", "point_to_cpu_config", "run_exhaustive_service",
    "run_fig7", "run_fig7_service", "run_worker", "search_regret", "serve",
    "sweep", "total_space_size", "trace_summary", "vexriscv_space",
    "wait_for_studies",
]

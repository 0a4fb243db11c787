"""Design-space exploration: the Open Source Vizier stand-in."""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "algorithms": ["GridSearch", "RandomSearch", "RegularizedEvolution",
                   "TpeLite"],
    "cache": ["CACHE_SCHEMA_VERSION", "EvaluationCache", "MISS", "cache_key"],
    "characterize": ["CharacterizationTarget", "ClassProfile",
                     "LatencyEnvelope", "OPERAND_CLASSES",
                     "characterization_targets", "characterize_cfu"],
    "exhaustive": ["ExhaustiveResult", "ExhaustiveSweeper", "FamilyPlane",
                   "GridTensors", "VectorizedFit", "pareto_front_indices",
                   "run_exhaustive_service", "search_regret", "sweep"],
    "pareto": ["dominates", "hypervolume_2d", "pareto_front"],
    "pool": ["WorkerPool", "WorkerPoolError"],
    "runner": ["CFU_FAMILIES", "DsePoint", "DseResult", "EvalOutcome",
               "Fig7Evaluator", "evaluate_design", "run_fig7",
               "total_space_size", "trace_summary"],
    "service": ["DEFAULT_BATCH", "DEFAULT_LEASE_SECONDS", "DseService",
                "FaultInjector", "ServiceError", "ServiceStudy",
                "ServiceThread", "serve"],
    "space": ["CACHE_SIZES", "Parameter", "ParameterSpace",
              "point_to_cpu_config", "vexriscv_space"],
    "store": ["STORE_SCHEMA_VERSION", "StudyStore", "TrialRecord"],
    "study": ["MAXIMIZE", "MINIMIZE", "MetricGoal", "Study", "Trial"],
    "worker": ["ClientError", "ServiceClient", "ServiceUnavailable",
               "StaleLeaseError", "WorkerFleet", "create_fig7_studies",
               "fetch_result", "run_fig7_service", "run_worker",
               "wait_for_studies"],
})

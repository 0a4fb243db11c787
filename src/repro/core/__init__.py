"""Core API: the Playground (deploy-profile-optimize), ladders, golden tests."""

from .golden import (
    golden_checksum,
    golden_input,
    run_golden_inference,
    variant_interpreter,
    variant_registry,
)
from .ladders import (
    FOMU_BASELINE_CPU,
    DeploymentState,
    LadderResult,
    LadderStep,
    kws_initial_state,
    kws_ladder,
    mnv2_1x1_filter,
    mnv2_initial_state,
    mnv2_ladder,
    run_ladder,
)
from .menu import Menu, UartConsole, build_firmware_menu
from .playground import BuildReport, Playground, PlaygroundError
from .reporting import generate_report
from .project import PROJECTS, BuildArtifacts, Project, ProjectSpec, list_projects, load_project
from .simprofile import ProfileDriftError, SimulatedProfile, simulate_profile
from .telemetry import TELEMETRY_SCHEMA_VERSION, Span, Telemetry

__all__ = [
    "BuildArtifacts", "BuildReport", "Menu", "PROJECTS",
    "ProfileDriftError", "Project", "ProjectSpec", "SimulatedProfile",
    "Span", "TELEMETRY_SCHEMA_VERSION", "Telemetry", "UartConsole",
    "build_firmware_menu", "list_projects",
    "load_project", "generate_report", "DeploymentState", "FOMU_BASELINE_CPU", "LadderResult",
    "LadderStep", "Playground", "PlaygroundError", "golden_checksum",
    "golden_input", "kws_initial_state", "kws_ladder", "mnv2_1x1_filter",
    "mnv2_initial_state", "mnv2_ladder", "run_golden_inference",
    "run_ladder", "simulate_profile", "variant_interpreter",
    "variant_registry",
]

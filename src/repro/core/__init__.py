"""Core API: the Playground (deploy-profile-optimize), ladders, golden tests."""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "golden": ["golden_checksum", "golden_input", "run_golden_inference",
               "variant_interpreter", "variant_registry"],
    "ladders": ["FOMU_BASELINE_CPU", "LadderResult", "LadderStep",
                "kws_initial_state", "kws_ladder", "mnv2_1x1_filter",
                "mnv2_initial_state", "mnv2_ladder", "run_ladder"],
    "menu": ["Menu", "UartConsole", "build_firmware_menu"],
    "playground": ["BuildReport", "Playground", "PlaygroundError"],
    "project": ["BuildArtifacts", "PROJECTS", "Project", "ProjectSpec",
                "list_projects", "load_project"],
    "reporting": ["generate_report"],
    "simprofile": ["ProfileDriftError", "SimulatedProfile",
                   "simulate_profile"],
    "telemetry": ["Span", "TELEMETRY_SCHEMA_VERSION", "Telemetry"],
})

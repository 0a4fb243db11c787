"""The user-facing API: the deploy -> profile -> optimize loop.

A :class:`Playground` binds a model to a board and walks the paper's
iterative methodology:

>>> pg = Playground(board=FOMU, model=load("dscnn_kws"),
...                 cpu_config=FOMU_BASELINE_CPU)     # doctest: +SKIP
>>> pg.deploy()            # link the image, fit the FPGA
>>> profile = pg.profile() # per-operator cycle attribution
>>> pg.upgrade_to_quad_spi()  # ...optimize, then loop again

Every optimization surface in the paper has a method here: kernel
swaps, CFU attachment, CPU reconfiguration, memory-map changes, linker
placement, SoC feature removal.  The Fig. 4 and Fig. 6 ladders
(:mod:`repro.core.ladders`) are step sequences over a Playground, and
each project (:mod:`repro.core.project`) is one brought to its
deployment, so users, ladders and projects share this one copy of the
loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..boards import fit
from ..kernels.reference import reference_variants
from ..perf.estimator import estimate_inference
from ..rtl.synth import ResourceReport
from ..soc import Soc, link
from .telemetry import Telemetry


class PlaygroundError(RuntimeError):
    pass


@dataclass
class BuildReport:
    """Output of one build: fit result + image layout + the estimate."""

    fit: object
    layout: object
    estimate: object

    @property
    def ok(self):
        return self.fit.ok

    def summary(self):
        parts = [self.fit.summary(), self.layout.summary(),
                 self.estimate.summary(split_conv_1x1=True)]
        return "\n".join(parts)


class Playground:
    """One co-design session: a model deployed to a board."""

    def __init__(self, board, model, cpu_config=None, clock_hz=None,
                 telemetry=None):
        self.board = board
        self.model = model
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.soc = Soc(board, cpu_config, clock_hz=clock_hz)
        self.variants = reference_variants()
        self.cfu = None
        self._cfu_resources = None
        self.placement = {}
        self._deployed = False
        self.history = []  # (label, total_cycles) checkpoints

    # --- optimization surfaces ----------------------------------------------------
    def swap_kernel(self, *variants):
        """Register optimized kernel variants (highest priority first)."""
        self.variants = self.variants.extended(*variants)
        return self

    def reset_kernels(self):
        self.variants = reference_variants()
        return self

    def attach_cfu(self, cfu_model, resources=None):
        """Attach a CFU (software model object) with its gateware cost.

        ``resources`` is a :class:`~repro.rtl.synth.ResourceReport` or a
        zero-argument callable returning one, by default the model's
        own ``resources``.  A callable runs when :meth:`fit` first needs
        the report, so a flow that only profiles never elaborates the
        gateware behind it."""
        self.cfu = cfu_model
        if resources is None:
            resources = getattr(cfu_model, "resources", None)
        self._cfu_resources = resources
        return self

    @property
    def cfu_resources(self):
        """The attached CFU's gateware cost (empty with no CFU)."""
        if callable(self._cfu_resources):
            self._cfu_resources = self._cfu_resources()
        return self._cfu_resources or ResourceReport()

    def reconfigure_cpu(self, **changes):
        self.soc.with_cpu(self.soc.cpu_config.evolve(**changes))
        return self

    def upgrade_to_quad_spi(self):
        self.soc.upgrade_to_quad_spi()
        return self

    def remove_soc_feature(self, name):
        self.soc.remove_peripheral(name)
        return self

    def place_section(self, section, region):
        """Linker-script change: move a section to another region."""
        self.soc.memory_map.get(region)  # validate the region exists
        self.placement[section] = region
        return self

    # --- the loop -------------------------------------------------------------------
    def deploy(self, require_fit=True):
        """Link the image and fit the FPGA; the paper's 'Deploy' step."""
        with self.telemetry.span("deploy", model=self.model.name,
                                 board=self.board.name) as span:
            layout = link(self.soc, self.model, self.placement)
            fit_result = self.fit()
            span.attrs["fit"] = fit_result.ok
            if require_fit and not fit_result.ok:
                self.telemetry.counter("playground_fit_rejects").inc()
                raise PlaygroundError(
                    f"design does not fit:\n{fit_result.summary()}")
            self._deployed = True
            return BuildReport(fit=fit_result, layout=layout,
                               estimate=self.profile())

    def profile(self, checkpoint=None, simulate=False, budget=None):
        """Per-operator cycle attribution; the paper's 'Profile' step.

        With ``simulate=True`` the analytic estimate is cross-validated
        on the ISA simulator (:mod:`repro.core.simprofile`): each
        dominant opcode class's cost trace is synthesized into ~``budget``
        instructions of real firmware, run cycle-modelled, and the
        estimate rescaled by the measured drift — raising
        :exc:`~repro.core.simprofile.ProfileDriftError` if estimator and
        simulator disagree beyond
        :data:`~repro.core.simprofile.DEFAULT_DRIFT_BAND`.  Returns a
        :class:`~repro.core.simprofile.SimulatedProfile` in that case.
        """
        with self.telemetry.span("profile", model=self.model.name,
                                 checkpoint=checkpoint,
                                 simulate=simulate) as span:
            estimate = estimate_inference(self.model, self.system(),
                                          self.variants,
                                          telemetry=self.telemetry)
            span.attrs["cycles"] = estimate.total_cycles
            if simulate:
                from .simprofile import DEFAULT_BUDGET, simulate_profile
                result = simulate_profile(
                    self,
                    budget=DEFAULT_BUDGET if budget is None else budget,
                    estimate=estimate)
                span.attrs["simulated_cycles"] = result.total_cycles
                span.attrs["drift"] = round(result.drift, 4)
        self.telemetry.counter("playground_profiles").inc()
        result = result if simulate else estimate
        if checkpoint:
            self.history.append((checkpoint, result.total_cycles))
        return result

    def fit(self):
        return fit(self.board, self.soc.resources(), self.cfu_resources)

    def system(self):
        return self.soc.system_config(placement=self.placement)

    # --- verification & introspection ----------------------------------------------
    def run_inference(self, input_array):
        """Numerically run the model with the *optimized* kernels."""
        from .golden import variant_interpreter

        return variant_interpreter(self.model, self.variants).invoke(input_array)

    def golden_test(self, input_array=None, seed=0):
        """Full-inference golden test: optimized kernels vs reference
        (Section II-E).  Raises AssertionError on any mismatch."""
        from .golden import run_golden_inference

        return run_golden_inference(self.model, self.variants,
                                    input_array=input_array, seed=seed)

    def emulator(self, with_timing=True):
        from ..emu import Emulator

        return Emulator(self.soc, cfu=self.cfu, with_timing=with_timing,
                        telemetry=self.telemetry)

    def speedup_history(self):
        if not self.history:
            return []
        base = self.history[0][1]
        return [(label, base / cycles) for label, cycles in self.history]

    def summary(self):
        estimate = self.profile()
        lines = [
            f"Playground: {self.model.name} on {self.board.name}",
            f"  {self.soc!r}",
            f"  CFU: {getattr(self.cfu, 'name', 'none')}",
            estimate.summary(split_conv_1x1=True),
            self.fit().summary(),
        ]
        return "\n".join(lines)

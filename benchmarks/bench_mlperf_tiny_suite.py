"""MLPerf Tiny suite sweep: every bundled model on both study boards.

Section II-E: "CFU Playground comes packaged with stock models from
MLPerf Tiny workloads for benchmarking."  This bench produces the
MLPerf-style latency table for the whole zoo on the Arty configuration,
plus a feasibility column for Fomu (only KWS fits the 2 MB flash +
128 kB SRAM envelope — exactly why the KWS study uses Fomu).
"""

from repro.boards import ARTY_A7_35T, FOMU
from repro.core.ladders import FOMU_BASELINE_CPU
from repro.cpu.vexriscv import ARTY_DEFAULT
from repro.models import ZOO, load
from repro.perf.estimator import estimate_inference
from repro.soc import LinkError, Soc, link

MODEL_KWARGS = {
    "mobilenet_v2": {"width_multiplier": 0.35, "num_classes": 10},
}

TASK = {
    "dscnn_kws": "keyword spotting (KWS)",
    "mobilenet_v1_vww": "visual wake words (VWW)",
    "resnet8_ic": "image classification (IC)",
    "autoencoder_ad": "anomaly detection (AD)",
    "mobilenet_v2": "image classification (MNV2)",
}


def sweep():
    arty = Soc(ARTY_A7_35T, ARTY_DEFAULT)
    fomu = Soc(FOMU, FOMU_BASELINE_CPU, quad_spi=True)
    for feature in ("timer", "ctrl", "rgb", "touch"):
        fomu.remove_peripheral(feature)
    rows = []
    for name in sorted(ZOO):
        model = load(name, **MODEL_KWARGS.get(name, {}))
        estimate = estimate_inference(model, arty.system_config())
        try:
            link(fomu, model)
            fomu_fits = True
        except LinkError:
            fomu_fits = False
        rows.append((name, model, estimate, fomu_fits))
    return rows


def test_mlperf_tiny_suite(report):
    rows = sweep()
    report("MLPerf-Tiny-style sweep (reference kernels)")
    report(f"{'model':18s} {'task':28s} {'MACs':>12s} "
           f"{'Arty ms':>9s} {'fits Fomu':>10s}")
    for name, model, estimate, fomu_fits in rows:
        report(f"{name:18s} {TASK[name]:28s} {model.total_macs():>12,} "
               f"{estimate.seconds * 1000:>8.1f} "
               f"{'yes' if fomu_fits else 'no':>10s}")

    by_name = {name: (model, estimate, fomu_fits)
               for name, model, estimate, fomu_fits in rows}
    # The KWS deployment target of Section III-B must fit Fomu...
    assert by_name["dscnn_kws"][2]
    # ...while the MNV2 image classifier needs the Arty (Section III-A).
    assert not by_name["mobilenet_v2"][2]
    # Latency ordering tracks work: AD (0.5M MACs) < KWS < the vision models.
    assert (by_name["autoencoder_ad"][1].total_cycles
            < by_name["dscnn_kws"][1].total_cycles
            < by_name["mobilenet_v1_vww"][1].total_cycles)

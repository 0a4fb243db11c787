"""Section III-A walkthrough: MobileNetV2 image classification on Arty.

Replays the paper's deploy-profile-optimize loop step by step: start
from the TFLite Micro reference kernels, profile to find the hotspot
(1x1 CONV_2D), then climb the Fig. 4 ladder — software specialization,
the post-processing CFU, filter/input stores, the MAC4 SIMD
instruction, the autonomous run FSM, and the final pipelined CFU1.

Run:  python examples/image_classification_arty.py
"""

from repro.core.ladders import (
    mnv2_1x1_filter,
    mnv2_initial_state,
    mnv2_ladder,
    run_ladder,
)


def main():
    state = mnv2_initial_state()
    model = state.model
    print(f"workload: {model.name}, {model.total_macs():,} MACs, "
          f"{model.weights_bytes():,} weight bytes\n")

    print("== profile the baseline ==")
    baseline = state.profile()
    print(baseline.summary(split_conv_1x1=True))
    print("\n-> 1x1 CONV_2D dominates: that is the operator to accelerate\n")

    print("== climb the Fig. 4 ladder ==")
    results = run_ladder(mnv2_ladder(), state,
                         op_filter=mnv2_1x1_filter(model))
    for r in results:
        doc = (r.step.description or "").strip().splitlines()
        title = doc[0].strip() if doc else ""
        print(f"{r.step.name:16s} op x{r.op_speedup:6.2f}  "
              f"overall x{r.speedup:5.2f}  "
              f"{r.fit.usage.logic_cells:>6d} cells  {title[:60]}")

    final = results[-1]
    print(f"\nfinal: {final.op_speedup:.1f}x on 1x1 CONV_2D "
          f"(paper: 55x), {final.speedup:.1f}x overall (paper: 3x)")
    print(f"resources never exceeded "
          f"{max(r.fit.cell_utilization for r in results) * 100:.0f}% "
          "of the Arty's logic cells (paper: 'never close to running out')")


if __name__ == "__main__":
    main()

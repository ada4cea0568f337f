"""One module per paper table/figure.

Each module exposes ``run()`` returning a structured result and
``format_result()`` rendering the same rows/series the paper reports.
``repro.experiments.harness`` executes any subset from one entry point::

    python -m repro.experiments.harness run fig11 table2 ...
    python -m repro.experiments.harness run all --jobs 4
"""

from repro.experiments import (  # noqa: F401
    ablation_kv_attention,
    ablation_sensitivity,
    ablation_sw_opts,
    bench_backends,
    bench_serving,
    fig04_kernel_gap,
    fig11_dse_k,
    fig12_dp4_ppa,
    fig13_weight_scaling,
    fig14_tensor_core_pareto,
    fig15_kernel_sim,
    fig16_sim_accuracy,
    fig17_e2e_speedup,
    fig18_lutgemm_compare,
    fig19_roofline,
    table1_overall,
    table2_unpu,
    table3_accels,
    table4_fusion,
    table5_tablequant,
)

ALL_EXPERIMENTS = {
    "fig4": fig04_kernel_gap,
    "fig11": fig11_dse_k,
    "fig12": fig12_dp4_ppa,
    "fig13": fig13_weight_scaling,
    "fig14": fig14_tensor_core_pareto,
    "fig15": fig15_kernel_sim,
    "fig16": fig16_sim_accuracy,
    "fig17": fig17_e2e_speedup,
    "fig18": fig18_lutgemm_compare,
    "fig19": fig19_roofline,
    "table1": table1_overall,
    "table2": table2_unpu,
    "table3": table3_accels,
    "table4": table4_fusion,
    "table5": table5_tablequant,
    "ablation_sw": ablation_sw_opts,
    "ablation_kv": ablation_kv_attention,
    "sensitivity": ablation_sensitivity,
    "bench_backends": bench_backends,
    "bench_serving": bench_serving,
}

__all__ = ["ALL_EXPERIMENTS"]

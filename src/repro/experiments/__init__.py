"""Experiment harness reproducing the paper's figures and demo."""

from repro.experiments.ablation import (
    render_ablation_table,
    run_controller_split_ablation,
    run_ospf_timer_ablation,
    run_vm_latency_ablation,
)
from repro.experiments.config_time import (
    DEFAULT_RING_SIZES,
    render_config_time_table,
    run_config_time_sweep,
    run_single_configuration,
)
from repro.experiments.ctlscale import (
    CtlScaleChurnResult,
    CtlScaleResult,
    check_load_conservation,
    churn_schedule,
    render_ctlscale_churn,
    render_ctlscale_table,
    run_ctlscale,
    run_ctlscale_churn,
    write_ctlscale_csv,
)
from repro.experiments.demo import render_demo_report, run_demo
from repro.experiments.interdomain import (
    BorderFlapResult,
    InterdomainResult,
    render_interdomain_table,
    run_interdomain,
    verify_interdomain,
    write_interdomain_csv,
)
from repro.experiments.export import (
    write_failover_csv,
    write_sweep_csv,
)
from repro.experiments.failover import (
    FailoverEventResult,
    FailoverResult,
    render_failover_table,
    run_failover,
    verify_spf_rib_consistency,
)
from repro.experiments.sweep import (
    SweepResult,
    expand_seeds,
    render_sweep_table,
    run_scenario,
    run_sweep,
)
from repro.experiments.te import (
    TEPolicyResult,
    TEResult,
    render_te_table,
    run_te,
)
from repro.experiments.traffic import (
    LinkUtilization,
    TrafficResult,
    render_traffic_table,
    run_traffic,
)
from repro.experiments.results import (
    AblationResult,
    ConfigTimeResult,
    DemoResult,
    format_seconds,
    format_table,
)
from repro.experiments.run import (
    ScenarioRun,
    mirror_into_routeflow,
    to_payload,
    write_json,
)

__all__ = [
    "AblationResult",
    "ConfigTimeResult",
    "CtlScaleChurnResult",
    "CtlScaleResult",
    "DEFAULT_RING_SIZES",
    "DemoResult",
    "ScenarioRun",
    "check_load_conservation",
    "churn_schedule",
    "render_ctlscale_churn",
    "render_ctlscale_table",
    "run_ctlscale",
    "run_ctlscale_churn",
    "write_ctlscale_csv",
    "BorderFlapResult",
    "FailoverEventResult",
    "FailoverResult",
    "InterdomainResult",
    "LinkUtilization",
    "TEPolicyResult",
    "TEResult",
    "TrafficResult",
    "format_seconds",
    "format_table",
    "mirror_into_routeflow",
    "render_interdomain_table",
    "run_interdomain",
    "verify_interdomain",
    "write_interdomain_csv",
    "SweepResult",
    "expand_seeds",
    "render_failover_table",
    "render_te_table",
    "render_traffic_table",
    "run_failover",
    "run_te",
    "run_traffic",
    "verify_spf_rib_consistency",
    "render_ablation_table",
    "render_config_time_table",
    "render_demo_report",
    "render_sweep_table",
    "run_config_time_sweep",
    "run_controller_split_ablation",
    "run_demo",
    "run_ospf_timer_ablation",
    "run_scenario",
    "run_single_configuration",
    "run_sweep",
    "run_vm_latency_ablation",
    "to_payload",
    "write_failover_csv",
    "write_json",
    "write_sweep_csv",
]

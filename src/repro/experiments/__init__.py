"""Experiment harness reproducing the paper's figures and demo.

The root is lazy (see :func:`repro._lazy_exports`): a name is imported
from its module on first use, so running one experiment loads only what
that experiment needs.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "ablation": ("render_ablation_table", "run_controller_split_ablation",
                 "run_ospf_timer_ablation", "run_vm_latency_ablation"),
    "config_time": ("DEFAULT_RING_SIZES", "render_config_time_table",
                    "run_config_time_sweep", "run_single_configuration"),
    "ctlscale": ("CtlScaleChurnResult", "CtlScaleResult",
                 "check_load_conservation", "churn_schedule",
                 "render_ctlscale_churn", "render_ctlscale_table",
                 "run_ctlscale", "run_ctlscale_churn", "write_ctlscale_csv"),
    "demo": ("render_demo_report", "run_demo"),
    "failover": ("FailoverEventResult", "FailoverResult",
                 "render_failover_table", "run_failover",
                 "verify_spf_rib_consistency", "write_failover_csv"),
    "interdomain": ("BorderFlapResult", "InterdomainResult",
                    "render_interdomain_table", "run_interdomain",
                    "verify_interdomain", "write_interdomain_csv"),
    "results": ("AblationResult", "ConfigTimeResult", "DemoResult",
                "format_seconds", "format_table"),
    "run": ("ScenarioRun", "mirror_into_routeflow", "to_payload",
            "write_json"),
    "sweep": ("SweepResult", "expand_seeds", "render_sweep_table",
              "run_scenario", "run_sweep", "write_sweep_csv"),
    "te": ("TEPolicyResult", "TEResult", "render_te_table", "run_te"),
    "traffic": ("LinkUtilization", "TrafficResult", "render_traffic_table",
                "run_traffic"),
})

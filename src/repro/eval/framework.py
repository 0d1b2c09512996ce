"""The cross-layer evaluation pipeline of Fig. 6.

The paper's flow is circuit -> architecture -> gem5/ISA -> application;
this class runs the equivalent chain end-to-end on the Python models
and returns one consolidated report:

1. **Circuit**: Monte-Carlo swap-error rate at the chosen process
   corner (Cadence Spectre stand-in).
2. **Architecture**: lock-table SRAM cost against the DRAM die
   (CACTI / Design Compiler stand-in).
3. **System**: the DNN resident in the simulated DRAM behind the
   controller + DRAM-Locker, exercised by an inference pass and an
   attack campaign (gem5 stand-in), with memory stats exported.
4. **Application**: accuracy before/after the campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..arch.cacti import lock_table_estimate
from ..attacks import AttackContext, build_attack
from ..circuits.montecarlo import MonteCarlo
from ..nn import memo
from ..serving.workload import VictimTenant
from .experiments import (
    Scale,
    build_system,
    build_victim,
)

__all__ = ["PipelineReport", "CrossLayerPipeline"]


@dataclass
class PipelineReport:
    """Everything the Fig. 6 flow produces, by layer."""

    circuit: dict = field(default_factory=dict)
    architecture: dict = field(default_factory=dict)
    system: dict = field(default_factory=dict)
    application: dict = field(default_factory=dict)


class CrossLayerPipeline:
    """Runs the full Fig. 6 stack for one (arch, corner) choice."""

    def __init__(
        self,
        arch: str = "resnet20",
        variation_pct: float = 20.0,
        protected: bool = True,
        scale: Scale | None = None,
    ):
        self.arch = arch
        self.variation_pct = variation_pct
        self.protected = protected
        self.scale = scale or Scale.quick()

    def run(self) -> PipelineReport:
        report = PipelineReport()

        # 1. Circuit level.
        mc_result = MonteCarlo(trials=10_000).run(self.variation_pct)
        report.circuit = {
            "variation_pct": self.variation_pct,
            "copy_error_rate": mc_result.error_rate,
            "trials": mc_result.trials,
        }

        # 2. Architecture level.
        estimate, area_pct = lock_table_estimate()
        report.architecture = {
            "lock_table_bytes": estimate.size_bytes,
            "lock_table_mm2": estimate.area_mm2,
            "lock_table_access_ns": estimate.access_ns,
            "area_overhead_pct": area_pct,
        }

        # 3+4. System and application levels.
        dataset, qmodel = build_victim(self.arch, self.scale)
        clean = memo.accuracy(qmodel.model, dataset.test_x, dataset.test_y)
        system = build_system(
            qmodel, "DRAM-Locker" if self.protected else "None"
        )
        # The victim's own request mix -- weight-streaming inference
        # plus the guard-row traffic that opens unlock windows -- is
        # the serving subsystem's shared VictimTenant workload.
        tenant = VictimTenant(system.store, system.controller)
        tenant.stream_inference()
        ctx = AttackContext(
            qmodel,
            dataset,
            store=system.store,
            driver=system.driver,
            before_execute=tenant if self.protected else None,
            attack_batch=self.scale.attack_batch,
        )
        attack = build_attack("bfa", ctx)
        result = attack.run(max(5, self.scale.attack_iterations // 4))
        stats = system.device.stats
        report.system = {
            "memory_stats": stats.as_dict(),
            "blocked_requests": stats.blocked_requests,
            "swaps": stats.swaps,
            "protected": self.protected,
        }
        report.application = {
            "model": qmodel.model.name,
            "clean_accuracy": clean,
            "post_attack_accuracy": result.accuracies[-1],
            "executed_flips": result.executed_flips,
        }
        return report

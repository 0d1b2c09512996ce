"""Experiment runners: one function per table/figure of the paper.

Every runner returns plain data (dicts/lists) that the benchmark
harness prints; nothing here depends on pytest.  ``Scale`` bundles the
knobs that trade fidelity for runtime -- ``Scale.quick()`` is used by
the benchmark suite, ``Scale.full()`` approaches the paper's settings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..attacks import AttackContext, build_attack, run_attack
from ..attacks.bfa import BFAConfig, ProgressiveBitSearch
from ..attacks.hammer import HammerDriver
from ..circuits.montecarlo import MonteCarlo, PAPER_ERROR_RATES
from ..controller.controller import MemoryController
from ..defenses.overhead import format_table1, table1_reports
from ..defenses.stack import build_stack, place_model_victim
from ..dram.config import DRAMConfig
from ..dram.device import DRAMDevice
from ..dram.timing import trh_table
from ..isa import Opcode, assemble, disassemble, swap_program
from ..locker.locker import DRAMLocker, LockerConfig
from ..locker.planner import LockMode, plan_protection
from ..locker.swap import per_copy_error_rate
from ..nn import memo
from ..nn.cache import VictimCache, cached_train
from ..nn.data import Dataset, synthetic_cifar10, synthetic_cifar100
from ..nn.hardening import TABLE2_BUILDERS, HardenedModel
from ..nn.models import resnet20, vgg11
from ..nn.quant import QuantizedModel
from ..nn.storage import WeightStore
from ..nn.train import TrainConfig
from ..serving.workload import GuardRowTenant
from .security import LockerSecurityModel, ShadowSecurityModel

__all__ = [
    "Scale",
    "ProtectedSystem",
    "build_victim",
    "build_system",
    "run_fig1a",
    "run_fig1b",
    "run_fig5",
    "run_sec4d_montecarlo",
    "run_table1",
    "run_fig7a",
    "run_fig7b",
    "run_fig8",
    "run_pta",
    "run_table2",
    "run_attack_scenario",
    "run_rowclone_savings",
    "run_radius_ablation",
    "run_layout_ablation",
    "run_relock_ablation",
]

#: The paper's Fig. 7/8 worst case and the +/-20 % swap failure rate.
WORST_CASE_TRH = 1000
SWAP_FAILURE_RATE = PAPER_ERROR_RATES[20]  # 0.096


@dataclass(frozen=True)
class Scale:
    """Runtime/fidelity knobs shared by the experiment runners."""

    input_hw: int = 16
    resnet_width: int = 8
    vgg_width: int = 16
    epochs: int = 4
    attack_iterations: int = 40
    attack_batch: int = 64
    seed: int = 0

    @staticmethod
    def quick() -> "Scale":
        """Benchmark-suite settings (seconds per experiment)."""
        return Scale(
            input_hw=16,
            resnet_width=8,
            vgg_width=16,
            epochs=4,
            attack_iterations=25,
            attack_batch=48,
        )

    @staticmethod
    def full() -> "Scale":
        """Near-paper settings (minutes per experiment)."""
        return Scale(
            input_hw=32,
            resnet_width=16,
            vgg_width=32,
            epochs=8,
            attack_iterations=100,
            attack_batch=128,
        )


# ----------------------------------------------------------------------
# Victim construction
# ----------------------------------------------------------------------
def build_victim(
    arch: str, scale: Scale, cache: VictimCache | None = None
) -> tuple[Dataset, QuantizedModel]:
    """Train the paper's (architecture, dataset) pairing and quantize it.

    Training goes through the content-addressed victim cache (keyed by
    initial weights, dataset content, and train config), so the
    defense x attack matrix trains each victim once; a hit restores
    bit-identical weights.  Pass ``VictimCache.disabled()`` to force a
    fresh train, or set ``REPRO_VICTIM_CACHE=off`` in the environment.
    """
    if arch == "resnet20":
        dataset = synthetic_cifar10(hw=scale.input_hw, seed=scale.seed)
        model = resnet20(
            num_classes=10,
            width=scale.resnet_width,
            input_hw=scale.input_hw,
            seed=scale.seed,
        )
    elif arch == "vgg11":
        dataset = synthetic_cifar100(hw=scale.input_hw, seed=scale.seed + 1)
        model = vgg11(
            num_classes=100,
            width=scale.vgg_width,
            input_hw=scale.input_hw,
            seed=scale.seed,
        )
    else:
        raise ValueError(f"unknown architecture {arch!r}")
    cached_train(
        model,
        dataset,
        TrainConfig(epochs=scale.epochs, seed=scale.seed),
        cache=cache,
        arch=arch,
    )
    return dataset, QuantizedModel(model)


# ----------------------------------------------------------------------
# System construction
# ----------------------------------------------------------------------
@dataclass
class ProtectedSystem:
    """A victim model resident in simulated DRAM, optionally locked."""

    device: DRAMDevice
    controller: MemoryController
    store: WeightStore
    driver: HammerDriver
    locker: DRAMLocker | None
    defense: object | None = None


def build_system(
    qmodel: QuantizedModel,
    defense: str,
    trh: int = WORST_CASE_TRH,
    swap_failure_rate: float = SWAP_FAILURE_RATE,
    seed: int = 0,
) -> ProtectedSystem:
    """Place the model's weights in DRAM behind ``defense``, a name of
    :data:`~repro.defenses.builders.DEFENDED_HAMMER_DEFENSES`
    (``"DRAM-Locker"``, ``"None"`` or a baseline), wired by
    :func:`~repro.defenses.stack.build_stack` and placed by
    :func:`~repro.defenses.stack.place_model_victim`, as the serving
    engine's model victim is.

    ``swap_failure_rate`` is the whole-SWAP failure probability the
    paper charges (9.6 % at the +/-20 % corner); the locker's
    per-RowClone rate is :func:`~repro.locker.swap.per_copy_error_rate`
    of it.
    """
    stack = build_stack(
        defense,
        trh=trh,
        seed=seed,
        weak_cell_fraction=5e-5,
        locker_config=LockerConfig(
            copy_error_rate=per_copy_error_rate(swap_failure_rate),
            relock_interval=2 * trh + 10,
            seed=seed,
        ),
    )
    store = place_model_victim(stack, qmodel)
    driver = HammerDriver(stack.controller, patience=2.0)
    return ProtectedSystem(
        stack.device, stack.controller, store, driver, stack.locker,
        stack.defense,
    )


def _attack_context(
    scale: Scale,
    arch: str,
    defense: str,
    in_dram: bool = True,
) -> tuple[AttackContext, ProtectedSystem | None, float]:
    """The one assembly of every attack experiment: the cached victim,
    placed in DRAM behind ``defense`` (see :func:`build_system`; with
    ``in_dram=False``, the pure software ablation, it stays off DRAM),
    and an :class:`AttackContext` aimed at it for the attack registry.

    A locked victim also gets the multi-tenant guard-row stream: one
    privileged access to a guard row adjacent to the attacker's target
    before each campaign.  That forces the unlock-SWAP whose
    (process-variation) failure is DRAM-Locker's only opening.
    Returns the context, the system (``None`` off DRAM) and the clean
    accuracy.
    """
    dataset, qmodel = build_victim(arch, scale)
    clean = memo.accuracy(qmodel.model, dataset.test_x, dataset.test_y)
    ctx = AttackContext(
        qmodel, dataset, seed=scale.seed, attack_batch=scale.attack_batch
    )
    system = None
    if in_dram:
        system = build_system(qmodel, defense, seed=scale.seed)
        ctx.store = system.store
        ctx.driver = system.driver
        if system.locker is not None:
            ctx.before_execute = GuardRowTenant(
                system.store, system.controller, seed=1
            )
    return ctx, system, clean


#: The Fig. 8 and PTA runs, open first, by curve label.
_RUNS = {"None": "without DRAM-Locker", "DRAM-Locker": "with DRAM-Locker"}


# ----------------------------------------------------------------------
# Fig. 1(a): BFA vs random flips (software attack on VGG-11)
# ----------------------------------------------------------------------
def run_fig1a(scale: Scale | None = None) -> dict:
    """The registry's ``bfa`` and ``random`` cells on VGG-11, off DRAM."""
    scale = scale or Scale.quick()
    bfa = run_attack_scenario(scale, "bfa", "vgg11", protected=False, in_dram=False)
    random = run_attack_scenario(
        scale, "random", "vgg11", protected=False, in_dram=False
    )
    return {
        "clean_accuracy": bfa["clean_accuracy"],
        "chance_accuracy": bfa["chance_accuracy"],
        "bfa": bfa["accuracies"],
        "random": random["accuracies"],
    }


# ----------------------------------------------------------------------
# Fig. 1(b): TRH by DRAM generation
# ----------------------------------------------------------------------
def run_fig1b() -> list[tuple[str, str]]:
    return trh_table()


# ----------------------------------------------------------------------
# Fig. 5: the ISA
# ----------------------------------------------------------------------
def run_fig5() -> dict:
    program = swap_program()
    listing = disassemble(program)
    reassembled = assemble(listing)
    return {
        "swap_program_words": [f"{word:#06x}" for word in program],
        "swap_program_listing": listing,
        "round_trip_ok": reassembled == program,
        "opcodes": {op.name: f"{op.value:02b}" for op in Opcode},
    }


# ----------------------------------------------------------------------
# Section IV-D: Monte-Carlo swap-error sweep
# ----------------------------------------------------------------------
def run_sec4d_montecarlo(trials: int = 10_000) -> list[dict]:
    sweep = MonteCarlo(trials=trials).sweep((0, 5, 10, 15, 20))
    rows = []
    for result in sweep:
        paper = PAPER_ERROR_RATES.get(int(result.variation_pct))
        rows.append(
            {
                "variation_pct": result.variation_pct,
                "trials": result.trials,
                "failures": result.failures,
                "error_rate": result.error_rate,
                "paper_error_rate": paper,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table I: overhead comparison
# ----------------------------------------------------------------------
def run_table1() -> dict:
    config = DRAMConfig.ddr4_32gb()
    return {
        "config": config.describe(),
        "reports": table1_reports(config),
        "text": format_table1(config),
    }


# ----------------------------------------------------------------------
# Fig. 7(a): latency per Tref vs number of BFA attempts
# ----------------------------------------------------------------------
def run_fig7a(
    attack_counts: tuple[int, ...] = (0, 10_000, 20_000, 40_000, 60_000, 80_000),
) -> dict:
    shadow_thresholds = (1000, 2000, 4000, 8000)
    series: dict[str, list[float]] = {}
    for threshold in shadow_thresholds:
        model = ShadowSecurityModel(threshold=threshold)
        series[f"SHADOW{threshold}"] = [
            model.latency_per_tref_s(n) for n in attack_counts
        ]
    locker = LockerSecurityModel(trh=WORST_CASE_TRH)
    series["DL"] = [locker.latency_per_tref_s(n) for n in attack_counts]
    return {"attack_counts": list(attack_counts), "series": series}


# ----------------------------------------------------------------------
# Fig. 7(b): defense time in days
# ----------------------------------------------------------------------
def run_fig7b() -> dict:
    thresholds = (1000, 2000, 4000, 8000)
    shadow_days = {
        f"{t // 1000}K": ShadowSecurityModel(threshold=t).defense_days
        for t in thresholds
    }
    locker = LockerSecurityModel(trh=WORST_CASE_TRH, copy_error_rate=0.10)
    return {
        "shadow_days": shadow_days,
        "locker_days": locker.defense_days,
        "locker_exceeds_plot": locker.defense_days > 4000,
    }


# ----------------------------------------------------------------------
# Fig. 8: BFA against the full system, with and without DRAM-Locker
# ----------------------------------------------------------------------
def run_fig8(arch: str = "resnet20", scale: Scale | None = None) -> dict:
    """The registry's ``bfa`` cell, run open and locked."""
    scale = scale or Scale.quick()
    curves: dict[str, list[float]] = {}
    stats: dict[str, dict] = {}
    for defense, label in _RUNS.items():
        cell = run_attack_scenario(scale, "bfa", arch=arch, defense=defense)
        final = cell["final_accuracy"]
        curves[label] = cell["accuracies"]
        stats[label] = {
            "executed_flips": cell["executed_flips"],
            "iterations": cell["iterations"],
            "blocked_activations": cell["metrics"].get("blocked_activations", 0),
            "final_accuracy": cell["clean_accuracy"] if final is None else final,
        }
    return {
        "arch": arch,
        "clean_accuracy": cell["clean_accuracy"],
        "chance_accuracy": cell["chance_accuracy"],
        "curves": curves,
        "stats": stats,
    }


# ----------------------------------------------------------------------
# PTA: page-table attack, with and without DRAM-Locker
# ----------------------------------------------------------------------
def run_pta(scale: Scale | None = None) -> dict:
    """The registry's ``pta`` attack, run open and locked."""
    scale = scale or Scale.quick()
    curves: dict[str, list[float]] = {}
    stats: dict[str, dict] = {}
    iterations = max(6, scale.attack_iterations // 4)
    for defense, label in _RUNS.items():
        ctx, _, clean = _attack_context(scale, "resnet20", defense)
        snapshot = ctx.qmodel.snapshot()
        attack = build_attack("pta", ctx)
        result = attack.run(iterations)
        curves[label] = result.accuracies
        stats[label] = {
            "executed_redirects": result.executed_redirects,
            "redirected_pages": len(attack.paged.redirected_pages()),
            "final_accuracy": result.accuracies[-1] if result.accuracies else clean,
        }
        ctx.qmodel.restore(snapshot)
    return {
        "clean_accuracy": clean,
        "chance_accuracy": 100.0 / ctx.dataset.num_classes,
        "curves": curves,
        "stats": stats,
    }


# ----------------------------------------------------------------------
# Registry-driven attack scenarios (the attack x defense matrix)
# ----------------------------------------------------------------------
def run_attack_scenario(
    scale: Scale | None = None,
    attack: str = "bfa",
    arch: str = "resnet20",
    protected: bool = True,
    in_dram: bool = True,
    iterations: int | None = None,
    defense: str | None = None,
    **attack_params,
) -> dict:
    """One cell of the attack x defense matrix, dispatched by name.

    Any attack registered with :func:`repro.attacks.register_attack`
    runs here, against the victim :func:`_attack_context` assembles,
    through the registry's uniform ``run_attack`` entry point.

    ``defense`` selects the whole defense family by name (``"None"`` /
    ``"DRAM-Locker"`` / any
    :data:`~repro.defenses.builders.DEFENDED_HAMMER_DEFENSES` entry,
    e.g. ``"RADAR"`` or ``"DNN-Defender"``), overriding ``protected``;
    the payload then carries a ``"defense"`` section with the instance's
    mitigation accounting -- the bake-off's protection axis.
    ``protected`` alone stands for ``"DRAM-Locker"`` or ``"None"``.
    """
    scale = scale or Scale.quick()
    if not in_dram and (protected or defense is not None):
        raise ValueError("a defended victim requires in_dram=True")
    name = defense
    if name is None:
        name = "DRAM-Locker" if protected else "None"
    protected = name == "DRAM-Locker"
    ctx, system, clean = _attack_context(scale, arch, name, in_dram)
    snapshot = ctx.qmodel.snapshot()
    outcome = run_attack(
        attack, ctx, iterations or scale.attack_iterations, **attack_params
    )
    ctx.qmodel.restore(snapshot)
    payload = {
        "arch": arch,
        "protected": protected,
        "in_dram": in_dram,
        "clean_accuracy": clean,
        "chance_accuracy": 100.0 / ctx.dataset.num_classes,
        **outcome,
    }
    if defense is not None:
        payload["defense"] = _defense_section(defense, system)
    return payload


def _defense_section(name: str, system: ProtectedSystem | None) -> dict:
    """The bake-off's protection accounting for one attack cell."""
    section: dict = {"name": name}
    instance = system.defense if system is not None else None
    if instance is not None:
        section.update(
            mitigation_ns=instance.mitigation_ns_total,
            actions=instance.actions,
        )
        for attr in (
            "corruptions_detected",
            "rows_restored",
            "rows_zeroed",
            "scrubs",
            "read_checks",
            "swaps_performed",
        ):
            if hasattr(instance, attr):
                section[attr] = getattr(instance, attr)
    if system is not None and system.locker is not None:
        section["locker"] = system.locker.exposure_summary()
    return section


# ----------------------------------------------------------------------
# Table II: software-defense comparison
# ----------------------------------------------------------------------
def run_table2(
    scale: Scale | None = None,
    flip_budget: int = 60,
    broken_accuracy: float = 20.0,
) -> dict:
    """Attack every hardened model until it breaks or the budget ends.

    ``broken_accuracy``: the attack stops once accuracy falls to this
    level (the paper's ~10 % on CIFAR-10 scaled to the synthetic task's
    chance level plus margin).
    """
    scale = scale or Scale.quick()
    dataset = synthetic_cifar10(hw=scale.input_hw, seed=scale.seed)
    train_config = TrainConfig(epochs=scale.epochs, seed=scale.seed)
    rows: list[dict] = []
    baseline_clean = None

    for label, builder in TABLE2_BUILDERS.items():
        hardened: HardenedModel = builder(
            dataset, config=train_config, width=scale.resnet_width
        )
        if label == "Baseline ResNet-20":
            baseline_clean = hardened.clean_accuracy
        qmodel = QuantizedModel(hardened.model)
        attack = ProgressiveBitSearch(
            qmodel,
            dataset,
            BFAConfig(attack_batch=scale.attack_batch, seed=scale.seed),
            repair=hardened.repair,
        )
        result = attack.run(flip_budget, stop_at_accuracy=broken_accuracy)
        reached = result.iterations_to_reach(broken_accuracy)
        rows.append(
            {
                "model": label,
                "clean_accuracy": hardened.clean_accuracy,
                "post_attack_accuracy": result.accuracies[-1],
                "bit_flips": reached if reached is not None else f">{flip_budget}",
                "broken": reached is not None,
            }
        )

    # DRAM-Locker's row: the guard-row system blocks the attack outright,
    # so clean accuracy is preserved at the paper's 1 150-flip budget.
    rows.append(
        {
            "model": "DRAM-Locker",
            "clean_accuracy": baseline_clean,
            "post_attack_accuracy": baseline_clean,
            "bit_flips": 1150,
            "broken": False,
        }
    )
    return {"dataset": dataset.name, "rows": rows, "chance": 10.0}


# ----------------------------------------------------------------------
# Ablations of DRAM-Locker's design choices (DESIGN.md section 6)
# ----------------------------------------------------------------------
#: The ablations' device TRH: low, so each attack runs in milliseconds.
_ABLATION_TRH = 100


def _half_double_attack(device, controller, victim: int, bit: int) -> bool:
    """Hammer at distance 2 (Half-Double) until the bit flips or the
    budget runs out."""
    device.vulnerability.register_template(victim, [bit])
    aggressors = [
        row
        for row in device.mapper.neighbors(victim, radius=2)
        if row not in device.mapper.neighbors(victim, radius=1)
    ]
    budget = device.timing.trh * 6
    for _ in range(budget // max(1, len(aggressors))):
        for aggressor in aggressors:
            controller.hammer(aggressor)
            byte = device.peek_bytes(victim, bit // 8, 1)[0]
            if byte >> (bit % 8) & 1:
                return True
    return False


def run_radius_ablation() -> dict[int, bool]:
    """Lock radius 1 vs 2 against the distance-2 Half-Double pattern."""
    outcomes = {}
    for radius in (1, 2):
        device, locker, _, controller = build_stack(
            "DRAM-Locker", trh=_ABLATION_TRH, half_double_factor=2.0
        )
        victim = device.mapper.row_index((0, 0, 20))
        locker.protect([victim], radius=radius)
        outcomes[radius] = _half_double_attack(device, controller, victim, 3)
    return outcomes


def run_layout_ablation() -> dict[bool, dict]:
    """Guard-row vs contiguous weight layout: protection-plan coverage."""
    qmodel = QuantizedModel(
        resnet20(num_classes=4, width=4, input_hw=8, seed=0)
    )
    coverage = {}
    for guard in (True, False):
        device = build_stack("None", trh=_ABLATION_TRH).device
        store = WeightStore(device, qmodel, guard_rows=guard)
        plan = plan_protection(
            device.mapper, store.data_rows, mode=LockMode.ADJACENT
        )
        coverage[guard] = {
            "data_rows": len(store.data_rows),
            "locked_rows": len(plan.locked_rows),
            "uncovered_victims": len(plan.uncovered_victims),
            "complete": plan.is_complete,
        }
    return coverage


def run_relock_ablation(
    intervals: tuple[int, ...] = (50, 200, 800), seed: int = 0
) -> dict[int, dict]:
    """Re-lock interval vs unlock/restore SWAP traffic under tenant load."""
    results = {}
    for interval in intervals:
        device, locker, _, controller = build_stack(
            "DRAM-Locker",
            trh=_ABLATION_TRH,
            locker_config=LockerConfig(relock_interval=interval),
        )
        locker.lock_rows([21])
        rng = np.random.default_rng(seed)
        for _ in range(2000):
            row = int(rng.choice([21, 30, 40]))
            controller.read(row, privileged=True)
        results[interval] = {
            "unlock_swaps": locker.unlock_swaps,
            "restores": locker.restores,
            "defense_ns": device.stats.defense_ns,
        }
    return results


# ----------------------------------------------------------------------
# RowClone savings (Section II background claims)
# ----------------------------------------------------------------------
def run_rowclone_savings(row_bytes: int = 8192) -> dict:
    from ..dram.energy import DDR4_ENERGY
    from ..dram.timing import DDR4_2400

    timing = DDR4_2400
    bursts = row_bytes // 64
    channel_latency_ns = 2 * (timing.trcd + timing.tcl) + 2 * bursts * timing.tccd + timing.trp
    rowclone_latency_ns = timing.rowclone_ns
    channel_energy_nj = DDR4_ENERGY.channel_copy_nj(row_bytes)
    rowclone_energy_nj = DDR4_ENERGY.rowclone_copy_nj()
    return {
        "row_bytes": row_bytes,
        "channel_latency_ns": channel_latency_ns,
        "rowclone_latency_ns": rowclone_latency_ns,
        "latency_factor": channel_latency_ns / rowclone_latency_ns,
        "channel_energy_nj": channel_energy_nj,
        "rowclone_energy_nj": rowclone_energy_nj,
        "energy_factor": channel_energy_nj / rowclone_energy_nj,
        "paper_latency_factor": 11.6,
        "paper_energy_factor": 74.4,
    }

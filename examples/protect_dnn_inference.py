"""Protect a quantized DNN's weights against BFA (the Fig. 8 story).

Trains a scaled ResNet-20 on the synthetic CIFAR-10 stand-in, places
its 8-bit weights in simulated DRAM with guard-row interleaving, and
runs the progressive-bit-search attack twice: against the bare system
and against the DRAM-Locker-protected one (charged with the +/-20%
process corner's 9.6% SWAP failure rate).

Run with:  python examples/protect_dnn_inference.py
"""

from repro.attacks import BFAConfig, ProgressiveBitSearch
from repro.eval import Scale, build_system, build_victim
from repro.serving import GuardRowTenant


def main() -> None:
    scale = Scale(
        input_hw=16, resnet_width=8, epochs=4, attack_iterations=12, attack_batch=48
    )
    print("training the victim model (scaled ResNet-20)...")
    dataset, qmodel = build_victim("resnet20", scale)
    clean = qmodel.model.accuracy(dataset.test_x, dataset.test_y)
    print(f"clean accuracy: {clean:.1f}%  (chance: 10.0%)")
    snapshot = qmodel.snapshot()

    for protected in (False, True):
        qmodel.restore(snapshot)
        system = build_system(qmodel, "DRAM-Locker" if protected else "None")
        label = "WITH DRAM-Locker" if protected else "WITHOUT protection"
        print(f"\n--- BFA {label} ---")
        if protected:
            locked = len(system.locker.table)
            print(f"lock-table holds {locked} guard rows "
                  f"({system.locker.table.occupancy:.1%} of its capacity)")
        attack = ProgressiveBitSearch(
            qmodel,
            dataset,
            BFAConfig(attack_batch=scale.attack_batch),
            store=system.store,
            driver=system.driver,
            # A tenant's privileged guard-row access before each campaign:
            # the unlock-SWAP whose failure is DRAM-Locker's only opening.
            before_execute=(
                GuardRowTenant(system.store, system.controller, seed=1)
                if protected
                else None
            ),
        )
        result = attack.run(scale.attack_iterations)
        for record in result.flips:
            status = "FLIPPED " if record.executed else "blocked "
            print(
                f"  iter {record.iteration:2d}: {status} "
                f"{record.tensor}[{record.flat_index}] bit {record.bit} "
                f"-> accuracy {record.accuracy_after:5.1f}%"
            )
        print(
            f"executed flips: {result.executed_flips}/{len(result.flips)}, "
            f"final accuracy {result.accuracies[-1]:.1f}%"
        )
        stats = system.device.stats
        print(f"device: {stats.blocked_requests} blocked requests, "
              f"{stats.swaps} swaps, {stats.bit_flips} bit flips")


if __name__ == "__main__":
    main()

"""Defend page tables against PTA (the Fig. 3(b) threat).

The victim's weight pages are reached through a two-level page table in
simulated DRAM.  The attacker redirects a leaf PTE's frame number with
a single RowHammer bit flip, making inference stream weights from an
attacker-controlled frame.  DRAM-Locker then locks the page-table
rows' aggressors and the same attack is skipped at the controller.

Run with:  python examples/page_table_protection.py
"""

from repro.attacks import PagedWeights, PageTableAttack
from repro.eval import Scale, build_system, build_victim
from repro.locker import LockMode
from repro.vm import MMU, PageTable


def main() -> None:
    scale = Scale(input_hw=16, resnet_width=8, epochs=4, attack_batch=48)
    print("training the victim model...")
    dataset, qmodel = build_victim("resnet20", scale)
    clean = qmodel.model.accuracy(dataset.test_x, dataset.test_y)
    print(f"clean accuracy: {clean:.1f}%")
    snapshot = qmodel.snapshot()

    for protected in (False, True):
        qmodel.restore(snapshot)
        system = build_system(qmodel, "DRAM-Locker" if protected else "None")
        mapper = system.device.mapper
        bank = system.device.config.banks - 1
        pt_rows = [mapper.row_index((bank, 0, local)) for local in range(0, 32, 2)]
        page_table = PageTable(system.device, pt_rows)
        mmu = MMU(system.controller, page_table)
        paged = PagedWeights(system.store, page_table, mmu)
        label = "WITH DRAM-Locker" if protected else "WITHOUT protection"
        if protected:
            plan = system.locker.protect(
                page_table.table_rows(), mode=LockMode.ADJACENT
            )
            print(f"\n--- PTA {label} "
                  f"(locked {len(plan.locked_rows)} PT-adjacent rows) ---")
        else:
            print(f"\n--- PTA {label} ---")

        attack = PageTableAttack(qmodel, dataset, paged, system.driver)
        result = attack.run(6)
        for record in result.records:
            status = "REDIRECTED" if record.executed else "blocked   "
            print(
                f"  iter {record.iteration}: vpn {record.vpn:3d} via PTE row "
                f"{record.pte_row} {status} -> accuracy {record.accuracy_after:5.1f}%"
            )
        print(
            f"redirected pages: {len(paged.redirected_pages())}, "
            f"final accuracy {result.accuracies[-1]:.1f}%"
        )


if __name__ == "__main__":
    main()

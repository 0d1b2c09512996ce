"""DRAM-Locker reproduction.

A full-system reproduction of *DRAM-Locker: A General-Purpose DRAM
Protection Mechanism Against Adversarial DNN Weight Attacks* (DATE 2024,
arXiv:2312.09027).

The package is organised as one subpackage per subsystem:

``repro.dram``
    Cycle-approximate DRAM device model with a RowHammer disturbance
    model, refresh engine, and DDR3/DDR4/LPDDR4 timing/energy tables.
``repro.controller``
    Memory controller: request sequence, open-row policy, defense hooks.
``repro.isa``
    The paper's 16-bit instruction set (row-copy / ``bnez`` / ``done``),
    assembler and micro-program executor.
``repro.locker``
    The DRAM-Locker defense itself: SRAM lock-table, RowClone-based
    SWAP engine with process-variation failure injection, re-lock policy.
``repro.defenses``
    Behavioural baselines (SHADOW, Graphene, Hydra, TWiCE, PARA, TRR,
    counter trees, RRS/SRS) plus the Table I overhead calculators.
``repro.vm``
    Two-level page tables stored in simulated DRAM, used by the
    page-table attack (PTA).
``repro.circuits``
    Monte-Carlo charge-sharing model of the in-DRAM copy (Section IV-D).
``repro.arch``
    CACTI-like analytical SRAM/CAM/DRAM cost model.
``repro.nn``
    NumPy DNN stack (ResNet-20 / VGG-11), 8-bit quantization, synthetic
    CIFAR-like datasets, and training-based hardening baselines.
``repro.attacks``
    Progressive-bit-search BFA, random-flip baseline, and PTA drivers
    that act on the model *through* the simulated DRAM.
``repro.eval``
    Experiment runners and report formatting for every table and figure.

The stable, user-facing API is re-exported from :mod:`repro.core`.
"""

import logging

__version__ = "1.0.0"

__all__ = ["__version__"]

# The library convention: ``repro`` loggers stay silent until an
# application configures logging (the CLIs' ``--log-level``).  Without
# a handler here, a record at WARNING or above would reach Python's
# last-resort stderr handler.
logging.getLogger(__name__).addHandler(logging.NullHandler())

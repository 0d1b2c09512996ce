"""One builder wires every defended stack.

:func:`repro.defenses.stack.build_stack` is the one place a defense
name becomes a device, a locker, a ``Defense`` instance and a
controller.  These tests pin what each name installs through the
surfaces that build DRAM, the one error an unknown name raises on every
one of them, and that the builder's module joins the import graph
without a cycle.
"""

import os
import subprocess
import sys

import pytest

from repro.defenses.builders import DEFENDED_HAMMER_DEFENSES
from repro.defenses.stack import build_stack
from repro.dram import DRAMConfig
from repro.eval.experiments import Scale, build_system, run_attack_scenario
from repro.eval.runners import SCENARIO_RUNNERS
from repro.nn.models import resnet20
from repro.nn.quant import QuantizedModel
from repro.serving import ServingConfig, ServingSimulation, ShardedMemorySystem

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(scope="module")
def qmodel():
    return QuantizedModel(resnet20(num_classes=4, width=4, input_hw=8, seed=0))


def _assert_installs(name, locker, defense, controller):
    """A locker if and only if ``"DRAM-Locker"``; no ``Defense`` where
    the table has no factory, else an instance of the factory's class;
    both installed in the controller."""
    assert (locker is not None) == (name == "DRAM-Locker")
    factory = DEFENDED_HAMMER_DEFENSES[name]
    if factory is None:
        assert defense is None
    else:
        assert type(defense) is type(factory())
    assert controller.locker is locker
    assert controller.defense is defense


@pytest.mark.parametrize("name", list(DEFENDED_HAMMER_DEFENSES))
def test_build_system_installs_what_the_name_names(name, qmodel):
    system = build_system(qmodel, name)
    _assert_installs(name, system.locker, system.defense, system.controller)


@pytest.mark.parametrize("name", list(DEFENDED_HAMMER_DEFENSES))
def test_every_channel_installs_what_the_name_names(name):
    system = ShardedMemorySystem(
        DRAMConfig.small().with_channels(2), defense=name
    )
    for state in system.channels:
        _assert_installs(name, state.locker, state.defense, state.controller)
    first, second = system.channels
    if first.defense is not None:
        assert first.defense is not second.defense
    if first.locker is not None:
        assert first.locker is not second.locker


def test_none_and_dram_locker_install_no_defense_instance():
    for name in ("None", "DRAM-Locker"):
        assert build_stack(name).defense is None


QUICK = Scale.quick()

#: Every surface that builds DRAM from a defense name, called with an
#: unknown one.
UNKNOWN_NAME_SURFACES = {
    "build_system": lambda qmodel: build_system(qmodel, "nope"),
    "ShardedMemorySystem": lambda qmodel: ShardedMemorySystem(
        DRAMConfig.small(), defense="nope"
    ),
    "ServingSimulation": lambda qmodel: ServingSimulation(
        ServingConfig(slices=1, defense="nope")
    ),
    "run_attack_scenario": lambda qmodel: run_attack_scenario(
        QUICK, "bfa", iterations=1, defense="nope"
    ),
    "serving runner": lambda qmodel: SCENARIO_RUNNERS["serving"](
        QUICK, 0, defense="nope", slices=1
    ),
    "defended_hammer runner": lambda qmodel: SCENARIO_RUNNERS[
        "defended_hammer"
    ](QUICK, 0, defense="nope"),
    "defense_campaign runner": lambda qmodel: SCENARIO_RUNNERS[
        "defense_campaign"
    ](QUICK, 0, defense="nope"),
}


@pytest.mark.parametrize("surface", list(UNKNOWN_NAME_SURFACES))
def test_unknown_name_raises_one_error_everywhere(surface, qmodel):
    with pytest.raises(ValueError) as error:
        UNKNOWN_NAME_SURFACES[surface](qmodel)
    assert type(error.value) is ValueError
    message = str(error.value)
    assert message.startswith("unknown defense 'nope'; known: ")
    for name in DEFENDED_HAMMER_DEFENSES:
        assert name in message


@pytest.mark.parametrize(
    "module",
    [
        "repro.controller",
        "repro.defenses",
        "repro.locker",
        "repro.serving.sharded",
        "repro.eval.experiments",
        "repro.defenses.stack",
    ],
)
def test_module_imports_alone(module):
    """Each imports first in a fresh interpreter: the controller imports
    ``repro.defenses.base``, so a controller import in a module the
    ``repro.defenses`` package imports would close a cycle."""
    assert _fresh_import(module) == ""


def test_serving_imports_without_the_nn_package():
    """The builder's module loads ``repro.nn`` only to place a model
    victim, so the serving stack and its CLI start without it."""
    probe = "import sys; print(sorted(m for m in sys.modules if m.startswith('repro.nn')))"
    assert _fresh_import("repro.serving", probe) == "[]"


def _fresh_import(module, then="pass"):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}; {then}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()

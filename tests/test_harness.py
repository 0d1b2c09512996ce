"""The parallel scenario harness: determinism, seeds, artifacts."""

import json
import os
from collections import Counter

import pytest

from repro.attacks import available_attacks
from repro.eval import (
    MatrixFailure,
    Scale,
    Scenario,
    derive_seed,
    run_matrix,
    run_scenario,
)
from repro.eval.harness import (
    DEFENSE_BUILDERS,
    SCENARIO_RUNNERS,
    attack_scenarios,
    cheap_scenarios,
    quick_scenarios,
    smoke_scenarios,
)
from repro.nn import make_dataset, memo

QUICK = Scale.quick()

TINY_MATRIX = [
    Scenario("mc", "sec4d", QUICK, seed=0, params=(("trials", 500),)),
    Scenario("rowclone", "rowclone", QUICK),
    Scenario("fig7b", "fig7b", QUICK),
    Scenario("relock", "ablation_relock", QUICK, seed=3,
             params=(("intervals", (60, 400)),)),
]


class TestSeeds:
    def test_derived_seed_is_stable(self):
        assert derive_seed("fig8-resnet20") == derive_seed("fig8-resnet20")
        assert derive_seed("fig8-resnet20") != derive_seed("fig8-vgg11")
        assert derive_seed("x", base_seed=1) != derive_seed("x", base_seed=2)

    def test_explicit_seed_wins(self):
        scenario = Scenario("s", "rowclone", QUICK, seed=42)
        assert scenario.resolved_seed(base_seed=7) == 42

    def test_derived_seed_independent_of_matrix_order(self):
        a = Scenario("alpha", "rowclone", QUICK)
        b = Scenario("beta", "rowclone", QUICK)
        assert a.resolved_seed() == Scenario("alpha", "fig7b", QUICK).resolved_seed()
        assert a.resolved_seed() != b.resolved_seed()


class TestRunScenario:
    def test_payload_matches_direct_runner(self):
        result = run_scenario(TINY_MATRIX[1])
        assert result.ok
        from repro.eval import run_rowclone_savings

        assert result.payload == run_rowclone_savings()

    def test_unknown_runner_reports_error(self):
        result = run_scenario(Scenario("bad", "nope", QUICK))
        assert not result.ok
        assert "unknown runner" in result.error

    def test_runner_exception_is_captured(self):
        result = run_scenario(
            Scenario("boom", "fig8", QUICK, params=(("arch", "nonsense"),))
        )
        assert not result.ok
        assert "nonsense" in result.error


class TestRunMatrix:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_matrix([TINY_MATRIX[0], TINY_MATRIX[0]], workers=1)

    def test_serial_matrix_and_artifact(self, tmp_path):
        matrix = run_matrix(
            TINY_MATRIX, workers=1, tag="tiny", artifact_dir=str(tmp_path)
        )
        assert not matrix.failures
        assert matrix.workers == 1
        path = tmp_path / "BENCH_tiny.json"
        assert path.exists()
        artifact = json.loads(path.read_text())
        assert artifact["schema"] == "dram-locker-bench/1"
        assert set(artifact["results"]) == {s.name for s in TINY_MATRIX}
        assert artifact["timing"]["per_scenario_s"].keys() == artifact["results"].keys()
        # Lookup helper
        assert matrix["mc"].payload["rows"][0]["trials"] == 500

    def test_same_seed_gives_identical_artifact(self, tmp_path):
        first = run_matrix(TINY_MATRIX, workers=1, tag="a",
                           artifact_dir=str(tmp_path))
        second = run_matrix(TINY_MATRIX, workers=1, tag="b",
                            artifact_dir=str(tmp_path))
        doc_a = first.as_artifact()
        doc_b = second.as_artifact()
        # Everything except wall-clock timing is deterministic.
        assert doc_a["results"] == doc_b["results"]
        assert doc_a["scenarios"] == doc_b["scenarios"]

    def test_parallel_results_equal_serial(self):
        serial = run_matrix(TINY_MATRIX, workers=1, tag="s")
        parallel = run_matrix(TINY_MATRIX, workers=2, tag="p")
        assert parallel.workers == 2
        assert serial.as_artifact()["results"] == parallel.as_artifact()["results"]

    def test_failure_does_not_poison_matrix(self):
        scenarios = [
            TINY_MATRIX[1],
            Scenario("bad", "fig8", QUICK, params=(("arch", "nope"),)),
        ]
        matrix = run_matrix(scenarios, workers=1)
        assert len(matrix.failures) == 1
        assert matrix["rowclone"].ok

    def test_strict_raises_on_failure(self, tmp_path):
        scenarios = [
            TINY_MATRIX[1],
            Scenario("bad", "fig8", QUICK, params=(("arch", "nope"),)),
        ]
        with pytest.raises(MatrixFailure, match="bad"):
            run_matrix(
                scenarios, workers=1, tag="strict",
                artifact_dir=str(tmp_path), strict=True,
            )
        # The artifact is still written (failures are recorded, not lost).
        assert (tmp_path / "BENCH_strict.json").exists()

    def test_strict_passes_clean_matrix(self):
        matrix = run_matrix([TINY_MATRIX[1]], workers=1, strict=True)
        assert not matrix.failures


#: Two attacks, open and locked, against one tiny victim.
TINY_ATTACKS = attack_scenarios(
    Scale(input_hw=8, resnet_width=4, epochs=1, attack_batch=16),
    iterations=1,
    attacks=("backdoor", "bfa"),
)

#: BFA and multi-round BFA, open and locked, at two iterations: multi-
#: round BFA spends both on fresh targets, as BFA does.
BFA_REPLAY = attack_scenarios(
    Scale(input_hw=8, resnet_width=4, epochs=1, attack_batch=16),
    iterations=2,
    attacks=("bfa", "multi-round-bfa"),
)


def _payloads(results):
    assert all(result.ok for result in results), [r.error for r in results]
    return [result.payload for result in results]


def _memo_probe(scale, seed):
    """A runner reporting whether its dataset was a memo hit, and where."""
    hits = memo.STATS.hits["dataset"]
    make_dataset("probe", 2, hw=4, train_per_class=1, test_per_class=1)
    return {"pid": os.getpid(), "hit": memo.STATS.hits["dataset"] > hits}


class TestMatrixMemo:
    """The cells of one matrix share their victim's clean-state work,
    pinned by counts: one dataset, one clean accuracy and one trigger
    per matrix, none shared across matrices or by lone cells; and the
    search sessions share gradient leaders, candidate values and
    probes."""

    @staticmethod
    def _counted(run):
        computed = Counter(memo.STATS.computed)
        hits = Counter(memo.STATS.hits)
        value = run()
        return (
            value,
            dict(memo.STATS.computed - computed),
            dict(memo.STATS.hits - hits),
        )

    def test_matrix_computes_clean_state_once(self):
        # Search work: each open cell computes its leaders, six
        # candidates and its post-flip probes; its locked twin reads
        # the leaders and candidates back and computes only its
        # clean-state probes (bfa-locked's accuracy is backdoor-locked's).
        # Activations (one per layer input computed): later cells read
        # 9 entries earlier cells filed, and the matrix computes 131 of
        # the 263 its cells compute alone.
        once = {"dataset": 1, "accuracy": 1, "trigger": 1,
                "leaders": 2, "candidate": 12, "probe": 9, "activation": 131}
        shared = {"dataset": 3, "accuracy": 3, "trigger": 1,
                  "leaders": 2, "candidate": 12, "probe": 1, "activation": 9}
        first, computed, hits = self._counted(
            lambda: run_matrix(TINY_ATTACKS, workers=1)
        )
        assert (computed, hits) == (once, shared)
        # The memo ends with its matrix: the next one computes again.
        second, computed, hits = self._counted(
            lambda: run_matrix(TINY_ATTACKS, workers=1)
        )
        assert (computed, hits) == (once, shared)
        alone, computed, hits = self._counted(
            lambda: [run_scenario(scenario) for scenario in TINY_ATTACKS]
        )
        assert (computed, hits) == (
            {"dataset": 4, "accuracy": 4, "trigger": 2,
             "leaders": 4, "candidate": 24, "probe": 10, "activation": 263},
            {},
        )
        parallel = run_matrix(TINY_ATTACKS, workers=2)
        expected = _payloads(alone)
        for matrix in (first, second, parallel):
            assert _payloads(matrix.results) == expected

    def test_locked_and_repeated_cells_reuse_the_search(self):
        """Locked cells never leave the clean weight state their open
        twin started from, and multi-round BFA's fresh targets are
        BFA's: those cells run no gradient pass.  Only bfa-locked
        scores a candidate -- its second, blocked iteration ranks one
        in place of the first target, which the open twin never scored
        at the clean state.  Nor does a locked cell forward a layer
        input its open twin already computed at the clean state: every
        activation it computes is an entry it files, and bfa-locked's
        two are the logits of the twin's probe sets, whose last layer
        the twin's first flip had changed before it probed them."""
        computed_by_cell = {}
        filed_by_cell = {}
        before = [Counter(memo.STATS.computed), set()]

        def record(result):
            now = Counter(memo.STATS.computed)
            filed = {key for key in memo.active() if key[0] == "activation"}
            computed_by_cell[result.name] = now - before[0]
            filed_by_cell[result.name] = filed - before[1]
            before[:] = [now, filed]

        serial = run_matrix(BFA_REPLAY, workers=1, on_result=record)
        search = {
            name: (computed["leaders"], computed["candidate"])
            for name, computed in computed_by_cell.items()
        }
        assert search == {
            "attack-bfa-open": (2, 12),
            "attack-bfa-locked": (0, 1),
            "attack-multi-round-bfa-open": (0, 0),
            "attack-multi-round-bfa-locked": (0, 0),
        }
        activations = {
            name: (computed["activation"], len(filed_by_cell[name]))
            for name, computed in computed_by_cell.items()
        }
        assert activations == {
            "attack-bfa-open": (72, 40),
            "attack-bfa-locked": (2, 2),
            "attack-multi-round-bfa-open": (0, 0),
            "attack-multi-round-bfa-locked": (0, 0),
        }
        # ...each one layer past the deepest entry the twin filed.
        for kind, inputs, j in filed_by_cell["attack-bfa-locked"]:
            assert (kind, inputs, j - 1) in filed_by_cell["attack-bfa-open"]
        parallel = run_matrix(BFA_REPLAY, workers=2)
        assert _payloads(parallel.results) == _payloads(serial.results)

    def test_worker_memo_lives_for_one_matrix(self, monkeypatch):
        """On a reused pool, each worker computes once per matrix (its
        first cell of the matrix) and hits after that."""
        from repro.eval import harness

        monkeypatch.setitem(harness.SCENARIO_RUNNERS, "memo-probe", _memo_probe)
        harness.shutdown_worker_pool()  # fork after the runner exists
        cells = [Scenario(f"probe-{i}", "memo-probe", QUICK) for i in range(4)]
        try:
            for _ in range(2):
                payloads = _payloads(run_matrix(cells, workers=2).results)
                workers = {payload["pid"] for payload in payloads}
                misses = sum(not payload["hit"] for payload in payloads)
                assert misses == len(workers)
        finally:
            harness.shutdown_worker_pool()


class TestCannedSets:
    def test_sets_are_well_formed(self):
        for scenarios in (
            cheap_scenarios(),
            smoke_scenarios(),
            quick_scenarios(),
            attack_scenarios(),
        ):
            names = [s.name for s in scenarios]
            assert len(set(names)) == len(names)
            for scenario in scenarios:
                assert scenario.runner in SCENARIO_RUNNERS, scenario

    def test_smoke_superset_of_cheap(self):
        cheap = {s.name for s in cheap_scenarios()}
        smoke = {s.name for s in smoke_scenarios()}
        assert cheap < smoke

    def test_defense_builders_cover_locker(self):
        assert "DRAM-Locker" in DEFENSE_BUILDERS

    def test_attack_set_covers_every_registered_attack(self):
        """Register an attack, and the matrix picks it up -- both sides
        of the defense axis, all sharing one victim seed (the cache)."""
        scenarios = attack_scenarios()
        covered = {dict(s.params)["attack"] for s in scenarios}
        assert covered == set(available_attacks())
        assert all(s.seed == 0 for s in scenarios)
        for name in available_attacks():
            variants = {
                dict(s.params)["protected"]
                for s in scenarios
                if dict(s.params)["attack"] == name
            }
            assert variants == {False, True}


class TestMatrixCLIExitCodes:
    """`python -m repro.eval matrix` must fail loudly, not just record
    scenario errors in the artifact."""

    def _with_bad_set(self, monkeypatch):
        from repro.eval import harness

        bad = [Scenario("boom", "fig8", QUICK, params=(("arch", "nope"),))]
        monkeypatch.setitem(harness._SCENARIO_SETS, "bad", lambda scale: bad)

    def test_harness_cli_nonzero_on_failure(self, monkeypatch, capsys, tmp_path):
        from repro.eval.harness import main as harness_main

        self._with_bad_set(monkeypatch)
        rc = harness_main(
            ["--set", "bad", "--workers", "1", "--out", str(tmp_path)]
        )
        assert rc != 0
        out = capsys.readouterr().out
        assert "FAILED" in out and "boom" in out
        # The artifact still records the failure for post-mortems.
        artifact = json.loads((tmp_path / "BENCH_bad.json").read_text())
        assert "error" in artifact["results"]["boom"]

    def test_eval_main_propagates_matrix_exit(self, monkeypatch, capsys):
        from repro.eval.__main__ import main as eval_main

        self._with_bad_set(monkeypatch)
        assert eval_main(["matrix", "--set", "bad", "--workers", "1"]) != 0

    def test_harness_cli_zero_on_success(self, monkeypatch, capsys):
        from repro.eval import harness

        good = [TINY_MATRIX[1]]
        monkeypatch.setitem(harness._SCENARIO_SETS, "good", lambda scale: good)
        assert harness.main(["--set", "good", "--workers", "1"]) == 0


class TestCampaignRunner:
    def test_locker_campaign_blocks(self):
        result = run_scenario(
            Scenario(
                "c", "defense_campaign", QUICK, seed=0,
                params=(("defense", "DRAM-Locker"), ("trh", 200)),
            )
        )
        assert result.ok
        assert not result.payload["flipped"]
        assert result.payload["blocked"] > 0

    def test_undefended_campaign_flips(self):
        result = run_scenario(
            Scenario(
                "c", "defense_campaign", QUICK, seed=0,
                params=(("defense", "None"), ("trh", 200)),
            )
        )
        assert result.ok
        assert result.payload["flipped"]


class TestDefendedHammerRunner:
    def _payload(self, defense, engine, trh=400):
        result = run_scenario(
            Scenario(
                "dh", "defended_hammer", QUICK, seed=0,
                params=(
                    ("defense", defense), ("trh", trh),
                    ("victims", 1), ("engine", engine),
                ),
            )
        )
        assert result.ok, result.error
        return result.payload

    def test_engines_agree_and_defense_protects(self):
        def strip(payload):
            return {k: v for k, v in payload.items() if k != "engine"}

        bulk = self._payload("Graphene", "bulk")
        scalar = self._payload("Graphene", "scalar")
        assert strip(bulk) == strip(scalar)
        assert bulk["protected_bits_flipped"] == 0
        assert bulk["defense_actions"] > 0

    def test_undefended_campaign_flips_the_bit(self):
        payload = self._payload("None", "bulk")
        assert payload["protected_bits_flipped"] == 1

    def test_locker_cell_blocks_everything(self):
        payload = self._payload("DRAM-Locker", "bulk")
        assert payload["protected_bits_flipped"] == 0
        assert all(o["issued"] == 0 for o in payload["outcomes"])
        assert all(o["blocked"] > 0 for o in payload["outcomes"])

    def test_unknown_defense_reported(self):
        result = run_scenario(
            Scenario(
                "dh", "defended_hammer", QUICK, seed=0,
                params=(("defense", "nope"),),
            )
        )
        assert not result.ok
        assert "unknown defense" in result.error


class TestPersistentPoolAndProfiling:
    def test_pool_persists_across_matrices(self):
        from repro.eval import harness

        harness.shutdown_worker_pool()
        first = run_matrix(TINY_MATRIX, workers=2, tag="pp1")
        assert first.pool_startup_s > 0.0
        pool = harness._POOL_STATE["pool"]
        assert pool is not None
        second = run_matrix(TINY_MATRIX, workers=2, tag="pp2")
        assert second.pool_startup_s == 0.0
        assert harness._POOL_STATE["pool"] is pool
        assert (
            first.as_artifact()["results"] == second.as_artifact()["results"]
        )
        # A different worker count forces a rebuild.
        third = run_matrix(TINY_MATRIX, workers=3, tag="pp3")
        assert third.pool_startup_s > 0.0
        assert harness._POOL_STATE["pool"] is not pool
        harness.shutdown_worker_pool()

    def test_serial_matrix_needs_no_pool(self):
        from repro.eval import harness

        harness.shutdown_worker_pool()
        matrix = run_matrix(TINY_MATRIX[:2], workers=1, tag="serial")
        assert matrix.pool_startup_s == 0.0
        assert harness._POOL_STATE["pool"] is None

    def test_prewarm_runs_in_parent_and_is_timed(self):
        seen = []
        matrix = run_matrix(
            TINY_MATRIX[:2], workers=1, tag="warm",
            prewarm=lambda: seen.append(True),
        )
        assert seen == [True]
        assert matrix.prewarm_s >= 0.0
        assert matrix.as_artifact()["timing"]["prewarm_s"] == matrix.prewarm_s

    def test_profile_flag_dumps_pstats(self, tmp_path):
        import pstats

        matrix = run_matrix(
            TINY_MATRIX[:2], workers=1, tag="prof",
            artifact_dir=str(tmp_path), profile_dir=str(tmp_path),
        )
        assert not matrix.failures
        for scenario in TINY_MATRIX[:2]:
            path = tmp_path / f"profile_{scenario.name}.pstats"
            assert path.exists()
            stats = pstats.Stats(str(path))
            assert stats.total_calls > 0

    def test_profile_cli_requires_out(self, capsys):
        from repro.eval.harness import main as harness_main

        with pytest.raises(SystemExit):
            harness_main(["--set", "cheap", "--profile"])
        assert "--profile requires --out" in capsys.readouterr().err

    def test_shared_memory_round_trip(self):
        """The spawn-path shipping: exported victim arrays re-attach
        bitwise through multiprocessing.shared_memory."""
        import numpy as np

        from repro.eval import harness
        from repro.nn import cache as nncache

        saved = nncache.memory_cache_entries()
        nncache.memory_cache_clear()
        try:
            state = {
                "param:w": np.arange(12, dtype=np.float32).reshape(3, 4),
                "buffer:b": np.ones(5, dtype=np.float32),
            }
            nncache.memory_cache_put("/cache/dir", "deadbeef", state)
            manifest, segments = harness._export_shared_victims()
            nncache.memory_cache_clear()
            try:
                harness._attach_shared_victims(manifest, unregister=False)
                entries = nncache.memory_cache_entries()
                attached = entries[("/cache/dir", "deadbeef")]
                assert set(attached) == set(state)
                for name, value in state.items():
                    assert np.array_equal(attached[name], value)
            finally:
                for segment in harness._ATTACHED_SEGMENTS:
                    try:
                        segment.close()
                    except OSError:
                        pass
                harness._ATTACHED_SEGMENTS.clear()
                for segment in segments:
                    segment.close()
                    segment.unlink()
        finally:
            nncache.memory_cache_clear()
            for (directory, key), value in saved.items():
                nncache.memory_cache_put(directory, key, value)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_cleared_victim_layer_recreates_pool(self, monkeypatch, method):
        """A clear and a put leave the entry count as it was; the live
        pool must still be replaced by one whose workers hold the new
        entry (under spawn, shipped in the shared-memory manifest)."""
        import multiprocessing

        import numpy as np

        from repro.eval import harness
        from repro.nn import cache as nncache

        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        monkeypatch.setattr(
            harness.multiprocessing, "get_all_start_methods", lambda: [method]
        )
        saved = nncache.memory_cache_entries()
        harness.shutdown_worker_pool()
        nncache.memory_cache_clear()
        try:
            nncache.memory_cache_put(
                "/cache/dir", "a", {"param:w": np.zeros(3, np.float32)}
            )
            pool, _ = harness._acquire_pool(1)
            generation = nncache.memory_cache_generation()
            nncache.memory_cache_clear()
            assert nncache.memory_cache_generation() != generation
            nncache.memory_cache_put(
                "/cache/dir", "b", {"param:w": np.ones(3, np.float32)}
            )
            rebuilt, startup_s = harness._acquire_pool(1)
            assert rebuilt is not pool and startup_s > 0.0
            entries = rebuilt.apply(nncache.memory_cache_entries)
            assert list(entries) == [("/cache/dir", "b")]
            assert np.array_equal(entries["/cache/dir", "b"]["param:w"], np.ones(3))
        finally:
            harness.shutdown_worker_pool()
            nncache.memory_cache_clear()
            for (directory, key), value in saved.items():
                nncache.memory_cache_put(directory, key, value)

    def test_memory_layer_serves_hits_without_disk(self, tmp_path):
        from repro.nn import cache as nncache
        from repro.nn.cache import VictimCache

        saved = nncache.memory_cache_entries()
        nncache.memory_cache_clear()
        try:
            import numpy as np

            cache = VictimCache(directory=str(tmp_path), memory=True)
            state = {"param:w": np.zeros(3, dtype=np.float32)}
            cache.store("k", state)
            path = cache.path_for("k")
            assert (tmp_path / path.split("/")[-1]).exists()
            # Remove the npz: the memory layer must still hit.
            (tmp_path / path.split("/")[-1]).unlink()
            assert cache.load("k") is not None
            assert cache.stats.memory_hits == 1
            # A memory-less cache on the same directory now misses.
            cold = VictimCache(directory=str(tmp_path))
            assert cold.load("k") is None
        finally:
            nncache.memory_cache_clear()
            for (directory, key), value in saved.items():
                nncache.memory_cache_put(directory, key, value)

    def test_failed_dispatch_drops_poisoned_pool(self, monkeypatch):
        from repro.eval import harness
        from repro.nn import cache as nncache

        harness.shutdown_worker_pool()

        class PoisonedPool:
            def apply_async(self, fn, args):
                raise RuntimeError("worker died")

            def terminate(self):
                pass

            def close(self):
                pass

            def join(self):
                pass

        harness._POOL_STATE.update(
            pool=PoisonedPool(),
            method="fork",
            processes=2,
            generation=nncache.memory_cache_generation(),
        )
        with pytest.raises(RuntimeError, match="worker died"):
            run_matrix(TINY_MATRIX, workers=2, tag="poison")
        # The broken pool must not be reused by the next matrix.
        assert harness._POOL_STATE["pool"] is None
        recovered = run_matrix(TINY_MATRIX, workers=2, tag="recovered")
        assert not recovered.failures
        harness.shutdown_worker_pool()

    def test_memory_env_knob_disables_memory_layer(self, monkeypatch, tmp_path):
        from repro.nn.cache import CACHE_ENV_VAR, MEMORY_ENV_VAR, VictimCache

        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        assert VictimCache.from_env().memory
        monkeypatch.setenv(MEMORY_ENV_VAR, "off")
        assert not VictimCache.from_env().memory

"""Chaos-campaign acceptance: disturb, converge, compare, audit.

Runs the pinned smoke campaign from :mod:`tests.harness.chaos` — two
real subprocess sweep fleets sharing one cache, five injected faults
from a seeded schedule — and pins the full acceptance contract:

* at least five faults were actually injected,
* the fleet converged despite them,
* the merged cache is bit-identical to an undisturbed in-process
  control,
* ``fsck`` reported every corruption the campaign planted, and
* ``fsck --repair --gc`` left the tree clean.
"""

import json
import warnings

import pytest

from repro.cli import main as cli_main
from repro.harness.chaos import _install_enospc_shim
from repro.harness.runner import make_spec
from repro.harness.sweep import ResultCache, SweepManifest, fingerprint
from repro.sim.artifacts import Sink
from tests.harness import faults
from tests.harness.chaos import (
    SMOKE_BUDGET,
    ChaosReport,
    campaign_specs,
    smoke_campaign,
)


@pytest.fixture(scope="module")
def campaign(tmp_path_factory) -> ChaosReport:
    """One pinned-seed campaign shared by every assertion below."""
    root = tmp_path_factory.mktemp("chaos")
    return smoke_campaign(root=root)


class TestSmokeCampaign:
    def test_campaign_passes(self, campaign):
        assert campaign.ok, campaign.summary()

    def test_at_least_five_faults_injected(self, campaign):
        assert len(campaign.faults) >= 5
        assert len(campaign.faults) >= SMOKE_BUDGET
        for fault in campaign.faults:
            assert fault.kind and fault.detail

    def test_converged_within_recovery_rounds(self, campaign):
        assert campaign.converged
        assert campaign.rounds >= 1

    def test_results_bit_identical_to_control(self, campaign):
        assert campaign.identical
        assert campaign.mismatches == []

    def test_fsck_reported_every_planted_corruption(self, campaign):
        assert len(campaign.planted) == 5
        statuses = {item["status"] for item in campaign.planted}
        assert statuses == {"corrupt", "stale", "orphaned"}
        # fsck_pre counted at least everything planted.
        assert campaign.fsck_pre["corrupt"] >= 2
        assert campaign.fsck_pre["orphaned"] >= 2
        assert campaign.fsck_pre["stale"] >= 1

    def test_repair_and_gc_left_tree_clean(self, campaign):
        assert campaign.repaired >= 2
        assert campaign.collected >= 3
        assert campaign.clean_after
        assert campaign.fsck_post["corrupt"] == 0
        assert campaign.fsck_post["orphaned"] == 0
        assert campaign.fsck_post["stale"] == 0

    def test_report_document_round_trips(self, campaign):
        doc = json.loads(json.dumps(campaign.to_dict(), sort_keys=True))
        assert doc["ok"] is True
        assert doc["seed"] == campaign.seed
        assert len(doc["faults"]) == len(campaign.faults)


class TestCampaignPlumbing:
    def test_grid_is_stable_and_fingerprintable(self):
        specs = campaign_specs(0.05)
        assert len(specs) == 6
        assert len({spec.benchmark for spec in specs}) == 2

    def test_enospc_window_fails_sink_writes_while_the_flag_exists(
        self, tmp_path, monkeypatch
    ):
        # The shim patches the class; the monkeypatch restores it.
        monkeypatch.setattr(Sink, "attempt", Sink.attempt)
        flag = tmp_path / "enospc.flag"
        _install_enospc_shim(str(flag))
        spec = make_spec("monte", scale=0.05)
        key, stats = fingerprint(spec), faults._stats_for(spec)

        def put_and_append(name):
            cache = ResultCache(tmp_path / name)
            manifest = SweepManifest(tmp_path / name / "sweep.jsonl")
            cache.put(key, spec, stats)
            manifest.record_success(key, spec, stats)
            return cache, manifest

        flag.write_text("full\n", encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cache, manifest = put_and_append("window")
        assert cache.sink.dropped == manifest.sink.dropped == 1
        assert cache.get(key) is None
        assert faults.read_journal(manifest.path) == []
        assert len(caught) == 2
        assert all("No space left" in str(w.message) for w in caught)

        flag.unlink()
        cache, manifest = put_and_append("after")
        assert cache.stores == 1 and cache.sink.dropped == 0
        assert cache.get(key).to_dict() == stats.to_dict()
        assert [r["key"] for r in faults.read_journal(manifest.path)] == [key]

    def test_cli_chaos_smoke(self, tmp_path, capsys):
        """A tiny disturbed campaign through the real CLI exits 0."""
        rc = cli_main([
            "chaos", "--seed", "7", "--budget", "1",
            "--root", str(tmp_path / "run"), "--workers", "1",
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "chaos(seed=7): OK" in out

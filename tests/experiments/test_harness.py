"""Tests for the experiment harness: registry, cache, artifacts, CLI."""

import csv
import json

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.meta import ExperimentMeta
from repro.experiments.harness import (
    ResultCache,
    cache_key,
    csv_rows,
    execute,
    get_registry,
    get_spec,
    resolve,
    run_many,
    to_jsonable,
)
from repro.experiments.harness.cli import main

#: Cheap experiments used throughout (sub-100ms each).
CHEAP = "fig19"
CHEAP_TABULAR = "fig12"


class TestRegistry:
    def test_registry_complete(self):
        """Every evaluation table/figure plus the ablations is wired up."""
        expected = {
            "fig4", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
            "fig17", "fig18", "fig19",
            "table1", "table2", "table3", "table4", "table5",
            "ablation_sw", "ablation_kv", "sensitivity",
            "bench_backends", "bench_serving",
        }
        assert set(ALL_EXPERIMENTS) == expected

    def test_every_module_has_run_and_format(self):
        for name, module in ALL_EXPERIMENTS.items():
            assert callable(module.run), name
            assert callable(module.format_result), name

    def test_every_experiment_declares_meta(self):
        for name, spec in get_registry().items():
            assert isinstance(spec.meta, ExperimentMeta), name
            assert spec.meta.paper_ref != "-", name
            assert spec.meta.kind in ("figure", "table", "ablation"), name
            assert spec.meta.kind in spec.meta.all_tags

    def test_unknown_experiment_raises(self):
        with pytest.raises(ExperimentError, match="fig99"):
            get_spec("fig99")
        with pytest.raises(ExperimentError, match="unknown experiments"):
            resolve(["fig4", "fig99"])

    def test_resolve_all_keeps_registry_order(self):
        specs = resolve(["all"])
        assert [s.name for s in specs] == list(get_registry())
        # "all" mixed with explicit names still selects everything.
        assert [s.name for s in resolve(["fig4", "all"])] == list(get_registry())

    def test_resolve_deduplicates_and_reorders(self):
        specs = resolve(["table1", "fig4", "table1"])
        assert [s.name for s in specs] == ["fig4", "table1"]

    def test_tag_filtering(self):
        hardware = resolve(tags=["hardware"])
        assert {"fig11", "fig12", "fig13"} <= {s.name for s in hardware}
        assert all("hardware" in s.meta.all_tags for s in hardware)
        # Kind is an implicit tag.
        assert {s.name for s in resolve(tags=["table"])} == {
            "table1", "table2", "table3", "table4", "table5"
        }
        # Tags also restrict an explicit selection.
        assert [s.name for s in resolve(["fig4", "table5"], tags=["accuracy"])
                ] == ["table5"]

    def test_unknown_tag_raises(self):
        with pytest.raises(ExperimentError, match="unknown tags"):
            resolve(tags=["no-such-tag"])

    def test_empty_selection_raises(self):
        with pytest.raises(ExperimentError, match="matched no experiments"):
            resolve(["fig4"], tags=["accuracy"])


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = execute(CHEAP, cache=cache)
        assert not first.cached
        assert first.value is not None
        second = execute(CHEAP, cache=cache)
        assert second.cached
        assert second.text == first.text
        assert second.data == first.data
        assert second.key == first.key

    def test_force_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        execute(CHEAP, cache=cache)
        forced = execute(CHEAP, cache=cache, force=True)
        assert not forced.cached

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        execute(CHEAP, cache=cache)
        assert cache.clear() == 1
        assert not execute(CHEAP, cache=cache).cached

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run = execute(CHEAP, cache=cache)
        [entry] = list(cache.directory.glob("*.json"))
        entry.write_text("{not json")
        assert not execute(CHEAP, cache=cache).cached
        assert run.key == cache_key(get_spec(CHEAP))

    def test_key_depends_on_config(self):
        spec = get_spec(CHEAP)
        other = get_spec(CHEAP_TABULAR)
        assert cache_key(spec) != cache_key(other)
        assert cache_key(spec) == cache_key(spec)

    def test_uncacheable_experiment_never_hits_cache(self, tmp_path, monkeypatch):
        """cacheable=False metas (wall-clock benches) bypass the cache."""
        import dataclasses

        spec = get_spec(CHEAP)
        uncacheable = dataclasses.replace(
            spec, meta=dataclasses.replace(spec.meta, cacheable=False)
        )
        monkeypatch.setitem(get_registry(), CHEAP, uncacheable)
        cache = ResultCache(tmp_path / "cache")
        first = execute(CHEAP, cache=cache)
        assert not first.cached
        assert list(cache.directory.glob("*.json")) == []  # nothing stored
        assert not execute(CHEAP, cache=cache).cached
        [run] = run_many([get_spec(CHEAP)], cache=cache)
        assert not run.cached
        assert list(cache.directory.glob("*.json")) == []

    def test_bench_backends_is_uncacheable(self):
        assert get_spec("bench_backends").meta.cacheable is False
        # Timings must also never compete with pool siblings for cores.
        assert get_spec("bench_backends").meta.parallelizable is False

    def test_bench_serving_is_uncacheable(self):
        # Serving throughput numbers are wall-clock measurements too.
        assert get_spec("bench_serving").meta.cacheable is False
        assert get_spec("bench_serving").meta.parallelizable is False
        # Everything else stays cacheable (the timing bench is special).
        assert get_spec(CHEAP).meta.cacheable is True
        assert get_spec(CHEAP).meta.parallelizable is True

    def test_non_parallelizable_runs_serially_after_pool(self, tmp_path, monkeypatch):
        """run_many keeps non-parallelizable specs out of the worker pool
        but still returns every run in request order."""
        import dataclasses

        spec = get_spec(CHEAP)
        held_out = dataclasses.replace(
            spec,
            meta=dataclasses.replace(
                spec.meta, cacheable=False, parallelizable=False
            ),
        )
        monkeypatch.setitem(get_registry(), CHEAP, held_out)
        specs = resolve([CHEAP, CHEAP_TABULAR, "fig13"])
        runs = run_many(specs, jobs=2, cache=ResultCache(tmp_path / "c"))
        assert [r.name for r in runs] == [s.name for s in specs]
        assert all(not r.cached for r in runs)
        assert runs[0].text  # the serial run still produced its result


class TestSerialization:
    def test_to_jsonable_handles_numpy_and_dataclasses(self):
        run = execute(CHEAP)
        json.dumps(run.data)  # must round-trip
        assert to_jsonable(np.float64(1.5)) == 1.5
        assert to_jsonable(np.arange(3)) == [0, 1, 2]
        assert to_jsonable({1: "a"}) == {"1": "a"}

    def test_csv_rows_tabular_and_scalar(self):
        rows = csv_rows([{"a": 1, "b": {"c": 2}}, {"a": 3, "d": [4, 5]}])
        assert rows[0] == {"a": 1, "b.c": 2}
        assert rows[1] == {"a": 3, "d": "[4, 5]"}
        assert csv_rows("not tabular") == []
        assert csv_rows([]) == []


class TestExecutor:
    def test_run_many_preserves_request_order(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = resolve([CHEAP_TABULAR, CHEAP])
        runs = run_many(specs, jobs=2, cache=cache)
        assert [r.name for r in runs] == [s.name for s in specs]
        assert all(not r.cached for r in runs)
        again = run_many(specs, jobs=2, cache=cache)
        assert all(r.cached for r in again)
        assert [r.text for r in again] == [r.text for r in runs]


class TestCli:
    def test_run_unknown_experiment_exits_2(self, capsys):
        assert main(["run", "fig99", "--no-cache", "--no-artifacts"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_nothing_selected_exits_2(self, capsys):
        assert main(["run"]) == 2
        assert "nothing selected" in capsys.readouterr().err

    def test_list_tag_filter(self, capsys):
        assert main(["list", "--tag", "accuracy", "--format", "json"]) == 0
        names = [e["name"] for e in json.loads(capsys.readouterr().out)]
        assert "table5" in names and "fig16" in names
        assert "fig12" not in names

    def test_run_writes_artifacts(self, tmp_path, capsys):
        art = tmp_path / "artifacts"
        assert main(["run", CHEAP, CHEAP_TABULAR,
                     "--artifacts-dir", str(art)]) == 0
        out = capsys.readouterr().out
        assert f"=== {CHEAP} " in out

        envelope = json.loads((art / f"{CHEAP_TABULAR}.json").read_text())
        for field in ("schema_version", "name", "title", "paper_ref",
                      "kind", "tags", "config", "cache_key", "cached",
                      "elapsed_s", "data"):
            assert field in envelope, field
        assert envelope["name"] == CHEAP_TABULAR
        assert envelope["kind"] == "figure"
        assert isinstance(envelope["data"], list)

        with (art / f"{CHEAP_TABULAR}.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(envelope["data"])
        assert "compute_density_tflops_mm2" in rows[0]

        manifest = json.loads((art / "manifest.json").read_text())
        # resolve() normalizes to registry order: fig12 before fig19.
        assert [e["name"] for e in manifest] == [CHEAP_TABULAR, CHEAP]
        report = (art / "report.txt").read_text()
        assert f"=== {CHEAP} " in report

        # Second invocation is served from the cache under the same dir.
        assert main(["run", CHEAP, CHEAP_TABULAR,
                     "--artifacts-dir", str(art)]) == 0
        assert "cached" in capsys.readouterr().out

    def test_clean_cache(self, tmp_path, capsys):
        art = tmp_path / "artifacts"
        assert main(["run", CHEAP, "--artifacts-dir", str(art),
                     "--no-artifacts"]) == 0
        capsys.readouterr()
        assert main(["clean-cache", "--artifacts-dir", str(art)]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_run_json_format(self, tmp_path, capsys):
        assert main(["run", CHEAP, "--format", "json", "--no-cache",
                     "--artifacts-dir", str(tmp_path / "a")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["name"] == CHEAP
        assert payload[0]["cached"] is False
        assert payload[0]["data"]

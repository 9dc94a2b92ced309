"""End-to-end tests for the ``wavelet-trie`` command-line interface.

Every test drives :func:`repro.cli.main` directly (no subprocess), captures
stdout with capsys and checks both the human-readable and the ``--json``
output modes.
"""

import asyncio
import json

import pytest

from repro.cli import main
from repro.storage import load, save
from repro.db import ColumnStore


@pytest.fixture()
def log_file(tmp_path, url_log):
    path = tmp_path / "access.log"
    path.write_text("\n".join(url_log[:200]) + "\n", encoding="utf-8")
    return path


@pytest.fixture()
def built_index(tmp_path, log_file):
    path = tmp_path / "access.wt"
    assert main(["build", str(log_file), "-o", str(path)]) == 0
    return path


def run_json(capsys, argv):
    """Run a CLI command with --json and return the parsed payload."""
    assert main(argv + ["--json"]) == 0
    return json.loads(capsys.readouterr().out)


class TestBuild:
    def test_build_text_output(self, tmp_path, log_file, capsys):
        out_path = tmp_path / "index.wt"
        code = main(["build", str(log_file), "-o", str(out_path)])
        captured = capsys.readouterr().out
        assert code == 0
        assert out_path.exists()
        assert "indexed 200 values" in captured
        assert "wrote" in captured

    def test_build_json_output(self, tmp_path, log_file, capsys):
        out_path = tmp_path / "index.wt"
        payload = run_json(capsys, ["build", str(log_file), "-o", str(out_path)])
        assert payload["elements"] == 200
        assert payload["stored_bytes"] == out_path.stat().st_size
        assert payload["compression_ratio"] < 1.0

    @pytest.mark.parametrize("variant", ["static", "append-only", "dynamic"])
    def test_build_variants(self, tmp_path, log_file, url_log, variant):
        out_path = tmp_path / f"{variant}.wt"
        assert main(["build", str(log_file), "-o", str(out_path), "--variant", variant]) == 0
        index = load(out_path)
        assert index.to_list() == url_log[:200]

    def test_build_static_bitvector_choice(self, tmp_path, log_file):
        out_path = tmp_path / "static-plain.wt"
        code = main(
            ["build", str(log_file), "-o", str(out_path), "--variant", "static", "--bitvector", "plain"]
        )
        assert code == 0
        assert load(out_path).bitvector_kind == "plain"

    def test_build_rejects_the_rle_bitvector(self, tmp_path, log_file, capsys):
        """``--bitvector`` offers only the kinds a static trie has."""
        out_path = tmp_path / "static-rle.wt"
        with pytest.raises(SystemExit) as exited:
            main(
                ["build", str(log_file), "-o", str(out_path), "--variant", "static", "--bitvector", "rle"]
            )
        assert exited.value.code == 2
        assert "invalid choice: 'rle'" in capsys.readouterr().err
        assert not out_path.exists()

    def test_build_missing_input(self, tmp_path, capsys):
        code = main(["build", str(tmp_path / "nope.log"), "-o", str(tmp_path / "x.wt")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestInfo:
    def test_info_text(self, built_index, capsys):
        assert main(["info", str(built_index)]) == 0
        out = capsys.readouterr().out
        assert "elements         : 200" in out
        assert "AppendOnlyWaveletTrie" in out

    def test_info_json_with_bounds(self, built_index, capsys):
        payload = run_json(capsys, ["info", str(built_index), "--bounds"])
        assert payload["elements"] == 200
        assert payload["bounds"]["n"] == 200
        assert payload["measured_bits"] > payload["bounds"]["nH0_bits"]

    def test_info_rejects_non_trie_files(self, tmp_path, capsys):
        store = ColumnStore(["a"])
        store.append_row({"a": "x"})
        path = tmp_path / "table.wt"
        save(store, path)
        assert main(["info", str(path)]) == 1
        assert "not a Wavelet Trie" in capsys.readouterr().err


class TestQueries:
    def test_access(self, built_index, url_log, capsys):
        payload = run_json(capsys, ["access", str(built_index), "0", "5", "199"])
        values = {entry["position"]: entry["value"] for entry in payload["results"]}
        assert values == {0: url_log[0], 5: url_log[5], 199: url_log[199]}

    def test_rank_exact_and_prefix(self, built_index, url_log, capsys):
        target = url_log[0]
        payload = run_json(capsys, ["rank", str(built_index), target])
        assert payload["count"] == url_log[:200].count(target)
        prefix = "http://"
        payload = run_json(capsys, ["rank", str(built_index), prefix, "--prefix"])
        assert payload["count"] == 200

    def test_rank_with_pos(self, built_index, url_log, capsys):
        target = url_log[0]
        payload = run_json(capsys, ["rank", str(built_index), target, "--pos", "50"])
        assert payload["count"] == url_log[:50].count(target)

    def test_select(self, built_index, url_log, capsys):
        target = url_log[3]
        payload = run_json(capsys, ["select", str(built_index), target, "0"])
        assert url_log[payload["position"]] == target
        assert payload["position"] == url_log.index(target)

    def test_select_of_an_absent_value_names_it(self, tmp_path, log_file, capsys):
        path = tmp_path / "static.wt"
        assert main(["build", str(log_file), "-o", str(path), "--variant", "static"]) == 0
        capsys.readouterr()
        assert main(["select", str(path), "/never-seen", "0"]) == 1
        assert capsys.readouterr().err.strip() == (
            "error: \"value '/never-seen' does not occur in the sequence\""
        )

    def test_top(self, built_index, url_log, capsys):
        payload = run_json(capsys, ["top", str(built_index), "-k", "3"])
        counts = [entry["count"] for entry in payload["results"]]
        assert counts == sorted(counts, reverse=True)
        window = url_log[:200]
        top_count = max(window.count(value) for value in set(window))
        top_entry = payload["results"][0]
        assert top_entry["count"] == top_count
        assert window.count(top_entry["value"]) == top_count

    @pytest.mark.parametrize("k", ["-1", "-7"])
    def test_top_rejects_a_negative_k(self, built_index, capsys, k):
        assert main(["top", str(built_index), "-k", k]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == f"error: top-k count must be non-negative, got {k}"

    def test_top_checks_the_range_before_k(self, built_index, capsys):
        assert main(["top", str(built_index), "-k", "0", "--stop", "999"]) == 1
        assert "range [0, 999) invalid" in capsys.readouterr().err

    def test_distinct_with_range(self, built_index, url_log, capsys):
        payload = run_json(capsys, ["distinct", str(built_index), "--start", "10", "--stop", "60"])
        assert payload["distinct"] == len(set(url_log[10:60]))
        total = sum(entry["count"] for entry in payload["results"])
        assert total == 50

    def test_positions_exact_and_prefix(self, built_index, url_log, capsys):
        window = url_log[:200]
        target = window[3]
        payload = run_json(capsys, ["positions", str(built_index), target])
        expected = [i for i, value in enumerate(window) if value == target]
        assert payload["positions"] == expected
        assert payload["total"] == len(expected)
        payload = run_json(
            capsys,
            ["positions", str(built_index), "http://", "--prefix", "--limit", "7"],
        )
        assert payload["total"] == 200
        assert payload["positions"] == list(range(7))

    def test_positions_with_zero_matches(self, built_index, capsys):
        """An absent value or prefix is an empty answer, not an error."""
        payload = run_json(capsys, ["positions", str(built_index), "gopher://zzz"])
        assert payload == {
            "value": "gopher://zzz", "prefix": False, "total": 0, "positions": [],
        }
        payload = run_json(
            capsys, ["positions", str(built_index), "gopher://", "--prefix"]
        )
        assert payload["total"] == 0
        assert payload["positions"] == []

    def test_distinct_with_prefix(self, built_index, url_log, capsys):
        window = url_log[:200]
        host = sorted({value.split("/")[2] for value in window})[0]
        prefix = f"http://{host}"
        payload = run_json(capsys, ["distinct", str(built_index), "--prefix", prefix])
        expected = {value for value in window if value.startswith(prefix)}
        assert {entry["value"] for entry in payload["results"]} == expected


class TestAppend:
    def test_append_without_save(self, built_index, capsys):
        payload = run_json(capsys, ["append", str(built_index), "http://new.example/a"])
        assert payload["elements"] == 201
        # Not saved: reloading shows the original length.
        assert len(load(built_index)) == 200

    def test_append_with_save(self, built_index, capsys):
        code = main(["append", str(built_index), "http://new.example/a", "http://new.example/b", "--save"])
        assert code == 0
        index = load(built_index)
        assert len(index) == 202
        assert index.access(201) == "http://new.example/b"

    def test_append_to_static_index_fails(self, tmp_path, log_file, capsys):
        path = tmp_path / "static.wt"
        main(["build", str(log_file), "-o", str(path), "--variant", "static"])
        assert main(["append", str(path), "x"]) == 1
        assert "static" in capsys.readouterr().err


class TestDelete:
    @pytest.fixture()
    def dynamic_index(self, tmp_path, log_file):
        path = tmp_path / "dynamic.wt"
        assert main(["build", str(log_file), "-o", str(path), "--variant", "dynamic"]) == 0
        return path

    def test_delete_with_save(self, dynamic_index, url_log, capsys):
        window = url_log[:200]
        payload = run_json(
            capsys, ["delete", str(dynamic_index), "5", "0", "17", "--save"]
        )
        assert [entry["value"] for entry in payload["deleted"]] == [
            window[5], window[0], window[17]
        ]
        assert payload["elements"] == 197
        survivors = [v for i, v in enumerate(window) if i not in {0, 5, 17}]
        assert load(dynamic_index).to_list() == survivors

    def test_delete_without_save(self, dynamic_index, capsys):
        payload = run_json(capsys, ["delete", str(dynamic_index), "0"])
        assert payload["elements"] == 199
        assert len(load(dynamic_index)) == 200

    def test_delete_on_non_dynamic_index_fails(self, built_index, capsys):
        assert main(["delete", str(built_index), "0"]) == 1
        assert "dynamic" in capsys.readouterr().err

    def test_delete_out_of_range_fails(self, dynamic_index, capsys):
        assert main(["delete", str(dynamic_index), "0", "500"]) == 1
        assert "out of range" in capsys.readouterr().err

    def test_delete_duplicate_positions_fails_cleanly(self, dynamic_index, capsys):
        """Duplicate positions exit through the clean `error:` path, not a
        traceback (DuplicatePositionError is a ReproError)."""
        assert main(["delete", str(dynamic_index), "3", "3"]) == 1
        assert "more than once" in capsys.readouterr().err
        assert len(load(dynamic_index)) == 200


class TestOpen:
    def test_open_reports_the_image(self, built_index, url_log, capsys):
        assert built_index.read_bytes()[:4] == b"RWT2"
        payload = run_json(capsys, ["open", str(built_index)])
        assert payload["type"] == "AppendOnlyWaveletTrie"
        assert payload["elements"] == 200
        assert payload["open_ms"] >= 0
        assert "container" not in payload
        # Query subcommands read the same image.
        payload = run_json(capsys, ["access", str(built_index), "0", "199"])
        assert [r["value"] for r in payload["results"]] == [url_log[0], url_log[199]]

    def test_open_text_output_reports_latency(self, built_index, capsys):
        assert main(["open", str(built_index)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"opened {built_index} in ") and "ms" in out

    def test_open_missing_input_fails(self, tmp_path, capsys):
        missing = tmp_path / "nope.wt"
        assert main(["open", str(missing)]) == 1
        assert "error" in capsys.readouterr().err

    def test_there_is_no_save_subcommand(self, built_index, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["save", str(built_index), "-o", str(tmp_path / "copy.wt")])
        assert "invalid choice: 'save'" in capsys.readouterr().err


class TestPathsItCannotUse:
    """A directory where a file is expected ends in one ``error:`` line and
    exit 1, not an ``IsADirectoryError`` traceback."""

    def test_info_of_a_directory(self, tmp_path, capsys):
        assert main(["info", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err
        assert "Traceback" not in err

    def test_build_into_a_directory(self, tmp_path, log_file, capsys):
        target = tmp_path / "out"
        target.mkdir()
        assert main(["build", str(log_file), "-o", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err
        assert sorted(p.name for p in target.parent.iterdir()) == ["access.log", "out"]


@pytest.fixture()
def tiered_index(tmp_path, log_file):
    path = tmp_path / "tiered.wt"
    assert main(["build", str(log_file), "-o", str(path), "--variant", "tiered"]) == 0
    return path


class TestTiers:
    def test_build_tiered_variant(self, tiered_index, url_log):
        from repro.core.tiers import TieredWaveletTrie

        index = load(tiered_index)
        assert type(index) is TieredWaveletTrie
        assert index.to_list() == url_log[:200]

    def test_tiers_text(self, tiered_index, capsys):
        assert main(["tiers", str(tiered_index)]) == 0
        out = capsys.readouterr().out
        assert "200 elements in" in out
        assert "mutable" in out
        assert "tier 0:" in out

    def test_tiers_json(self, tiered_index, capsys):
        payload = run_json(capsys, ["tiers", str(tiered_index)])
        assert payload["elements"] == 200
        assert payload["tier_count"] == len(payload["tiers"])
        assert payload["tiers"][-1]["state"] == "mutable"
        assert sum(row["elements"] for row in payload["tiers"]) == 200
        assert payload["total_bits"] == sum(row["bits"] for row in payload["tiers"])

    def test_tiers_rejects_non_tiered_index(self, built_index, capsys):
        assert main(["tiers", str(built_index)]) == 1
        err = capsys.readouterr().err
        assert "not a tiered index" in err
        assert "--variant tiered" in err

    def test_append_and_delete_on_tiered(self, tiered_index, capsys):
        assert main(["append", str(tiered_index), "http://new.example/x", "--save"]) == 0
        capsys.readouterr()
        payload = run_json(capsys, ["tiers", str(tiered_index)])
        assert payload["elements"] == 201
        assert main(["delete", str(tiered_index), "200", "--save"]) == 0

    def test_delete_in_frozen_window_fails_cleanly(self, tiered_index, capsys):
        assert main(["compact", str(tiered_index), "--save"]) == 0
        capsys.readouterr()
        assert main(["delete", str(tiered_index), "0"]) == 1
        assert "frozen tiers" in capsys.readouterr().err


class TestCompact:
    def test_compact_merges_and_saves(self, tiered_index, capsys):
        payload = run_json(capsys, ["compact", str(tiered_index), "--save"])
        assert payload["saved"] is True
        assert payload["tiers_after"] == 2  # one frozen tier + empty tail
        assert "merged" in payload["action"]
        reloaded = run_json(capsys, ["tiers", str(tiered_index)])
        assert [row["state"] for row in reloaded["tiers"]] == ["frozen", "mutable"]

    def test_compact_no_merge_keeps_tiers(self, tiered_index, capsys):
        before = run_json(capsys, ["tiers", str(tiered_index)])["tier_count"]
        payload = run_json(capsys, ["compact", str(tiered_index), "--no-merge"])
        assert payload["saved"] is False
        assert "merged" not in payload["action"]
        assert payload["tiers_before"] == before

    def test_compact_steps_mode(self, tiered_index, capsys):
        payload = run_json(capsys, ["compact", str(tiered_index), "--steps", "5"])
        assert "advanced compaction" in payload["action"]
        assert payload["saved"] is False

    def test_compact_text_output_mentions_persistence(self, tiered_index, capsys):
        assert main(["compact", str(tiered_index)]) == 0
        out = capsys.readouterr().out
        assert "pass --save to persist" in out

    def test_compact_rejects_non_tiered_index(self, built_index, capsys):
        assert main(["compact", str(built_index)]) == 1
        assert "not a tiered index" in capsys.readouterr().err


class TestSearchCommands:
    @pytest.fixture()
    def docs_file(self, tmp_path):
        path = tmp_path / "docs.txt"
        path.write_text(
            "the quick brown fox\njumps over\nthe lazy dog\n\nfoxtrot the fox\n",
            encoding="utf-8",
        )
        return path

    @pytest.fixture()
    def search_index(self, tmp_path, docs_file):
        path = tmp_path / "docs.fm"
        assert (
            main(
                ["search", "build", str(docs_file), "-o", str(path), "--sa-sample", "8"]
            )
            == 0
        )
        return path

    def test_search_build_reports_sizes(self, tmp_path, docs_file, capsys):
        out_path = tmp_path / "docs.fm"
        payload = run_json(
            capsys, ["search", "build", str(docs_file), "-o", str(out_path)]
        )
        assert payload["documents"] == 5
        assert payload["sa_sample"] == 32
        assert payload["stored_bytes"] == out_path.stat().st_size

    def test_search_count(self, search_index, capsys):
        payload = run_json(
            capsys, ["search", "count", str(search_index), "the", "fox", "zebra"]
        )
        counts = {r["pattern"]: r["count"] for r in payload["results"]}
        assert counts == {"the": 3, "fox": 3, "zebra": 0}
        assert main(["search", "count", str(search_index), "fox"]) == 0
        assert capsys.readouterr().out.splitlines() == ["3\tfox"]

    def test_search_locate(self, search_index, capsys):
        payload = run_json(capsys, ["search", "locate", str(search_index), "fox"])
        assert payload["total"] == 3
        assert payload["matches"] == [
            {"document": 0, "offset": 16},
            {"document": 4, "offset": 0},
            {"document": 4, "offset": 12},
        ]

    def test_search_locate_limit(self, search_index, capsys):
        payload = run_json(
            capsys, ["search", "locate", str(search_index), "o", "--limit", "2"]
        )
        assert payload["total"] == 7
        assert len(payload["matches"]) == 2
        assert main(["search", "locate", str(search_index), "o", "--limit", "2"]) == 0
        assert "showing the first 2" in capsys.readouterr().out

    def test_search_empty_pattern_fails_cleanly(self, search_index, capsys):
        assert main(["search", "count", str(search_index), ""]) == 1
        assert "non-empty" in capsys.readouterr().err

    def test_search_commands_reject_trie_indexes(self, built_index, capsys):
        assert main(["search", "count", str(built_index), "x"]) == 1
        assert "search build" in capsys.readouterr().err

    def test_trie_commands_reject_search_indexes(self, search_index, capsys):
        assert main(["info", str(search_index)]) == 1
        assert "not a Wavelet Trie index" in capsys.readouterr().err

    def test_search_roundtrips_through_resave(self, search_index, tmp_path, capsys):
        copy = tmp_path / "copy.fm"
        save(load(search_index), copy)
        payload = run_json(capsys, ["search", "count", str(copy), "lazy"])
        assert payload["results"] == [{"pattern": "lazy", "count": 1}]


class TestServeReusedImageDir:
    """``serve --workers N --image-dir DIR`` reuses DIR only when its manifest
    matches the worker count, the shard name and the row count."""

    @pytest.fixture()
    def serving(self, monkeypatch):
        """Stub the event loop: record each serve instead of running it."""
        served = []

        def fake_run(coroutine):
            coroutine.close()
            served.append(True)

        monkeypatch.setattr(asyncio, "run", fake_run)
        return served

    @pytest.fixture()
    def image_dir(self, tmp_path, url_log, serving, capsys):
        """DIR holding 2-worker shard images of a 100-row index."""
        source = tmp_path / "a.log"
        source.write_text("\n".join(url_log[:100]) + "\n", encoding="utf-8")
        index = tmp_path / "a.wt"
        assert main(["build", str(source), "-o", str(index)]) == 0
        directory = tmp_path / "shards"
        assert self.serve(index, directory, "--workers", "2") == 0
        assert serving == [True]
        serving.clear()
        capsys.readouterr()
        return index, directory

    @staticmethod
    def serve(index, directory, *extra):
        return main(
            ["serve", str(index), "--socket", str(directory) + ".sock",
             "--image-dir", str(directory), *extra]
        )

    @staticmethod
    def assert_refused(capsys, serving, code, directory):
        """Exit 1 before serving, with an error naming DIR and the fix."""
        assert code == 1
        assert serving == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: --image-dir {directory} holds shard images of 100 rows")
        assert f"remove {directory} or pass another --image-dir" in err
        return err

    def test_matching_manifest_is_reused(self, image_dir, serving):
        index, directory = image_dir
        assert self.serve(index, directory, "--workers", "2") == 0
        assert serving == [True]

    def test_other_worker_count_is_refused(self, image_dir, serving, capsys):
        index, directory = image_dir
        code = self.serve(index, directory, "--workers", "3")
        err = self.assert_refused(capsys, serving, code, directory)
        assert "across 2 workers" in err and "across 3 workers" in err

    def test_other_shard_name_is_refused(self, image_dir, serving, capsys):
        index, directory = image_dir
        code = self.serve(index, directory, "--workers", "2", "--shard", "urls")
        err = self.assert_refused(capsys, serving, code, directory)
        assert "['default']" in err and "column 'urls'" in err

    def test_other_row_count_is_refused(self, image_dir, serving, tmp_path, url_log, capsys):
        _, directory = image_dir
        source = tmp_path / "b.log"
        source.write_text("\n".join(url_log[:30]) + "\n", encoding="utf-8")
        index = tmp_path / "b.wt"
        assert main(["build", str(source), "-o", str(index)]) == 0
        capsys.readouterr()
        code = self.serve(index, directory, "--workers", "2")
        err = self.assert_refused(capsys, serving, code, directory)
        assert "30 rows" in err

    @pytest.mark.parametrize(
        "manifest",
        [
            json.dumps({"format": "rwt2-cluster", "version": 0}).encode(),
            json.dumps({"format": "rwt2-cluster", "version": 1}).encode(),
            b"not JSON",
            b"\xff not UTF-8",
        ],
        ids=["version-0", "no-fields", "not-json", "not-utf8"],
    )
    def test_an_old_or_unreadable_manifest_is_refused(
        self, image_dir, serving, capsys, manifest
    ):
        """One ``error:`` line naming the manifest, no traceback, and nothing
        spawned."""
        index, directory = image_dir
        (directory / "manifest.json").write_bytes(manifest)
        assert self.serve(index, directory, "--workers", "2") == 1
        assert serving == []
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and "manifest.json" in lines[0]

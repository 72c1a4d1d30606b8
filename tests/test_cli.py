"""Unit tests for the fpfa-map command-line driver."""

import json

import pytest

from repro.cli import main

from tests.conftest import FIR_SOURCE


@pytest.fixture
def fir_file(tmp_path):
    path = tmp_path / "fir.c"
    path.write_text(FIR_SOURCE)
    return str(path)


def test_basic_run(fir_file, capsys):
    assert main([fir_file]) == 0
    out = capsys.readouterr().out
    assert "clusters" in out
    assert "locality" in out


def test_schedule_flag(fir_file, capsys):
    main([fir_file, "--schedule"])
    out = capsys.readouterr().out
    assert "Level0:" in out


def test_listing_flag(fir_file, capsys):
    main([fir_file, "--listing"])
    out = capsys.readouterr().out
    assert "cycle 0" in out


def test_cdfg_flag(fir_file, capsys):
    main([fir_file, "--cdfg"])
    out = capsys.readouterr().out
    assert "before simplification" in out
    assert "after  simplification" in out


def test_profile_flag(fir_file, capsys):
    main([fir_file, "--profile"])
    out = capsys.readouterr().out
    assert "stage timings:" in out
    for stage in ("parse", "transforms", "cluster", "schedule",
                  "allocate", "total"):
        assert stage in out
    assert "multitile" not in out  # single-tile run has no such stage


def test_profile_flag_multitile(fir_file, capsys):
    main([fir_file, "--profile", "--tiles", "2"])
    out = capsys.readouterr().out
    assert "stage timings:" in out
    assert "multitile" in out


def test_dot_output(fir_file, tmp_path, capsys):
    dot_path = tmp_path / "fir.dot"
    main([fir_file, "--dot", str(dot_path)])
    text = dot_path.read_text()
    assert text.startswith("digraph")
    assert "FE" in text


def test_verify_seed(fir_file, capsys):
    main([fir_file, "--verify-seed", "3"])
    out = capsys.readouterr().out
    assert "verified against the interpreter" in out


def test_library_option(fir_file, capsys):
    main([fir_file, "--library", "mac"])
    assert "clusters" in capsys.readouterr().out


def test_pps_and_buses(fir_file, capsys):
    main([fir_file, "--pps", "2", "--buses", "4", "--verify-seed", "0"])
    assert "verified" in capsys.readouterr().out


def test_stdin_input(monkeypatch, capsys):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(FIR_SOURCE))
    main(["-"])
    assert "clusters" in capsys.readouterr().out


def test_gantt_flag(fir_file, capsys):
    main([fir_file, "--gantt"])
    out = capsys.readouterr().out
    assert "xbar |" in out
    assert "PP0" in out
    assert "(in)" in out


def test_balance_flag(fir_file, capsys):
    main([fir_file, "--balance", "--verify-seed", "1"])
    assert "verified" in capsys.readouterr().out


def test_legacy_file_named_map(tmp_path, monkeypatch, capsys):
    # A lone argument naming an existing file maps it even when the
    # file is called `map`.
    (tmp_path / "map").write_text(FIR_SOURCE)
    monkeypatch.chdir(tmp_path)
    assert main(["map"]) == 0
    assert "clusters" in capsys.readouterr().out


# -- subcommands ----------------------------------------------------------

def test_explicit_map_subcommand(fir_file, capsys):
    assert main(["map", fir_file]) == 0
    out = capsys.readouterr().out
    assert "clusters" in out and "locality" in out


def test_map_json_file(fir_file, tmp_path, capsys):
    json_path = tmp_path / "metrics.json"
    main(["map", fir_file, "--json", str(json_path),
          "--verify-seed", "2"])
    payload = json.loads(json_path.read_text())
    assert payload["config"] == {"n_pps": 5, "n_buses": 10,
                                 "library": "two-level",
                                 "balance": False}
    assert payload["metrics"]["cycles"] > 0
    assert payload["verified"] is True


def test_map_json_stdout_legacy_form(fir_file, capsys):
    main([fir_file, "--json", "-"])
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["verified"] is None
    assert "locality" in payload["metrics"]


def test_map_json_dash_keeps_stdout_pure(fir_file, capsys):
    """`--json -` makes stdout pipeline-safe: pure JSON, with the
    human-readable report on stderr."""
    main(["map", fir_file, "--schedule", "--cdfg", "--json", "-"])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)  # parses with no stripping
    assert payload["metrics"]["cycles"] > 0
    assert "clusters" in captured.err
    assert "Level0:" in captured.err


def test_map_json_file_keeps_report_on_stdout(fir_file, tmp_path,
                                              capsys):
    json_path = tmp_path / "metrics.json"
    main(["map", fir_file, "--json", str(json_path)])
    captured = capsys.readouterr()
    assert "clusters" in captured.out  # unchanged for file targets
    assert captured.err == ""


def test_explore_json_dash_keeps_stdout_pure(fir_file, capsys):
    assert main(["explore", fir_file, "--pps", "1,2",
                 "--workers", "1", "--json", "-"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert len(payload["records"]) == 2
    assert "Pareto frontier" in captured.err


def test_explore_kernel(capsys):
    assert main(["explore", "--kernel", "fir5", "--pps", "1,2",
                 "--buses", "4,10", "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "design space: 4 points" in out
    assert "Pareto frontier" in out
    assert "best (" in out


def test_explore_file_with_sweep_and_table(fir_file, capsys):
    assert main(["explore", fir_file, "--sweep", "n_pps=1,2",
                 "--sweep", "balance=off,on", "--workers", "1",
                 "--table"]) == 0
    out = capsys.readouterr().out
    assert "design space: 4 points" in out
    assert "All evaluated points" in out
    assert "balance" in out


def test_explore_json(fir_file, tmp_path, capsys):
    json_path = tmp_path / "sweep.json"
    main(["explore", fir_file, "--pps", "1,2", "--workers", "1",
          "--objectives", "cycles,energy",
          "--json", str(json_path)])
    payload = json.loads(json_path.read_text())
    assert payload["strategy"] == "exhaustive"
    assert payload["objectives"] == ["cycles", "energy"]
    assert len(payload["records"]) == 2
    assert payload["best"]["ok"] is True
    assert payload["stats"]["unique"] == 2
    assert payload["frontier"]


def test_explore_random_strategy(capsys):
    assert main(["explore", "--kernel", "fir5",
                 "--pps", "1,2,3,4,5", "--buses", "2,4,10",
                 "--strategy", "random", "--samples", "4",
                 "--seed", "7", "--workers", "1"]) == 0
    assert "4 points (4 unique)" in capsys.readouterr().out


def test_explore_hill_strategy(capsys):
    hill = ["explore", "--kernel", "fir5",
            "--pps", "1,2,3,5", "--buses", "4,10",
            "--strategy", "hill", "--restarts", "1",
            "--workers", "1", "--json", "-"]
    assert main(hill) == 0
    default = json.loads(capsys.readouterr().out)
    assert default["frontier"]
    assert main([*hill, "--max-steps", "1"]) == 0
    short = json.loads(capsys.readouterr().out)
    assert short["stats"]["unique"] < default["stats"]["unique"]


def test_explore_rejects_unknown_objective_before_sweeping(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["explore", "--kernel", "fir5",
              "--objectives", "cylces"])
    assert "objective 'cylces'" in str(excinfo.value)


def test_explore_rejects_unswept_tile_field_objective(capsys):
    # memory_words is a real TileParams field, but records only carry
    # swept dimensions — so it cannot be resolved in this space.
    with pytest.raises(SystemExit) as excinfo:
        main(["explore", "--kernel", "fir5", "--pps", "1,2",
              "--objectives", "memory_words"])
    assert "memory_words" in str(excinfo.value)


def test_explore_accepts_swept_tile_field_objective(capsys):
    assert main(["explore", "--kernel", "fir5", "--pps", "1,2",
                 "--objectives", "cycles,n_pps",
                 "--workers", "1"]) == 0
    assert "best (" in capsys.readouterr().out


def test_explore_rejects_empty_objectives(capsys):
    with pytest.raises(SystemExit):
        main(["explore", "--kernel", "fir5", "--objectives", ","])


def test_explore_rejects_conflicting_shortcut_and_sweep(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["explore", "--kernel", "fir5",
              "--sweep", "n_pps=1,2,3,4", "--pps", "5"])
    assert "conflicts" in str(excinfo.value)


def test_explore_rejects_bad_sweep_spec(capsys):
    with pytest.raises(SystemExit):
        main(["explore", "--kernel", "fir5", "--sweep", "n_pps"])


def test_explore_needs_a_workload(capsys):
    with pytest.raises(SystemExit):
        main(["explore", "--pps", "1,2"])


def test_explore_rejects_file_and_kernel_together(fir_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["explore", fir_file, "--kernel", "fir16"])
    assert "not both" in str(excinfo.value)


# -- front-end errors: one compiler-style message, exit 1 ------------------

def _source_file(tmp_path, text):
    path = tmp_path / "prog.c"
    path.write_text(text)
    return str(path)


def test_map_without_main_is_one_message(tmp_path, capsys):
    path = _source_file(tmp_path, "int f(int a) { return a; }\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["map", path])
    assert excinfo.value.code == f"{path}: no function named 'main'"


def test_map_syntax_error_names_the_file_and_column(tmp_path, capsys):
    path = _source_file(tmp_path, "void main() { x = ; }\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["map", path])
    assert excinfo.value.code == (
        f"{path}:1:19: expected expression, found ';'\n"
        "    void main() { x = ; }\n"
        "                      ^")


def test_map_empty_file_is_worded_for_the_cli(tmp_path, capsys):
    path = _source_file(tmp_path, "  \n")
    with pytest.raises(SystemExit) as excinfo:
        main(["map", path])
    assert excinfo.value.code == f"{path}: no C source (the file is empty)"


def test_submit_empty_file_is_refused_before_contacting_a_daemon(
        tmp_path, capsys):
    # Port 1 has no daemon: an attempt to reach one would fail with
    # "cannot reach the daemon" instead.
    path = _source_file(tmp_path, "  \n")
    with pytest.raises(SystemExit) as excinfo:
        main(["submit", path, "--port", "1"])
    assert excinfo.value.code == f"{path}: no C source (the file is empty)"


def test_explore_empty_file_is_refused_before_mapping(tmp_path, capsys):
    path = _source_file(tmp_path, "")
    with pytest.raises(SystemExit) as excinfo:
        main(["explore", path, "--pps", "1,2", "--workers", "1"])
    assert excinfo.value.code == f"{path}: no C source (the file is empty)"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", [
    ["map"], ["explore", "--pps", "1,2", "--workers", "1"],
    ["submit", "--port", "1"]])
def test_an_unreadable_file_is_a_one_line_error(tmp_path, capsys,
                                                 command):
    missing = str(tmp_path / "missing.c")
    with pytest.raises(SystemExit) as excinfo:
        main([command[0], missing, *command[1:]])
    assert excinfo.value.code == f"{missing}: No such file or directory"
    assert capsys.readouterr().out == ""


def test_explore_without_main_fails_each_point_with_the_message(
        tmp_path, capsys):
    path = _source_file(tmp_path, "int f(int a) { return a; }\n")
    assert main(["explore", path, "--pps", "1,2", "--workers", "1",
                 "--json", "-"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"]["failed"] == 2
    assert {record["error"] for record in payload["records"]} == {
        "MissingFunctionError: no function named 'main'"}


def test_explore_exit_code_nonzero_without_feasible_point(capsys):
    assert main(["explore", "--kernel", "fir5",
                 "--sweep", "n_pps=0", "--workers", "1"]) == 1
    assert "no feasible point" in capsys.readouterr().out


def test_explore_rejects_typoed_sweep_value_before_running(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["explore", "--kernel", "fir5", "--pps", "1,x"])
    assert "takes integers" in str(excinfo.value)


# ---------------------------------------------------------------------------
# Multi-tile flags
# ---------------------------------------------------------------------------

def test_map_tiles_one_is_identity(fir_file, tmp_path, capsys):
    """Acceptance: --tiles 1 produces metrics identical to the plain
    single-tile flow."""
    plain_path = tmp_path / "plain.json"
    tiled_path = tmp_path / "tiled.json"
    main(["map", fir_file, "--json", str(plain_path)])
    main(["map", fir_file, "--tiles", "1", "--json", str(tiled_path)])
    capsys.readouterr()
    plain = json.loads(plain_path.read_text())
    tiled = json.loads(tiled_path.read_text())
    assert plain["metrics"] == tiled["metrics"]
    assert tiled["multitile"]["transfers"] == 0
    assert tiled["multitile"]["cut_edges"] == 0


def test_map_tiles_prints_per_tile_breakdown(fir_file, capsys):
    main(["map", fir_file, "--pps", "2", "--buses", "4",
          "--tiles", "2", "--topology", "ring"])
    out = capsys.readouterr().out
    assert "Per-tile breakdown" in out
    assert "ring" in out
    assert "transfers:" in out


def test_map_tiles_schedule_shows_steps(fir_file, capsys):
    main(["map", fir_file, "--pps", "2", "--buses", "4",
          "--tiles", "2", "--schedule"])
    out = capsys.readouterr().out
    assert "Level0:" in out
    assert "Step0:" in out


def test_explore_tiles_sweep_reports_transfer_metrics(capsys):
    assert main(["explore", "--kernel", "fir5", "--tiles", "1,2",
                 "--workers", "1",
                 "--objectives", "makespan,transfer_energy"]) == 0
    out = capsys.readouterr().out
    assert "tiles" in out
    assert "makespan" in out
    assert "transfer_energy" in out


def test_explore_rejects_multitile_objective_without_array_dim():
    with pytest.raises(SystemExit, match="unknown or unswept"):
        main(["explore", "--kernel", "fir5", "--pps", "1,2",
              "--objectives", "makespan"])


def test_explore_rejects_bad_topology(capsys):
    with pytest.raises(SystemExit):
        main(["explore", "--kernel", "fir5",
              "--topologies", "torus"])


def test_explore_remote_shards_across_a_daemon(capsys):
    from repro.service import ServiceThread
    with ServiceThread(workers=2) as daemon:
        host, port = daemon.address
        assert main(["explore", "--kernel", "fir5",
                     "--pps", "1,2", "--buses", "4,10",
                     "--remote", f"{host}:{port}",
                     "--chunk-size", "2", "--json", "-"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert len(payload["records"]) == 4
    assert payload["stats"]["remote_records"] == 4
    # A healthy daemon: no lease failed, nothing ran locally.
    assert (payload["stats"]["stolen"],
            payload["stats"]["local_records"]) == (0, 0)
    assert f"remote daemon: {host}:{port}" in captured.err
    # The remote ledger reaches the human summary too.
    assert "remote: 2 chunk(s) over 2 lease(s)" in captured.err


def test_explore_remote_unreachable_falls_back_locally(capsys):
    assert main(["explore", "--kernel", "fir5", "--pps", "1,2",
                 "--remote", "127.0.0.1:1", "--json", "-"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert len(payload["records"]) == 2
    assert payload["stats"]["local_records"] == 2
    assert payload["stats"]["leases"] == 0


def test_explore_remote_rejects_junk_fleet():
    with pytest.raises(SystemExit, match="remote"):
        main(["explore", "--kernel", "fir5", "--pps", "1,2",
              "--remote", "https://nope:1"])
    with pytest.raises(SystemExit, match="chunk-size"):
        main(["explore", "--kernel", "fir5", "--pps", "1,2",
              "--remote", "127.0.0.1:1", "--chunk-size", "0"])


def test_explore_remote_takes_one_daemon_address():
    # A sweep runs on one daemon: a comma list and a repeated flag
    # are both refused before any work starts.
    with pytest.raises(SystemExit, match="one daemon"):
        main(["explore", "--kernel", "fir5", "--pps", "1,2",
              "--remote", "127.0.0.1:1,127.0.0.1:2"])
    with pytest.raises(SystemExit, match="--remote takes one daemon"):
        main(["explore", "--kernel", "fir5", "--pps", "1,2",
              "--remote", "127.0.0.1:1", "--remote", "127.0.0.1:2"])


def test_explore_remote_rejects_hill_strategy():
    # Hill climbs in tiny sequential batches; sharding those over
    # HTTP would only add fleet probes per step — refused up front.
    with pytest.raises(SystemExit, match="hill"):
        main(["explore", "--kernel", "fir5", "--pps", "1,2",
              "--strategy", "hill", "--remote", "127.0.0.1:1"])


# -- the cache subcommand -------------------------------------------------

def _warm_store(tmp_path, capsys):
    store = tmp_path / "store"
    assert main(["explore", "--kernel", "fir5", "--pps", "1,2,3",
                 "--buses", "4,10", "--cache", str(store)]) == 0
    capsys.readouterr()
    return store


def test_cache_stats(tmp_path, capsys):
    store = _warm_store(tmp_path, capsys)
    assert main(["cache", "stats", str(store)]) == 0
    out = capsys.readouterr().out
    assert f"store: {store}" in out
    assert "entries: 6" in out
    assert "put_errors: 0" in out


def test_cache_stats_json(tmp_path, capsys):
    store = _warm_store(tmp_path, capsys)
    assert main(["cache", "stats", str(store), "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entries"] == 6
    assert payload["bytes"] > 0
    assert payload["evictions"] == 0


def test_cache_fsck_heals(tmp_path, capsys):
    store = _warm_store(tmp_path, capsys)
    # Drop a corpse the way a crashed writer would.
    shard = next(path for path in store.iterdir() if path.is_dir())
    (shard / "tmpcorpse.tmp").write_bytes(b"half")
    assert main(["cache", "fsck", str(store), "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tmp_removed"] == 1
    assert payload["corrupt_removed"] == 0
    assert payload["files"] == 6


def test_cache_gc_enforces_bound(tmp_path, capsys):
    store = _warm_store(tmp_path, capsys)
    assert main(["cache", "gc", str(store), "--max-entries", "2",
                 "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["evicted"] == 4
    assert payload["entries"] == 2
    # A byte bound below two records trims the store to one.
    assert main(["cache", "gc", str(store), "--max-bytes",
                 str(payload["bytes"] - 1), "--json", "-"]) == 0
    trimmed = json.loads(capsys.readouterr().out)
    assert trimmed["entries"] == 1
    assert trimmed["bytes"] < payload["bytes"]


def test_cache_gc_requires_a_bound(tmp_path, capsys):
    store = _warm_store(tmp_path, capsys)
    with pytest.raises(SystemExit, match="max-entries"):
        main(["cache", "gc", str(store)])


def test_cache_clear(tmp_path, capsys):
    store = _warm_store(tmp_path, capsys)
    assert main(["cache", "clear", str(store)]) == 0
    assert "removed: 6" in capsys.readouterr().out
    assert main(["cache", "stats", str(store), "--json", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == 0


def test_cache_rejects_missing_directory(tmp_path):
    with pytest.raises(SystemExit, match="no store directory"):
        main(["cache", "stats", str(tmp_path / "nope")])


def test_explore_cache_bounds(tmp_path, capsys):
    """--cache-max-entries and --cache-max-bytes bound the on-disk
    store, never the result."""
    store = tmp_path / "bounded"
    assert main(["explore", "--kernel", "fir5", "--pps", "1,2,3",
                 "--buses", "4,10", "--cache", str(store),
                 "--cache-max-entries", "2", "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["records"]) == 6
    assert main(["cache", "stats", str(store), "--json", "-"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 2
    # Counters are per-process: a fresh inspection handle starts
    # its own ledger.
    assert stats["evictions"] == 0

    store = tmp_path / "byte-bounded"
    assert main(["explore", "--kernel", "fir5", "--pps", "1,2,3",
                 "--buses", "4,10", "--cache", str(store),
                 "--cache-max-bytes", "1000", "--json", "-"]) == 0
    assert len(json.loads(capsys.readouterr().out)["records"]) == 6
    assert main(["cache", "stats", str(store), "--json", "-"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert 0 < stats["entries"] < 6
    assert stats["bytes"] <= 1000


def test_explore_cache_bounds_require_cache():
    with pytest.raises(SystemExit, match="--cache"):
        main(["explore", "--kernel", "fir5", "--pps", "1,2",
              "--cache-max-entries", "2"])


def test_help_lists_exactly_the_subcommands(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "{map,explore,serve,submit,jobs,cache,trace}" in out


def test_trace_commands_over_a_local_sweep(tmp_path, capsys):
    """`trace record --trace-log` over a local sweep (no daemon),
    then `export --log --out`, `report --log [--json]` and
    `critical-path --log [--trace ID] [--json]` over its log."""
    log = tmp_path / "sweep.ndjson"
    assert main(["trace", "record", "--kernel", "fir5",
                 "--pps", "1,2", "--workers", "1",
                 "--trace-log", str(log)]) == 0
    out = capsys.readouterr().out
    assert f"trace: {len(log.read_text().splitlines())} entries " \
        f"-> {log}" in out
    entries = [json.loads(line) for line in log.read_text().splitlines()]
    sweeps = [entry for entry in entries
              if entry.get("kind") == "span"
              and entry["name"] == "dse.sweep"]
    assert len(sweeps) == 1
    trace_id = sweeps[0]["trace"]

    chrome = tmp_path / "chrome.json"
    assert main(["trace", "export", "--log", str(log),
                 "--out", str(chrome)]) == 0
    events = json.loads(chrome.read_text())["traceEvents"]
    assert "dse.sweep" in {event.get("name") for event in events}

    assert main(["trace", "report", "--log", str(log)]) == 0
    assert "dse.sweep" in capsys.readouterr().out
    assert main(["trace", "report", "--log", str(log),
                 "--json", "-"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["dse.sweep"]["count"] == 1

    assert main(["trace", "critical-path", "--log", str(log)]) == 0
    assert "point evaluation" in capsys.readouterr().out
    assert main(["trace", "critical-path", "--log", str(log),
                 "--trace", trace_id, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trace"] == trace_id and report["total"] > 0
    assert main(["trace", "critical-path", "--log", str(log),
                 "--trace", "f" * 32]) == 1

"""Tests of the benchmark itself: its configs, its checks and its tracer.

Run from the repository root with ``python -m pytest bench/tests -q``.
"""

import contextlib
import io
import json

import pytest

import spans
import workloads
from qlesim import cli
from qlesim.config import load_config
from qlesim.runner import run_scenario


def pool_config(workload, seed, tmp_path, shrink=True):
    """First pool config of a workload, by default shrunk so a test op is
    quick (a shrunk threetone no longer resolves its tones)."""
    doc = workloads.make_configs(workload, seed)[0]
    if shrink and workload == "threetone":
        doc["options"].update(n_points=256, n_readouts=50)
    elif shrink and workload == "readout_train":
        doc["options"]["n_readouts"] = 500
    return doc, workloads.write_configs([doc], tmp_path / "configs")[0]


def cli_op(path, out_dir, flags, tracer=None):
    argv = ["run", str(path), "--out-dir", str(out_dir), *flags]
    installed = tracer.installed() if tracer else contextlib.nullcontext()
    with installed, contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def manifest_hashes(out_dir, scenario):
    manifest = json.loads((out_dir / f"{scenario}_manifest.json").read_text())
    return {entry["name"]: entry["sha256"] for entry in manifest["files"]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_op_writes_the_same_files_as_a_plain_run(workload, tmp_path):
    doc, path = pool_config(workload, 5, tmp_path, shrink=False)
    flags = workloads.WORKLOADS[workload].flags
    tracer = spans.Tracer()
    assert cli_op(path, tmp_path / "traced", flags, tracer) == 0
    assert tracer.spans

    config = load_config(path)
    threads = 1
    if "--format" in flags:
        config.file_format = flags[flags.index("--format") + 1]
    if "--threads" in flags:
        threads = int(flags[flags.index("--threads") + 1])
    run_scenario(config, out_dir=tmp_path / "plain", threads=threads)

    traced = manifest_hashes(tmp_path / "traced", doc["scenario"])
    assert traced == manifest_hashes(tmp_path / "plain", doc["scenario"])
    for name, digest in traced.items():
        assert workloads._sha256(tmp_path / "traced" / name) == digest
    assert workloads.check_op(workload, doc, tmp_path / "traced", 0) == []


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_config_generator_is_deterministic_in_its_seed(workload, tmp_path):
    first = workloads.make_configs(workload, 7)
    assert first == workloads.make_configs(workload, 7)
    assert first != workloads.make_configs(workload, 8)
    assert len({json.dumps(doc, sort_keys=True) for doc in first}) == workloads.POOL_SIZE
    a = workloads.write_configs(first, tmp_path / "a")
    b = workloads.write_configs(workloads.make_configs(workload, 7), tmp_path / "b")
    assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]


def test_wrappers_are_removed_after_the_traced_run(tmp_path):
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in spans.wrap_targets()]
    assert len(before) > 20
    _, path = pool_config("t1_sweep", 1, tmp_path)
    tracer = spans.Tracer()
    with tracer.installed():
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in before)
    assert all(vars(owner)[attr] is fn for owner, attr, fn in before)

    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("op escaped")
    assert all(vars(owner)[attr] is fn for owner, attr, fn in before)

    assert cli_op(path, tmp_path / "out", ("--threads", "2"), tracer) == 0
    assert all(vars(owner)[attr] is fn for owner, attr, fn in before)


def test_wrap_targets_cover_the_named_layers():
    layers = {layer for _, _, layer in spans.wrap_targets()}
    assert layers == set(spans.LAYERS)
    names = {attr for _, attr, _ in spans.wrap_targets()}
    assert {"load_config", "run_scenario", "shifted", "accumulated_phase",
            "apply_swap", "fit_stretched_exponential", "emit_csv",
            "optimal_snr"} <= names
    assert "rng_stream" not in names and "stretched_exp" not in names


def test_traced_counts_follow_the_workload(tmp_path):
    counts = {}
    for workload in sorted(workloads.WORKLOADS):
        _, path = pool_config(workload, 2, tmp_path / workload)
        tracer = spans.Tracer()
        tracer.op = 1
        with tracer.span("cli.main"):
            assert cli_op(path, tmp_path / workload / "out",
                          workloads.WORKLOADS[workload].flags, tracer) == 0
        counts[workload] = spans.summarize(tracer.spans, tracer.counts, {1: 1.0})
    readout = counts["readout_train"]
    assert readout["state.calls"] == readout["sequences.calls"] == 0
    assert readout["fitting.calls"] == 0 and readout["analysis.calls"] == 1000
    assert counts["threetone"]["fitting.calls"] == 0
    assert counts["threetone"]["sequences.calls"] == 2 * 256 + 3
    sweep = counts["t1_sweep"]
    assert sweep["fitting.calls"] == 49 and sweep["fitting.converged_frac"] == 1.0
    for metrics in counts.values():
        assert metrics["runner.self_s"] > 0 and metrics["output.bytes"] > 0


def test_self_time_subtracts_the_union_of_child_intervals():
    records = [
        (1, 0, 1, "cli.main", 0.0, 10.0),
        (2, 1, 1, "runner.run_scenario", 1.0, 9.0),
        (3, 2, 1, "state.apply_swap", 2.0, 5.0),     # two worker threads
        (4, 2, 1, "state.apply_swap", 4.0, 6.0),     # overlap by 1 s
        (5, 2, 1, "output.emit_csv", 7.0, 8.0),
    ]
    metrics = spans.summarize(records, [(1, "output.bytes", 2_000_000)], {1: 1.0})
    assert metrics["cli.self_s"] == pytest.approx(2.0)
    assert metrics["runner.self_s"] == pytest.approx(8.0 - 5.0)
    assert metrics["state.busy_s"] == pytest.approx(5.0)
    assert metrics["state.calls"] == 2
    assert metrics["output.mb_per_s"] == pytest.approx(2.0)
    halved = spans.summarize(records, [], {1: 0.5})
    assert halved["runner.self_s"] == pytest.approx(1.5)
    assert halved["state.calls"] == 2


def test_checks_catch_a_changed_file_and_a_wrong_answer(tmp_path):
    doc, path = pool_config("readout_train", 3, tmp_path)
    out = tmp_path / "out"
    assert cli_op(path, out, ()) == 0
    assert workloads.check_op("readout_train", doc, out, 0) == []
    assert workloads.check_op("readout_train", doc, out, 1) == ["exit code 1"]

    wrong = json.loads(json.dumps(doc))
    wrong["sensor"]["bias_field"] *= 1.001
    assert workloads.check_op("readout_train", wrong, out, 0)

    table = out / "qle_snr_vs_n.csv"
    table.write_text(table.read_text().replace("\n1,", "\n1.0,", 1))
    assert any("sha256" in p for p in workloads.check_op("readout_train", doc, out, 0))

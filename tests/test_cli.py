import json

import numpy as np
import pytest

from coinfer.cli import main
from coinfer.partition import load_partition_map
from coinfer.router import collaborative_infer
from coinfer.trace import load_trace_set
from coinfer.wire import NearEdgeServer


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Partition file plus a synthesized trace directory, built via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    partitions = root / "partitions.json"
    partitions.write_text(json.dumps({
        "num_classes": 8,
        "partitions": [[0, 4], [1, 5], [2, 6], [3, 7]],
    }))
    rc = main([
        "synth", "--partitions", str(partitions), "--k", "2",
        "--top1", "0.55", "--top2", "0.8", "--samples", "300",
        "--seed", "21", "--near-top1", "0.6", "--out", str(root / "traces"),
    ])
    assert rc == 0
    return root


def test_validate_builtin_partitions(capsys):
    assert main(["validate", "--partitions", "builtin:cifar100-s4"]) == 0
    out = capsys.readouterr().out
    assert "OK partitions: 4 partitions over 100 classes" in out


def test_validate_rejects_overlapping_partitions(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"num_classes": 4, "partitions": [[0, 1], [1, 2, 3]]}))
    assert main(["validate", "--partitions", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_needs_at_least_one_target(capsys):
    assert main(["validate"]) == 2
    assert "nothing to validate" in capsys.readouterr().err


def test_validate_manifest_with_coverage(workspace, capsys):
    rc = main(["validate", "--partitions", str(workspace / "partitions.json"),
               "--manifest", str(workspace / "traces" / "manifest.json"),
               "--k", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "coverage checked" in out


def test_simulate_matches_library_and_dumps_predictions(workspace, tmp_path, capsys):
    dump = tmp_path / "preds.bin"
    rc = main(["simulate",
               "--manifest", str(workspace / "traces" / "manifest.json"),
               "--partitions", str(workspace / "partitions.json"),
               "--k", "2", "--tau", "0.8",
               "--dump-predictions", str(dump)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "samples: 300" in out
    assert "accuracy:" in out

    pm = load_partition_map(workspace / "partitions.json")
    ts = load_trace_set(workspace / "traces" / "manifest.json", pm, 2)
    want = collaborative_infer(ts, pm, 0.8, 2)
    got = np.frombuffer(dump.read_bytes(), dtype="<u4")
    assert np.array_equal(got, want.predictions.astype("<u4"))


def test_simulate_rejects_bad_threshold(workspace, capsys):
    rc = main(["simulate",
               "--manifest", str(workspace / "traces" / "manifest.json"),
               "--partitions", str(workspace / "partitions.json"),
               "--tau", "1.5"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_missing_manifest_fails_cleanly(workspace, capsys):
    rc = main(["simulate", "--manifest", str(workspace / "nope.json"),
               "--partitions", str(workspace / "partitions.json"),
               "--tau", "0.5"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_requires_flags_or_config(workspace, capsys):
    rc = main(["sweep", "--output", str(workspace / "r")])
    assert rc == 2
    assert "--taus" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["validate", "--sweep-config"],
    ["sweep", "--output", "unused", "--config"],
])
@pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "malformed"])
def test_unreadable_sweep_config_exits_2_naming_the_file(tmp_path, capsys, argv, content):
    path = tmp_path / "sweep.json"
    if content is not None:
        path.write_text(content)
    assert main([*argv, str(path)]) == 2
    assert str(path) in capsys.readouterr().err


def _sweep_doc(workspace, manifest) -> dict:
    return {
        "thresholds": [0.9], "k": 2, "partitions": str(workspace / "partitions.json"),
        "manifest": str(manifest), "profiles": "builtin",
        "edge_profile": {"device": "rpi5", "model": "deit-3h"},
        "near_profile": {"device": "agx-orin", "model": "deit-6h"},
    }


def _with(doc: dict, key: str, value):
    return value if key == "" else {**doc, key: value}


# (document, key to replace or "" for the whole document, value)
WRONG_SHAPES = {
    "config-number": ("config", "", 5),
    "config-array": ("config", "", ["thresholds"]),
    "config-thresholds-number": ("config", "thresholds", 5),
    "config-comm-number": ("config", "comm", 5),
    "config-expert_profiles-array": ("config", "expert_profiles", [1, 2]),
    "manifest-number": ("manifest", "", 5),
    "manifest-edge-number": ("manifest", "edge", 5),
    "manifest-near_generalist-string": ("manifest", "near_generalist", "near.bin"),
    "manifest-experts-number": ("manifest", "experts", 5),
    "manifest-experts-entry-number": ("manifest", "experts", [5]),
    "manifest-experts-domain-number": (
        "manifest", "experts", [{"domain": 1, "name": "x", "logits_file": "x.bin"}]
    ),
    "manifest-labels_file-number": ("manifest", "labels_file", 5),
}


@pytest.mark.parametrize("command", ["validate", "sweep"])
@pytest.mark.parametrize(
    "document,key,value", list(WRONG_SHAPES.values()), ids=list(WRONG_SHAPES)
)
def test_json_of_the_wrong_shape_exits_2_naming_the_file(
    workspace, tmp_path, capsys, command, document, key, value
):
    good_manifest = workspace / "traces" / "manifest.json"
    # Beside the good manifest, so its relative data paths still resolve.
    manifest = workspace / "traces" / f"{tmp_path.name}.json"
    config = tmp_path / "sweep.json"
    if document == "manifest":
        manifest.write_text(json.dumps(_with(json.loads(good_manifest.read_text()), key, value)))
        config.write_text(json.dumps(_sweep_doc(workspace, manifest)))
        bad = manifest
    else:
        config.write_text(json.dumps(_with(_sweep_doc(workspace, good_manifest), key, value)))
        bad = config
    if command == "sweep":
        argv = ["sweep", "--config", str(config), "--output", str(tmp_path / "r")]
    else:
        argv = ["validate", f"--{'sweep-config' if document == 'config' else 'manifest'}", str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err
    assert "must be a JSON" in err


def _profiles_doc(points) -> dict:
    return {"profiles": [{"device": "rpi5", "model": "deit-3h", "points": points}]}


# (cost profile document, what the error must name besides the file)
WRONG_PROFILES = {
    "profiles-number": ({"profiles": 5}, "profiles must be a JSON array"),
    "profiles-entry-number": ({"profiles": [5]}, "profiles[0] must be a JSON object"),
    "points-number": (_profiles_doc(5), "profiles[0].points must be a JSON array"),
    "points-entry-number": (_profiles_doc([5]), "profiles[0].points[0] must be a JSON object"),
    "latency-string": (
        _profiles_doc([{"batch": 1, "latency_ms": "x", "energy_mj": 1.0}]),
        "profiles[0].points[0]: latency_ms must be a number",
    ),
}


@pytest.mark.parametrize("command", ["validate", "sweep"])
@pytest.mark.parametrize("doc,named", list(WRONG_PROFILES.values()), ids=list(WRONG_PROFILES))
def test_cost_profiles_of_the_wrong_shape_exit_2_naming_the_file(
    workspace, tmp_path, capsys, command, doc, named
):
    profiles = tmp_path / "profiles.json"
    profiles.write_text(json.dumps(doc))
    if command == "sweep":
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            **_sweep_doc(workspace, workspace / "traces" / "manifest.json"),
            "profiles": str(profiles),
        }))
        argv = ["sweep", "--config", str(config), "--output", str(tmp_path / "r")]
    else:
        argv = ["validate", "--profiles", str(profiles)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(profiles) in err
    assert named in err


def test_sweep_flag_form_writes_reports(workspace, capsys):
    out_base = workspace / "flagsweep"
    rc = main(["sweep",
               "--taus", "0.9", "0.5",
               "--k", "2",
               "--partitions", str(workspace / "partitions.json"),
               "--manifest", str(workspace / "traces" / "manifest.json"),
               "--profiles", "builtin",
               "--edge-device", "rpi5", "--edge-model", "deit-3h",
               "--near-device", "agx-orin", "--near-model", "deit-6h",
               "--output", str(out_base)])
    assert rc == 0
    assert "report written" in capsys.readouterr().out
    assert out_base.with_suffix(".csv").exists()
    doc = json.loads(out_base.with_suffix(".json").read_text())
    assert [row["tau"] for row in doc["rows"]] == [0.9, 0.5]


def test_client_subcommand_against_live_server(workspace, capsys):
    pm = load_partition_map(workspace / "partitions.json")
    ts = load_trace_set(workspace / "traces" / "manifest.json", pm, 2)
    with NearEdgeServer(("127.0.0.1", 0), ts, pm, 2) as server:
        host, port = server.address
        rc = main(["client", "--server", f"{host}:{port}",
                   "--manifest", str(workspace / "traces" / "manifest.json"),
                   "--partitions", str(workspace / "partitions.json"),
                   "--k", "2", "--tau", "0.9"])
    assert rc == 0
    out = capsys.readouterr().out
    want = collaborative_infer(ts, pm, 0.9, 2)
    assert f"accuracy: {want.accuracy:.6g}" in out


def test_client_rejects_malformed_address(workspace, capsys):
    rc = main(["client", "--server", "nohostport",
               "--manifest", str(workspace / "traces" / "manifest.json"),
               "--partitions", str(workspace / "partitions.json"),
               "--tau", "0.9"])
    assert rc == 2
    assert "host:port" in capsys.readouterr().err


def test_client_unreachable_server_exits_3(workspace, capsys):
    rc = main(["client", "--server", "127.0.0.1:1",
               "--manifest", str(workspace / "traces" / "manifest.json"),
               "--partitions", str(workspace / "partitions.json"),
               "--tau", "1.0", "--timeout", "0.5", "--retries", "0"])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_synth_needs_a_target(workspace, capsys):
    rc = main(["synth", "--partitions", str(workspace / "partitions.json"),
               "--samples", "10", "--out", str(workspace / "t2")])
    assert rc == 2
    assert "--model or --top1" in capsys.readouterr().err


def test_synth_class_crosscheck(workspace, capsys):
    rc = main(["synth", "--partitions", str(workspace / "partitions.json"),
               "--top1", "0.5", "--classes", "100",
               "--samples", "10", "--out", str(workspace / "t3")])
    assert rc == 2
    assert "covers 8 classes" in capsys.readouterr().err


def test_sched_eval_prints_midpoint(capsys):
    rc = main(["sched-eval", "--epoch", "100"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scaling factor at epoch 100/200: 7.5" in out
    assert "sample weight (out of domain): 1" in out


def test_sched_eval_single_sample_loss(capsys):
    rc = main(["sched-eval", "--epoch", "0",
               "--logits", "0,0", "--true-label", "0",
               "--teacher-label", "1", "--in-domain"])
    assert rc == 0
    out = capsys.readouterr().out
    # symmetric two-way split of ln(2) targets at weight 1
    assert "single-sample weighted loss: 0.693147" in out


def test_unknown_builtin_partition_name(capsys):
    rc = main(["validate", "--partitions", "builtin:imagenet-s4"])
    assert rc == 2
    assert "imagenet-s4" in capsys.readouterr().err

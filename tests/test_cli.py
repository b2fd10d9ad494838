import copy
import functools
import json
import operator
import os
import re
import resource
import shutil
import signal
import socket
import subprocess
import sys
import threading

import numpy as np
import pytest

from coinfer.cli import main
from coinfer.cost import load_cost_profiles
from coinfer.errors import ConfigError
from coinfer.harness import SweepConfig
from coinfer.partition import load_partition_map
from coinfer.router import collaborative_infer
from coinfer.trace import load_trace_set
from coinfer.wire import NearEdgeServer, OffloadRequest, encode, read_message, run_edge_client


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


def test_validate_builtin_profiles(capsys):
    assert main(["validate", "--profiles", "builtin"]) == 0
    assert "OK profiles: 16 device/model pairs" in capsys.readouterr().out


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


# (document, key to replace or "" for the whole document, value, what the
# error must say besides the file)
WRONG_SHAPES = {
    "config-number": ("config", "", 5, "document must be a JSON object"),
    "config-array": ("config", "", ["thresholds"], "document must be a JSON object"),
    "config-thresholds-number": ("config", "thresholds", 5, "thresholds must be a JSON array"),
    "config-comm-number": ("config", "comm", 5, "comm must be a JSON object"),
    "config-expert_profiles-array": (
        "config", "expert_profiles", [1, 2], "expert_profiles must be a JSON object"
    ),
    "config-thresholds-boolean": (
        "config", "thresholds", [0.9, True], "thresholds[1] must be a JSON number"
    ),
    "config-k-string": ("config", "k", "2", "k must be a JSON integer"),
    "config-batch_size-string": (
        "config", "batch_size", "10", "batch_size must be a JSON integer"
    ),
    "config-batch_size-fraction": (
        "config", "batch_size", 10.5, "batch_size must be a JSON integer"
    ),
    "config-seed-string": ("config", "seed", "x", "seed must be a JSON integer"),
    "config-seed-boolean": ("config", "seed", True, "seed must be a JSON integer"),
    "config-shuffle-string": ("config", "shuffle", "no", "shuffle must be a JSON boolean"),
    "config-mask_to_domain-string": (
        "config", "mask_to_domain", "no", "mask_to_domain must be a JSON boolean"
    ),
    "config-partitions-number": ("config", "partitions", 5, "partitions must be a JSON string"),
    "config-aggregation-number": ("config", "aggregation", 1, "aggregation must be a JSON string"),
    "manifest-number": ("manifest", "", 5, "document must be a JSON object"),
    "manifest-edge-number": ("manifest", "edge", 5, "edge must be a JSON object"),
    "manifest-near_generalist-string": (
        "manifest", "near_generalist", "near.bin", "near_generalist must be a JSON object"
    ),
    "manifest-experts-number": ("manifest", "experts", 5, "experts must be a JSON array"),
    "manifest-experts-entry-number": (
        "manifest", "experts", [5], "experts[0] must be a JSON object"
    ),
    "manifest-experts-domain-number": (
        "manifest", "experts", [{"domain": 1, "name": "x", "logits_file": "x.bin"}],
        "experts[0].domain must be a JSON array",
    ),
    "manifest-labels_file-number": (
        "manifest", "labels_file", 5, "labels_file must be a JSON string"
    ),
}


@pytest.mark.parametrize("command", ["validate", "sweep"])
@pytest.mark.parametrize(
    "document,key,value,named", list(WRONG_SHAPES.values()), ids=list(WRONG_SHAPES)
)
def test_json_of_the_wrong_shape_exits_2_naming_the_file(
    workspace, tmp_path, capsys, command, document, key, value, named
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
    assert named in err


# (sweep config key, value, what the error must say besides the file)
OUT_OF_RANGE = {
    "aggregation-bogus": ("aggregation", "bogus", "aggregation must be one of"),
    "k-zero": ("k", 0, "k must be >= 1"),
    "seed-negative": ("seed", -1, "seed must be >= 0"),
}


@pytest.mark.parametrize("command", ["validate", "sweep"])
@pytest.mark.parametrize("key,value,named", list(OUT_OF_RANGE.values()), ids=list(OUT_OF_RANGE))
def test_sweep_config_value_out_of_range_exits_2_naming_the_file(
    workspace, tmp_path, capsys, command, key, value, named
):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(
        {**_sweep_doc(workspace, workspace / "traces" / "manifest.json"), key: value}
    ))
    if command == "sweep":
        argv = ["sweep", "--config", str(config), "--output", str(tmp_path / "r")]
    else:
        argv = ["validate", "--sweep-config", str(config)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(config) in err
    assert named in err


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
        "profiles[0].points[0].latency_ms must be a JSON number",
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


def _point(**fields) -> dict:
    return {"batch": 1, "latency_ms": 1.0, "energy_mj": 0.0, **fields}


# (document, key path to replace, value, what the error must name besides the file)
BAD_DOCUMENTS = {
    "config-comm-rtt_ms-boolean": ("config", ("comm",), {"rtt_ms": True},
                                   "comm.rtt_ms must be a JSON number"),
    "config-expert_profiles-bad-label": (
        "config", ("expert_profiles",), {"bogus": {"device": "agx-orin", "model": "deit-6h"}},
        "expert_profiles.bogus: bad domain label",
    ),
    "config-edge_profile-device-number": ("config", ("edge_profile", "device"), 5,
                                          "edge_profile.device must be a JSON string"),
    "profiles-batch-boolean": ("profiles", ("profiles", 0, "points", 0), _point(batch=True),
                               "profiles[0].points[0].batch must be a JSON integer"),
    "profiles-latency-boolean": ("profiles", ("profiles", 0, "points", 0),
                                 _point(latency_ms=True),
                                 "profiles[0].points[0].latency_ms must be a JSON number"),
    "profiles-latency-string": ("profiles", ("profiles", 0, "points", 0),
                                _point(latency_ms="1.5"),
                                "profiles[0].points[0].latency_ms must be a JSON number"),
    "profiles-point-unknown-key": ("profiles", ("profiles", 0, "points", 0),
                                   _point(latncy_ms=1.0),
                                   "profiles[0].points[0] has unknown keys: ['latncy_ms']"),
    "manifest-expert-name-number": ("manifest", ("experts", 0, "name"), 5,
                                    "experts[0].name must be a JSON string"),
    "manifest-expert-domain-strings": ("manifest", ("experts", 0, "domain"), ["1"],
                                       "experts[0].domain[0] must be a JSON integer"),
    "manifest-labels_file-number": ("manifest", ("labels_file",), 5,
                                    "labels_file must be a JSON string"),
    "manifest-unknown-key": ("manifest", ("near_generalsit",), {"name": "n", "logits_file": "n"},
                             "document has unknown keys: ['near_generalsit']"),
    "partitions-num_classes-string": ("partitions", ("num_classes",), "8",
                                      "num_classes must be a JSON integer"),
}

# Every subcommand that reads each document; "library" is its loader function.
READERS = {
    "config": ("validate", "sweep", "library"),
    "profiles": ("validate", "sweep", "library"),
    "manifest": ("validate", "simulate", "sweep", "serve", "client", "library"),
    "partitions": ("validate", "simulate", "sweep", "serve", "client", "synth", "library"),
}
LOADERS = {
    "config": SweepConfig.from_file,
    "profiles": load_cost_profiles,
    "manifest": load_trace_set,
    "partitions": load_partition_map,
}
VALIDATE_FLAGS = {
    "config": "--sweep-config", "profiles": "--profiles",
    "manifest": "--manifest", "partitions": "--partitions",
}


def _replaced(doc, keys: tuple, value):
    doc = copy.deepcopy(doc)
    *parents, last = keys
    functools.reduce(operator.getitem, parents, doc)[last] = value
    return doc


def _not_reached(*args, **kwargs):
    raise AssertionError("a document that should be refused was loaded")


@pytest.mark.parametrize("defect,command", [
    (defect, command)
    for defect, (document, *_) in BAD_DOCUMENTS.items()
    for command in READERS[document]
])
def test_every_reader_refuses_a_bad_document_naming_file_and_key(
    workspace, tmp_path, capsys, monkeypatch, defect, command
):
    document, keys, value, named = BAD_DOCUMENTS[defect]
    good = {
        "partitions": workspace / "partitions.json",
        "manifest": workspace / "traces" / "manifest.json",
    }
    docs = {
        "partitions": json.loads(good["partitions"].read_text()),
        "manifest": json.loads(good["manifest"].read_text()),
        "profiles": {"profiles": [
            {"device": "rpi5", "model": "deit-3h", "points": [_point()]},
            {"device": "agx-orin", "model": "deit-6h", "points": [_point()]},
        ]},
    }
    files = {
        **{name: str(path) for name, path in good.items()},
        "profiles": str(tmp_path / "profiles.json"),
        "config": str(tmp_path / "sweep.json"),
    }
    # Beside the good manifest, so its relative data paths still resolve.
    files[document] = str(
        workspace / "traces" / f"{tmp_path.name}.json"
        if document == "manifest" else tmp_path / f"bad-{document}.json"
    )
    docs["config"] = {
        **_sweep_doc(workspace, files["manifest"]),
        "partitions": files["partitions"], "profiles": files["profiles"],
    }
    docs[document] = _replaced(docs[document], keys, value)
    for name in ("profiles", "config", document):
        with open(files[name], "w") as fh:
            json.dump(docs[name], fh)
    bad = files[document]

    if command == "library":
        with pytest.raises(ConfigError) as exc:
            LOADERS[document](bad)
        err = str(exc.value)
    else:
        monkeypatch.setattr("coinfer.cli.NearEdgeServer", _not_reached)
        monkeypatch.setattr("coinfer.cli.run_edge_client", _not_reached)
        inputs = ["--manifest", files["manifest"], "--partitions", files["partitions"]]
        argv = {
            "validate": ["validate", VALIDATE_FLAGS[document], bad],
            "simulate": ["simulate", *inputs, "--tau", "0.9"],
            "sweep": ["sweep", "--config", files["config"], "--output", str(tmp_path / "r")],
            "serve": ["serve", "--listen", "127.0.0.1:0", *inputs],
            "client": ["client", "--server", "127.0.0.1:1", *inputs, "--tau", "0.9"],
            "synth": ["synth", "--partitions", bad, "--top1", "0.5", "--samples", "10",
                      "--out", str(tmp_path / "t")],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
    assert bad in err
    assert named in err


def _nan_in_last_row(path):
    """A NaN at column 5 of the last of the workspace's 300 rows of 8 logits."""
    raw = bytearray(path.read_bytes())
    raw[-12:-8] = np.array([np.nan], dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))


def _fifo(path):
    path.unlink()
    os.mkfifo(path)


_NAN_AT = "non-finite logit at row 299, column 5 (element 2397, byte offset 9588)"
# defect -> (trace file, routing k, how the file is broken, what the error must say)
LOGIT_DEFECTS = {
    "expert-one-byte-short": ("expert_1_2.bin", 2, lambda p: p.write_bytes(p.read_bytes()[:-1]),
                              "expected exactly 9600 bytes (2400 x 4), found 9599"),
    "expert-one-byte-long": ("expert_1_2.bin", 2, lambda p: p.write_bytes(p.read_bytes() + b"x"),
                             "expected exactly 9600 bytes (2400 x 4), found 9601"),
    "expert-nan-in-last-block": ("expert_1_2.bin", 2, _nan_in_last_row, _NAN_AT),
    # At k=1 no sample routes to the 1+2 expert, yet its file is read.
    "unrouted-expert-nan-in-last-block": ("expert_1_2.bin", 1, _nan_in_last_row, _NAN_AT),
    "expert-fifo": ("expert_1_2.bin", 2, _fifo, "is not a regular file"),
    "near-generalist-nan": ("near_generalist.bin", 2, _nan_in_last_row, _NAN_AT),
}


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("defect", list(LOGIT_DEFECTS))
def test_every_reader_of_a_logits_file_refuses_it_alike(
    workspace, tmp_path, capsys, monkeypatch, defect
):
    """validate, simulate, sweep and serve exit 2 with one message; client, which reads
    only the labels and the edge trace, gives simulate's predictions. Logits are read in
    blocks of 64 rows, so row 299 lies in a short last block. A FIFO is tried in children
    with 1 GiB of address space and a timeout, so that a blocking open fails the test."""
    name, k, breaks, named = LOGIT_DEFECTS[defect]
    traces = tmp_path / "traces"
    shutil.copytree(workspace / "traces", traces)
    bad = traces / name
    breaks(bad)
    monkeypatch.setattr("coinfer.trace._BLOCK_ROWS", 64)
    monkeypatch.setattr(NearEdgeServer, "serve_forever", _not_reached)
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({**_sweep_doc(workspace, traces / "manifest.json"), "k": k}))
    inputs = ["--manifest", str(traces / "manifest.json"),
              "--partitions", str(workspace / "partitions.json"), "--k", str(k)]

    def run(argv):
        if defect != "expert-fifo":
            rc = main(argv)
            return rc, *capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "coinfer.cli", *argv], capture_output=True,
                              text=True, timeout=30, preexec_fn=_limit_memory)
        return proc.returncode, proc.stdout, proc.stderr

    errors = []
    for argv in (["validate", *inputs], ["simulate", *inputs, "--tau", "0.9"],
                 ["sweep", "--config", str(config), "--output", str(tmp_path / "r")],
                 ["serve", "--listen", "127.0.0.1:0", *inputs]):
        rc, out, err = run(argv)
        assert (rc, "listening" in out) == (2, False), (argv[0], out, err)
        errors.append(err)
    assert errors == [errors[0]] * 4
    assert str(bad) in errors[0] and named in errors[0]

    pm = load_partition_map(workspace / "partitions.json")
    good = load_trace_set(workspace / "traces" / "manifest.json", pm, k)
    dump = tmp_path / "client.bin"
    with NearEdgeServer(("127.0.0.1", 0), good, pm, k) as server:
        host, port = server.address
        rc, out, err = run(["client", "--server", f"{host}:{port}", *inputs, "--tau", "0.9",
                            "--dump-predictions", str(dump)])
    assert rc == 0, err
    want = collaborative_infer(good, pm, 0.9, k).predictions
    assert np.array_equal(np.frombuffer(dump.read_bytes(), dtype="<u4"), want)


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


def _default_sigint():
    # A shell starts background jobs with SIGINT ignored, and a child keeps an
    # ignored SIGINT ignored; serve must get KeyboardInterrupt from it.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def test_serve_subcommand_answers_then_stops_on_sigint(workspace):
    manifest = workspace / "traces" / "manifest.json"
    partitions = workspace / "partitions.json"
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "coinfer.cli", "serve", "--listen", "127.0.0.1:0",
         "--manifest", str(manifest), "--partitions", str(partitions), "--k", "2"],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        preexec_fn=_default_sigint,
    )
    # Every read below ends at the latest when the child is killed.
    killer = threading.Timer(10.0, proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        match = re.search(rb"listening on (\S+):(\d+) ", line)
        assert match, line
        addr = (match.group(1).decode(), int(match.group(2)))

        pm = load_partition_map(partitions)
        ts = load_trace_set(manifest, pm, 2)
        got = run_edge_client(addr, ts.edge, pm, 0.9, 2, timeout=5.0, retries=0)
        want = collaborative_infer(ts, pm, 0.9, 2)
        assert np.array_equal(got.predictions, want.predictions)

        with socket.create_connection(addr, timeout=5.0) as idle, idle.makefile("rb") as rfile:
            # One answered request shows the server has accepted the connection.
            idle.sendall(encode(OffloadRequest(request_id=0, topk=(0, 1), sample_index=0)))
            assert read_message(rfile) is not None
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=10.0)
            idle.settimeout(2.0)
            assert idle.recv(1) == b""  # EOF, not a timeout
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)
    assert proc.returncode == 0, err
    assert b"shutting down" in out


def test_client_rejects_malformed_address(workspace, capsys):
    rc = main(["client", "--server", "nohostport",
               "--manifest", str(workspace / "traces" / "manifest.json"),
               "--partitions", str(workspace / "partitions.json"),
               "--tau", "0.9"])
    assert rc == 2
    assert "host:port" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["serve", "--listen", "127.0.0.1:70000"],
    ["client", "--server", "127.0.0.1:70000", "--tau", "0.9"],
], ids=["serve", "client"])
def test_port_out_of_range_exits_2(workspace, capsys, argv):
    rc = main([*argv, "--manifest", str(workspace / "traces" / "manifest.json"),
               "--partitions", str(workspace / "partitions.json")])
    assert rc == 2
    assert "127.0.0.1:70000" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["serve", "--listen", "127.0.0.1:70000"],
    ["client", "--server", "127.0.0.1:70000", "--tau", "0.9"],
], ids=["serve", "client"])
def test_bad_port_is_refused_before_the_traces_load(workspace, capsys, argv):
    rc = main([*argv, "--manifest", "/nonexistent/manifest.json",
               "--partitions", str(workspace / "partitions.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "127.0.0.1:70000" in err
    assert "manifest" not in err


def test_client_unreachable_server_exits_3(workspace, capsys):
    rc = main(["client", "--server", "127.0.0.1:1",
               "--manifest", str(workspace / "traces" / "manifest.json"),
               "--partitions", str(workspace / "partitions.json"),
               "--tau", "1.0", "--timeout", "0.5", "--retries", "0"])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("groups", [
    [[0, 2], [1, 3]],
    [[c, c + 8] for c in range(8)],
], ids=["map-smaller-than-traces", "map-larger-than-traces"])
def test_client_refuses_a_partition_map_that_does_not_fit_the_traces(
    workspace, tmp_path, capsys, groups
):
    partitions = tmp_path / "partitions.json"
    partitions.write_text(json.dumps({
        "num_classes": sum(map(len, groups)), "partitions": groups,
    }))
    common = ["--manifest", str(workspace / "traces" / "manifest.json"),
              "--partitions", str(partitions), "--k", "2", "--tau", "0.9"]
    assert main(["simulate", *common]) == 2
    want = capsys.readouterr().err
    assert "partition map covers" in want
    # Nothing listens on port 1: the refusal must come before the connect.
    assert main(["client", "--server", "127.0.0.1:1", *common]) == 2
    assert capsys.readouterr().err == want


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

"""CLI behavior: reports, exit codes, determinism, file output."""

import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from qcc_lab import cli, oracle, protocols, reduction
from qcc_lab.cli import main
from qcc_lab.dj import promise_pairs, promise_scenarios
from qcc_lab.errors import InvariantError, PartitionError
from qcc_lab.harness import (ALICE, Action, Protocol, RandomnessSpace,
                             check_exact_blqms, pair_label)
from qcc_lab.oracle import SignVector
from qcc_lab.protocols import (ConstantProtocol, SendAllReplyProtocol,
                               TonerBaconProtocol)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_predict_maximally_entangled(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "state": "maximally_entangled", "n": 4,
        "alice": {"vector": "++--"}, "bob": {"vector": "++--"},
    })
    code, out, _ = run_cli(capsys, "predict", "--scenario", path)
    assert code == 0
    assert "0.25" in out
    report = json.loads(out)
    assert report["exact"] is True
    assert report["probs"]["p_pp"] == "1/4"
    assert report["probs"]["p_mm"] == "3/4"
    assert report["probs_float"]["p_pp"] == pytest.approx(0.25)
    assert report["expectations_float"]["e_ab"] == pytest.approx(1.0)
    assert report["expectations_float"]["e_a"] == pytest.approx(-0.5)
    assert report["seed"] == 0
    # the same vectors as lists of ints
    listed = write_scenario(tmp_path, {
        "state": "maximally_entangled", "n": 4,
        "alice": {"vector": [1, 1, -1, -1]}, "bob": {"vector": [1, 1, -1, -1]},
    }, name="listed.json")
    code, out, _ = run_cli(capsys, "predict", "--scenario", listed)
    assert code == 0 and json.loads(out) == {**report, "scenario": listed}


def test_predict_csv(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "state": "maximally_entangled", "n": 4,
        "alice": {"vector": "++--"}, "bob": {"vector": "+-+-"},
    })
    code, out, _ = run_cli(capsys, "predict", "--scenario", path,
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p_pp,p_mp,p_pm,p_mm,e_ab,e_a,e_b"
    cells = lines[1].split(",")
    assert cells[0] == "0" and cells[4] == "0"


def test_predict_identity_observables(tmp_path, capsys):
    identity = [[1, 0], [0, 1]]
    path = write_scenario(tmp_path, {
        "state": "singlet",
        "alice": {"observable": identity}, "bob": {"observable": identity},
    })
    code, out, _ = run_cli(capsys, "predict", "--scenario", path)
    assert code == 0
    report = json.loads(out)
    assert report["exact"] is False
    for key in ("e_ab", "e_a", "e_b"):
        assert report["expectations_float"][key] == pytest.approx(1.0)


def test_predict_matrix_state(tmp_path, capsys):
    h = 0.5
    rho = [[h, 0, 0, h], [0, 0, 0, 0], [0, 0, 0, 0], [h, 0, 0, h]]
    path = write_scenario(tmp_path, {
        "state": {"matrix": rho},
        "alice": {"vector": "++"}, "bob": {"vector": "++"},
    })
    code, out, _ = run_cli(capsys, "predict", "--scenario", path)
    assert code == 0
    report = json.loads(out)
    assert report["probs_float"]["p_pp"] == pytest.approx(0.5)


def test_predict_rerun_and_out_file(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "state": "maximally_entangled", "n": 2,
        "alice": {"vector": "++"}, "bob": {"vector": "+-"},
    })
    code, first, _ = run_cli(capsys, "predict", "--scenario", path)
    code2, second, _ = run_cli(capsys, "predict", "--scenario", path)
    assert code == code2 == 0
    assert first == second
    out_file = tmp_path / "report.json"
    run_cli(capsys, "predict", "--scenario", path, "--out", str(out_file))
    assert out_file.read_text() == first


def test_predict_bad_scenarios(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run_cli(capsys, "predict", "--scenario", str(broken))[0] == 2
    assert run_cli(capsys, "predict", "--scenario",
                   str(tmp_path / "missing.json"))[0] == 2
    no_n = write_scenario(tmp_path, {
        "state": "maximally_entangled",
        "alice": {"vector": "++"}, "bob": {"vector": "++"}}, "no_n.json")
    assert run_cli(capsys, "predict", "--scenario", no_n)[0] == 2
    two_kinds = write_scenario(tmp_path, {
        "state": "singlet",
        "alice": {"vector": "++", "bloch": [0, 0, 1]},
        "bob": {"bloch": [0, 0, 1]}}, "two.json")
    assert run_cli(capsys, "predict", "--scenario", two_kinds)[0] == 2
    for vector in ([1.9, -1], [[1], -1], [True, -1]):
        path = write_scenario(tmp_path, {
            "state": "maximally_entangled", "n": 2,
            "alice": {"vector": vector}, "bob": {"vector": "++"}}, "vec.json")
        code, _, err = run_cli(capsys, "predict", "--scenario", path)
        assert code == 2 and '"vector" entries must be integers' in err



def test_predict_singlet_bloch_directions(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "state": "singlet",
        "alice": {"bloch": [0, 0, 1]}, "bob": {"bloch": [0.6, 0, 0.8]},
    })
    code, out, _ = run_cli(capsys, "predict", "--scenario", path)
    assert code == 0
    report = json.loads(out)
    # singlet: E(ab) = -a.b = -0.8, unbiased marginals, p_pp = (1 + e_ab) / 4
    assert report["probs_float"]["p_pp"] == pytest.approx(0.05)
    assert report["expectations_float"]["e_ab"] == pytest.approx(-0.8)


def test_predict_projector_and_complex_observable(tmp_path, capsys):
    mixed = [[0.25 if i == j else 0 for j in range(4)] for i in range(4)]
    sigma_y = [[0, [0, -1]], [[0, 1], 0]]  # [re, im] cells
    path = write_scenario(tmp_path, {
        "state": {"matrix": mixed},
        "alice": {"projector": [[1, 0], [0, 0]]}, "bob": {"observable": sigma_y},
    })
    code, out, _ = run_cli(capsys, "predict", "--scenario", path)
    assert code == 0
    probs = json.loads(out)["probs_float"]
    assert probs == pytest.approx({"p_pp": 0.25, "p_mp": 0.25,
                                   "p_pm": 0.25, "p_mm": 0.25})


def test_predict_malformed_scenarios_exit_two(tmp_path, capsys):
    singlet_z = {"state": "singlet", "bob": {"bloch": [0, 0, 1]}}
    mixed = [[0.25 if i == j else 0 for j in range(4)] for i in range(4)]
    cases = [
        ({**singlet_z, "alice": {"bloch": [0, 1]}}, '"bloch" takes a 3-component direction'),
        ({**singlet_z, "alice": {"observable": [[True, 0], [0, 1]]}},
         "matrix cells must be numbers, not booleans"),
        ({**singlet_z, "alice": {"observable": [[[1, 0, 0], 0], [0, 1]]}},
         "matrix cells are numbers or [re, im] pairs"),
        ({**singlet_z, "alice": {"projector": []}}, "matrix must be a nonempty list of rows"),
        ({**singlet_z, "alice": "z"}, 'scenario needs an object under "alice"'),
        ({"state": "werner", "alice": {"bloch": [0, 0, 1]}, "bob": {"bloch": [0, 0, 1]}},
         "unrecognized state spec 'werner'"),
        ({"state": {"matrix": mixed}, "alice": {"bloch": [0, 0, 1]}, "bob": [0, 0, 1]},
         'scenario needs an object under "bob"'),
        (["singlet"], "scenario file must hold a JSON object"),
        ({"state": "maximally_entangled", "n": True, "alice": {"vector": "+-"},
          "bob": {"vector": "+-"}}, 'maximally_entangled state needs an integer "n"'),
        # JSON values of the wrong type: refused, not a TypeError from float()
        ({**singlet_z, "state": {"matrix": [[{}]]}, "alice": {"bloch": [0, 0, 1]}},
         "matrix cells must be ints or floats in the float range, got {}"),
        ({**singlet_z, "alice": {"bloch": [0, None, 1]}},
         '"bloch" components must be ints or floats in the float range, got None'),
        ({**singlet_z, "state": {"matrix": [1, 2]}, "alice": {"bloch": [0, 0, 1]}},
         "matrix must be a nonempty list of rows, each a list"),
        ({**singlet_z, "alice": {"bloch": ["0", "0", "1"]}},
         "\"bloch\" components must be ints or floats in the float range, got '0'"),
        ({**singlet_z, "alice": {"projector": [[1, 0], [0, 10**400]]}},
         "matrix cells must be ints or floats in the float range"),
    ]
    for doc, message in cases:
        code, out, err = run_cli(capsys, "predict", "--scenario",
                                 write_scenario(tmp_path, doc))
        assert code == 2 and out == ""
        assert message in err, doc


# the pure state sqrt(0.7) |00> + sqrt(0.3) |11> has coherence sqrt(0.21)
_COHERENCE = 0.458257569495584
PREDICT_SCENARIOS = {
    "singlet_z_zx": {"state": "singlet", "alice": {"bloch": [0, 0, 1]},
                     "bob": {"bloch": [0.6, 0, 0.8]}},
    "singlet_xy_yz": {"state": "singlet", "alice": {"bloch": [0.6, 0.8, 0]},
                      "bob": {"bloch": [0, 0.28, 0.96]}},
    "singlet_xyz_yz": {"state": "singlet", "alice": {"bloch": [0.48, 0.6, 0.64]},
                       "bob": {"bloch": [0, 0.6, -0.8]}},
    "singlet_observable": {"state": "singlet",
                           "alice": {"observable": [[0, [0, -1]], [[0, 1], 0]]},
                           "bob": {"bloch": [0, 0.6, 0.8]}},
    "matrix_state": {"state": {"matrix": [[0.7, 0, 0, _COHERENCE], [0, 0, 0, 0],
                                          [0, 0, 0, 0], [_COHERENCE, 0, 0, 0.3]]},
                     "alice": {"bloch": [0.6, 0, 0.8]},
                     "bob": {"projector": [[1, 0], [0, 0]]}},
    "entangled_vectors": {"state": "maximally_entangled", "n": 6,
                          "alice": {"vector": "++++--"}, "bob": {"vector": "+++-+-"}},
}
# sha256 of the json and csv reports, scenario file "<name>.json" in the cwd
PREDICT_DIGESTS = {
    "singlet_z_zx": ("2c3ac7789b7560660f541a47551f29c011f1a7be00968e26f41bf826ad9db948",
                     "8c67f64fc43ef0a741cb5b14d6d7cd1f3adf851400cd28410cb98ddabecbce94"),
    "singlet_xy_yz": ("b5bfbdffdf65c16c800ba6cdd17c93c23ec1fa58330492e9cffb4421cef569d1",
                      "f945e14a1728a034d45eb858ff67dd2137d1f1880a7cd2e9514f863271f6408f"),
    "singlet_xyz_yz": ("ab112133a6e25b275d603b7d75653e56d9a6f57b3ba6cc49347086034cc0f238",
                       "e8147a26b1d2a905f5b8ed418332e19a6d6c49cccb796c850b735c9cf827839a"),
    "singlet_observable": ("dfd3805c9db3ec7c77d97326d28c3626dd40680e46b11c4dac46bfb95fd305c1",
                           "b81884690230ee9bceb1361a84bd8ca6f9caf5ba7e9b534f226786a37aeece7d"),
    "matrix_state": ("fe4bee45e9c219488c4ce7bd7b531dd32defce75f9916fb2e04aeae9f51fafb7",
                     "9d1eb9b83cec19672d3f40c729753961af7cfcf64372b61d971bcf6fcb38615c"),
    "entangled_vectors": ("2390f5783ab120dfb865fc685ccfc565a50f49f9728ab59a69c63d5be5a8c8d1",
                          "8f22986d786100e3f587e7cbd501a3973fa0d54be4315c30c8f2fa445108083a"),
}


# sha256 of `reduce` reports that exit 3: a failed law audit ends at a null
# `partition`, and a budget below every run's cost fails the tail check and the partition
REDUCE_DIGESTS = {
    ("--protocol", "constant", "--n", "4"):
        "edd66b55dbf612fc28d82155e030572a5c7492220713fe3ed576ea16dfc014a0",
    ("--protocol", "send_all_reply", "--n", "6", "--M", "5"):
        "b2ed67ba6b755947794b5203c434e5abf8ba389a1d88780ecb3d9c945351f384",
}


@pytest.mark.parametrize("argv", sorted(REDUCE_DIGESTS), ids=" ".join)
def test_failing_reduce_reports_are_pinned(argv, capsys):
    code, out, _ = run_cli(capsys, "reduce", *argv)
    assert code == 3
    assert hashlib.sha256(out.encode()).hexdigest() == REDUCE_DIGESTS[argv], out


@pytest.mark.parametrize("name", sorted(PREDICT_SCENARIOS))
def test_predict_reports_are_pinned(name, tmp_path, monkeypatch, capsys):
    """Byte-identical predict reports, float and exact, in both formats."""
    monkeypatch.chdir(tmp_path)
    path = f"{name}.json"
    (tmp_path / path).write_text(json.dumps(PREDICT_SCENARIOS[name]))
    for fmt, digest in zip(("json", "csv"), PREDICT_DIGESTS[name]):
        code, out, _ = run_cli(capsys, "predict", "--scenario", path, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (fmt, out)


def test_simulate_send_all_reply_exact(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--protocol", "send_all_reply",
                           "--a", "++--", "--b", "+-+-")
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "exact"
    assert report["probs"]["p_pp"] == "0/1"
    assert report["probs"]["p_mp"] == "1/4"
    assert report["t_mean"] == "5/1"
    assert report["expectations_float"]["e_ab"] == pytest.approx(0.0)
    code, _, err = run_cli(capsys, "simulate", "--protocol", "send_all_reply",
                           "--a", "++--")
    assert code == 2 and "needs --a and --b sign vectors" in err


def test_simulate_constant_exact(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--protocol", "constant")
    assert code == 0
    report = json.loads(out)
    assert report["probs"]["p_pp"] == "1/1"
    assert report["t_mean"] == "0/1"
    assert report["expectations_float"]["e_ab"] == pytest.approx(1.0)
    assert (report["input_a"], report["input_b"]) == ("++", "++")
    # --b defaults to Alice's input, echoed in its canonical form
    code, out, _ = run_cli(capsys, "simulate", "--protocol", "constant",
                           "--a=+1,-1")
    assert code == 0
    report = json.loads(out)
    assert (report["input_a"], report["input_b"]) == ("+1,-1", "+-")


def test_simulate_toner_bacon_sampled(capsys):
    args = ("simulate", "--protocol", "toner_bacon", "--a", "0,0,1",
            "--b", "0,0,1", "--samples", "2000", "--seed", "3")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "sampled" and report["samples"] == 2000
    assert report["t_max"] == 1
    # aligned axes anticorrelate on every sample
    assert report["expectations_float"]["e_ab"] == pytest.approx(-1.0)
    code2, out2, _ = run_cli(capsys, *args)
    assert out2 == out
    # no finite randomness space, so exact mode is unavailable
    assert run_cli(capsys, "simulate", "--protocol", "toner_bacon",
                   "--a", "0,0,1", "--b", "0,0,1")[0] == 2
    code, _, err = run_cli(capsys, "simulate", "--protocol", "toner_bacon",
                           "--b", "0,0,1", "--samples", "10")
    assert code == 2 and "needs --a and --b unit 3-vectors" in err


def test_simulate_protocol_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"y_a": -1}))
    code, out, _ = run_cli(capsys, "simulate", "--protocol", "constant",
                           "--protocol-config", str(config))
    assert code == 0
    assert json.loads(out)["probs"]["p_mp"] == "1/1"
    # send_all_reply's grid is always n^3, so there is no grid_size to set
    config.write_text(json.dumps({"grid_size": 16}))
    code, out, err = run_cli(capsys, "simulate", "--protocol", "send_all_reply",
                             "--a", "++", "--b", "++", "--protocol-config", str(config))
    assert code == 2 and out == ""
    assert "send_all_reply does not accept parameters ['grid_size']" in err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([16]))
    code, _, err = run_cli(capsys, "simulate", "--protocol", "send_all_reply",
                           "--a", "++", "--b", "++", "--protocol-config", str(bad))
    assert code == 2 and "protocol config must be a JSON object" in err
    bad.write_text(json.dumps({"bogus": 1}))
    assert run_cli(capsys, "simulate", "--protocol", "send_all_reply",
                   "--a", "++", "--b", "++",
                   "--protocol-config", str(bad))[0] == 2
    # JSON values are checked, not coerced; a null is not dropped
    for doc in ({"y_b": 64.9}, {"y_a": True}, {"y_a": None}):
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "simulate", "--protocol", "constant",
                                 "--protocol-config", str(bad))
        key = next(iter(doc))
        assert code == 2 and out == ""
        assert f"parameter {key} must be an integer" in err
    # n is the input length, whatever value the config gives it
    for doc in ({"n": 4.7}, {"n": [4]}):
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "simulate", "--protocol", "send_all_reply",
                                 "--a", "++++", "--b", "++++",
                                 "--protocol-config", str(bad))
        assert code == 2 and out == ""
        assert "protocol config cannot set n" in err


# --- where a protocol's n comes from ----------------------------------------


@pytest.fixture
def send_all_reply_builds(monkeypatch):
    """A list that gains one entry per SendAllReplyProtocol construction."""
    built = []
    post_init = SendAllReplyProtocol.__post_init__

    def counting(self):
        built.append(self.n)
        post_init(self)

    monkeypatch.setattr(SendAllReplyProtocol, "__post_init__", counting)
    return built


SEND_ALL_REPLY_COMMANDS = {
    "simulate": ("simulate", "--protocol", "send_all_reply", "--a", "++++", "--b", "++++"),
    "verify": ("verify", "--protocol", "send_all_reply", "--n", "4"),
    "reduce": ("reduce", "--protocol", "send_all_reply", "--n", "4"),
}


@pytest.mark.parametrize("argv", SEND_ALL_REPLY_COMMANDS.values(),
                         ids=SEND_ALL_REPLY_COMMANDS.keys())
def test_config_n_is_refused_before_the_protocol_is_built(argv, tmp_path, capsys,
                                                          send_all_reply_builds):
    config = tmp_path / "config.json"
    # n is checked once, from --n or the input; a config n would skip that check
    for doc in ({"n": 60}, {"n": 4}, {"n": None}):
        config.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, *argv, "--protocol-config", str(config))
        assert code == 2 and out == ""
        assert "error: protocol config cannot set n; it is --n or the input length" in err
    assert send_all_reply_builds == []
    # without one, each command builds its one protocol at the family size
    assert run_cli(capsys, *argv)[0] == 0
    assert send_all_reply_builds == [4]


@pytest.mark.parametrize("samples", [(), ("--samples", "10")], ids=["exact", "sampled"])
def test_simulate_refuses_n_above_the_cap_before_building(samples, capsys,
                                                          send_all_reply_builds):
    for length in (18, 2000):  # n is the input length
        code, out, err = run_cli(capsys, "simulate", "--protocol", "send_all_reply",
                                 "--a", "+" * length, "--b", "+" * length, *samples)
        assert code == 2 and out == ""
        assert f"error: exhaustive enumeration is capped at n = 16, got {length}" in err
    assert send_all_reply_builds == []
    code, out, _ = run_cli(capsys, "simulate", "--protocol", "send_all_reply",
                           "--a", "+-" * 8, "--b", "+-" * 8, *samples)
    assert code == 0 and send_all_reply_builds == [16]
    assert json.loads(out)["t_mean"] == ("17/1" if not samples else 17.0)  # n + 1 bits


def test_predict_refuses_maximally_entangled_n_above_the_cap(tmp_path, capsys, monkeypatch):
    states, build = [], oracle.maximally_entangled

    def counting(n):
        states.append(n)
        return build(n)

    monkeypatch.setattr(cli, "maximally_entangled", counting)
    for n in (17, 40):
        path = write_scenario(tmp_path, {"state": "maximally_entangled", "n": n,
                                         "alice": {"vector": "+-" * (n // 2)},
                                         "bob": {"vector": "+-" * (n // 2)}})
        code, out, err = run_cli(capsys, "predict", "--scenario", path)
        assert code == 2 and out == ""
        assert f"error: the maximally_entangled state is capped at n = 16, got {n}" in err
    assert states == []
    path = write_scenario(tmp_path, {"state": "maximally_entangled", "n": 16,
                                     "alice": {"vector": "+-" * 8}, "bob": {"vector": "+-" * 8}})
    code, out, _ = run_cli(capsys, "predict", "--scenario", path)
    assert code == 0 and states == [16]
    assert json.loads(out)["probs"]["p_pp"] == "1/16"


NON_FINITE_INPUTS = {
    "toner_bacon nan": (("simulate", "--protocol", "toner_bacon", "--a=nan,0,1",
                         "--b=0,0,1", "--samples", "10"), None, "input norm nan"),
    "toner_bacon inf": (("simulate", "--protocol", "toner_bacon", "--a=0,0,1",
                         "--b=0,inf,0", "--samples", "10"), None, "input norm inf"),
    "bloch nan": (("predict",), {"state": "singlet", "alice": {"bloch": [math.nan, 0, 1]},
                                 "bob": {"bloch": [0, 0, 1]}}, "direction norm nan"),
    "state matrix nan": (("predict",),
                         {"state": {"matrix": [[math.nan, 0, 0, 0], [0, 0, 0, 0],
                                               [0, 0, 0, 0], [0, 0, 0, 1]]},
                          "alice": {"projector": [[1, 0], [0, 0]]},
                          "bob": {"projector": [[1, 0], [0, 0]]}}, "entries must be finite"),
}


@pytest.mark.parametrize("argv, scenario, message", NON_FINITE_INPUTS.values(),
                         ids=NON_FINITE_INPUTS.keys())
def test_non_finite_inputs_exit_two(argv, scenario, message, tmp_path, capsys):
    if scenario is not None:  # Python's json writes and reads NaN
        argv = (*argv, "--scenario", write_scenario(tmp_path, scenario))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


# run in a fresh interpreter: which modules the exact commands load
_LOADED_AFTER = """
import contextlib, io, json, sys
import numpy
loaded = ["_hashlib" in sys.modules]
from qcc_lab import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    loaded.append("_hashlib" in sys.modules)
print(*loaded)
"""


def test_exact_commands_leave_hashlib_unloaded(tmp_path):
    """hashlib maps OpenSSL's libcrypto, and no command imports it: an exact
    verify, a tagged predict and a reduce, whose table digest is computed in
    Python, load no `_hashlib` beyond what `import numpy` alone loads, and the
    sampled verify run after them shows that the probe sees it. numpy >= 2
    imports numpy.random lazily and so loads none until a sampled path reads
    it, through secrets -> hmac; numpy 1.x imports it at once, so there the
    baseline already holds it."""
    scenario = write_scenario(tmp_path, {"state": "maximally_entangled", "n": 4,
                                         "alice": {"vector": "++--"}, "bob": {"vector": "+-+-"}})
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    commands = [["verify", "--protocol", "send_all_reply", "--n", "4"],
                ["predict", "--scenario", scenario],
                ["reduce", "--protocol", "send_all_reply", "--n", "2"],
                ["verify", "--protocol", "send_all_reply", "--n", "2", "--samples", "5"]]
    done = subprocess.run([sys.executable, "-c", _LOADED_AFTER, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    baseline, *loaded = done.stdout.split()
    assert loaded == [baseline, baseline, baseline, "True"]
    if int(np.__version__.split(".")[0]) >= 2:
        assert baseline == "False"


def test_verify_send_all_reply_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--protocol", "send_all_reply",
                           "--n", "2")
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "exact"
    assert report["all_full"] is True and report["all_restricted"] is True
    assert report["scenarios"] == 12 and report["failures"] == []


def test_verify_constant_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "--protocol", "constant",
                           "--n", "2")
    assert code == 3
    report = json.loads(out)
    assert report["all_restricted"] is False
    assert report["failure_count"] > 0 and report["failures"]


# the first 20 failure labels `verify --protocol constant --n 4` prints
CONSTANT_N4_FAILURES = [
    "----|----", "----|++--", "----|+-+-", "----|+--+", "----|-++-", "----|-+-+",
    "----|--++", "---+|---+", "---+|++-+", "---+|+-++", "---+|+---", "---+|-+++",
    "---+|-+--", "---+|--+-", "--+-|--+-", "--+-|+++-", "--+-|+---", "--+-|+-++",
    "--+-|-+--", "--+-|-+++"]


def test_law_audit_failures_in_promise_order(capsys):
    """Every pair fails on a constant law; the report keeps the first 20 in
    promise order under the labels verify prints, and the counts, and reduce
    names the first pair whose p_pp is off."""
    pairs = list(promise_pairs(4))
    report = check_exact_blqms(ConstantProtocol(), promise_scenarios(4))
    assert [f.label for f in report.failures] == [pair_label(a, b) for a, b in pairs][:20]
    assert report.failure_count == report.restricted_failure_count == len(pairs) == 112
    assert [f.label for f in report.failures][:20] == CONSTANT_N4_FAILURES
    code, out, _ = run_cli(capsys, "verify", "--protocol", "constant", "--n", "4")
    verified = json.loads(out)
    assert code == 3 and verified["scenarios"] == verified["failure_count"] == 112
    assert verified["failures"] == CONSTANT_N4_FAILURES and verified["worst_error"] == 1
    # outputs (+1, -1): p_pp is right exactly on the reject pairs
    split = check_exact_blqms(ConstantProtocol(y_b=-1), promise_scenarios(4))
    assert [f.passed_restricted for f in split.failures] == [a != b for a, b in pairs][:20]
    assert (split.failure_count, split.restricted_failure_count) == (112, 2**4)
    assert split.first_restricted_failure.label == "----|----"
    assert split.all_full is False and split.all_restricted is False
    code, out, _ = run_cli(capsys, "reduce", "--protocol", "constant", "--n", "4")
    mass = json.loads(out)["acceptance_mass"]
    assert code == 3 and mass["pairs"] == 112 and mass["witness"]["pair"] == "----|----"


def test_verify_sampled_mode(capsys):
    code, out, _ = run_cli(capsys, "verify", "--protocol", "send_all_reply",
                           "--n", "2", "--samples", "400", "--seed", "1")
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "sampled"
    assert report["all_full"] is None  # sampled mode measures, never passes
    assert report["worst_error"] >= 0


def test_verify_guards(capsys):
    assert run_cli(capsys, "verify", "--protocol", "send_all_reply",
                   "--n", "3")[0] == 2
    assert run_cli(capsys, "verify", "--protocol", "send_all_reply",
                   "--n", "18")[0] == 2
    assert run_cli(capsys, "verify", "--protocol", "toner_bacon",
                   "--n", "2")[0] == 2
    code, out, err = run_cli(capsys, "verify", "--protocol", "constant", "--n", "2",
                             "--samples", "3", "--seed", "-1")
    assert code == 2 and out == ""
    assert "check_exact_blqms parameter seed must be at least 0, got -1" in err


def test_dj_certificate_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "dj", "cert", "--a", "++", "--b", "+-")
    assert code == 0
    report = json.loads(out)
    assert (report["index"], report["alpha"]) == (2, 1)
    assert report["bits"] == "10"
    assert report["bit_length"] == 2 and report["bit_bound"] == 2

    code, out, _ = run_cli(capsys, "dj", "verify", "--party", "A",
                           "--vector", "++", "--cert", "10")
    assert code == 0 and json.loads(out)["accepted"] is True

    code, out, _ = run_cli(capsys, "dj", "verify", "--party", "B",
                           "--vector", "++", "--cert", "10")
    assert code == 3
    report = json.loads(out)
    assert report["accepted"] is False and "coordinate 2" in report["reason"]


def test_dj_cert_rejects_equal_inputs(capsys):
    code, _, err = run_cli(capsys, "dj", "cert", "--a", "++", "--b", "++")
    assert code == 2 and "error:" in err
    assert run_cli(capsys, "dj", "verify", "--party", "A", "--vector", "++",
                   "--cert", "2x")[0] == 2


def test_dj_bounds(capsys):
    code, out, _ = run_cli(capsys, "dj", "bounds", "--n", "2", "1024")
    assert code == 0
    report = json.loads(out)
    rows = report["rows"]
    assert rows[0]["n0_upper_bound"] == 2 and rows[0]["d_trivial"] == 3
    assert rows[1]["n1_vacuous"] is True
    assert "-0.448615384615385" in out
    assert run_cli(capsys, "dj", "bounds", "--n", "3")[0] == 2


def test_reduce_send_all_reply(capsys):
    args = ("reduce", "--protocol", "send_all_reply", "--n", "2", "--M", "4")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    report = json.loads(out)
    assert report["acceptance_mass"]["ok"] is True
    assert report["tail"]["ok"] is True
    assert report["partition"]["cells"] == 1
    assert report["completeness"] == {"ok": True, "passed": 4, "total": 4}
    assert report["soundness"] == {"ok": True, "pairs": 8,
                                   "jointly_accepted": 0}
    assert report["certificate_bits"]["max"] == 9
    assert report["certificate_bits"]["within_reference"] is True
    code2, out2, _ = run_cli(capsys, *args)
    assert out2 == out


def test_reduce_constant_emits_witness(capsys):
    code, out, _ = run_cli(capsys, "reduce", "--protocol", "constant",
                           "--n", "2")
    assert code == 3
    report = json.loads(out)
    assert report["acceptance_mass"]["ok"] is False
    witness = report["acceptance_mass"]["witness"]
    assert witness["measured_p_pp"] == pytest.approx(1.0)
    assert witness["target_p_pp"] == pytest.approx(0.5)
    assert report["partition"] is None


class Chatty(Protocol):
    """Alice sends 1 and Bob answers 0, forever; every run overruns its budget."""

    name = "chatty"
    lambda_space = RandomnessSpace.uniform([0])

    def step(self, party, own_input, lam, received):
        return Action(send=(1,) if party is ALICE else (0,))


def test_nonhalting_finding_prints_partial_transcript(capsys, monkeypatch):
    monkeypatch.setattr(cli, "make_protocol", lambda name, **params: Chatty())
    code, out, err = run_cli(capsys, "simulate", "--protocol", "constant")
    assert code == 3
    assert out == ""
    cap = Chatty().default_cap(SignVector((1, 1)), SignVector((1, 1)))
    assert f"finding: chatty exceeded the {cap}-bit budget" in err
    assert f"partial transcript: {'A1B0' * (cap // 2)}\n" in err


def test_partition_finding_prints_witness(capsys, monkeypatch):
    def broken(a, partition, protocol):
        raise PartitionError("replay broke the cell promise", witness=a)

    monkeypatch.setattr(reduction, "build_certificate", broken)
    code, out, err = run_cli(capsys, "reduce", "--protocol", "send_all_reply",
                             "--n", "2")
    assert code == 3
    assert out == ""
    assert err == "finding: replay broke the cell promise\nwitness: --\n"


def test_reduce_tight_budget_fails_tail(capsys):
    code, out, _ = run_cli(capsys, "reduce", "--protocol", "send_all_reply",
                           "--n", "2", "--M", "3")
    assert code == 3
    report = json.loads(out)
    assert report["tail"]["ok"] is False
    assert report["tail"]["worst_mass"] == "1/1"


def test_reduce_guards(capsys):
    assert run_cli(capsys, "reduce", "--protocol", "send_all_reply",
                   "--n", "3")[0] == 2
    # a bit budget below 1 is bad input, not a failed tail and partition
    for budget in ("-3", "0"):
        code, out, err = run_cli(capsys, "reduce", "--protocol", "send_all_reply",
                                 "--n", "2", "--M", budget)
        assert code == 2 and out == ""
        assert f"error: --M is a bit budget and must be at least 1, got {budget}" in err
    assert run_cli(capsys, "reduce", "--protocol", "toner_bacon",
                   "--n", "2")[0] == 2


def test_bounds_table(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "1048576",
                           "--k", "1", "2", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,n1_lower_bound,m_of_n,moment_bound,contradiction"
    assert len(lines) == 4
    assert lines[1].split(",")[4] == "0.025"
    assert lines[2].split(",")[4] == "3.93216"
    assert lines[1].split(",")[5] == "false"

    code, out, _ = run_cli(capsys, "bounds", "--n", "2", "--k", "1")
    assert code == 0
    report = json.loads(out)
    assert report["rows"][0]["moment_bound"] == pytest.approx(0.5)
    assert run_cli(capsys, "bounds", "--n", "7")[0] == 2
    assert run_cli(capsys, "bounds", "--n", "4", "--k", "0")[0] == 2


def test_bounds_out_file(tmp_path, capsys):
    out_file = tmp_path / "bounds.csv"
    code, out, _ = run_cli(capsys, "bounds", "--n", "4", "--format", "csv",
                           "--out", str(out_file))
    assert code == 0 and out == ""
    content = out_file.read_text()
    assert content.startswith("n,k,")
    assert len(content.splitlines()) == 4
    # a failing verdict's report goes to the file too, and a write error exits 2
    _, printed, _ = run_cli(capsys, "verify", "--protocol", "constant", "--n", "2")
    verdict_file = tmp_path / "verify.json"
    code, out, _ = run_cli(capsys, "verify", "--protocol", "constant", "--n", "2",
                           "--out", str(verdict_file))
    assert code == 3 and out == "" and verdict_file.read_text() == printed
    code, out, err = run_cli(capsys, "bounds", "--n", "4",
                             "--out", str(tmp_path / "missing" / "bounds.json"))
    assert code == 2 and out == "" and err.startswith("error: ")


def test_usage_errors_exit_two(capsys):
    for argv in ([], ["nope"], ["predict"], ["simulate", "--protocol", "nope"],
                 ["dj"], ["bounds", "--n", "4", "--format", "xml"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        capsys.readouterr()


def test_entrypoint_exits(tmp_path, capsys, monkeypatch):
    import sys

    from qcc_lab.cli import entrypoint
    path = write_scenario(tmp_path, {
        "state": "maximally_entangled", "n": 2,
        "alice": {"vector": "++"}, "bob": {"vector": "++"},
    })
    monkeypatch.setattr(sys, "argv", ["qcc-lab", "predict", "--scenario", path])
    with pytest.raises(SystemExit) as excinfo:
        entrypoint()
    assert excinfo.value.code == 0
    capsys.readouterr()


# --- the protocol registry ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class Parity(Protocol):
    """n = 2 only: Alice sends a1*a2 as one bit, Bob copies or flips her
    uniform output; exact on the promise, where a != b flips one sign."""

    n: int

    name = "parity"
    lambda_space = RandomnessSpace.uniform((1, -1))

    def __post_init__(self):
        if self.n != 2:
            raise InvariantError(f"parity needs n = 2, got {self.n}")

    def step(self, party, own_input, lam, received):
        parity = own_input[0] * own_input[1]
        if party is ALICE:
            return Action(send=((1 + parity) // 2,), output=lam)
        if not received:
            return Action()
        return Action(output=lam * parity * (2 * received[0] - 1))


@dataclass(frozen=True, eq=False)
class Spins(Protocol):
    """Takes unit 3-vectors; both parties output +1 with no bits sent."""

    name = "spins"
    lambda_space = RandomnessSpace.uniform((0,))
    input_kind = TonerBaconProtocol.input_kind
    parse_input = staticmethod(TonerBaconProtocol.parse_input)

    def step(self, party, own_input, lam, received):
        return Action(output=1)


def test_registered_protocol_runs_through_cli(capsys, monkeypatch):
    monkeypatch.setitem(protocols.PROTOCOLS, "parity", Parity)
    code, out, _ = run_cli(capsys, "simulate", "--protocol", "parity",
                           "--a", "++", "--b=-+")
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "exact"
    assert report["probs"] == {"p_pp": "0/1", "p_mp": "1/2",
                               "p_pm": "1/2", "p_mm": "0/1"}
    assert report["t_mean"] == "1/1"
    # the input length reaches the protocol's n field; simulate has no --n
    code, out, err = run_cli(capsys, "simulate", "--protocol", "parity",
                             "--a", "++++", "--b", "++++")
    assert code == 2 and "parity needs n = 2, got 4" in err
    with pytest.raises(SystemExit) as exit_info:
        run_cli(capsys, "simulate", "--protocol", "parity", "--n", "2",
                "--a", "++", "--b", "++")
    assert exit_info.value.code == 2
    code, out, _ = run_cli(capsys, "verify", "--protocol", "parity", "--n", "2")
    assert code == 0
    report = json.loads(out)
    assert report["all_full"] is True and report["scenarios"] == 12



@dataclass(frozen=True, eq=False)
class SampledParity(Parity):
    """Parity over a fair +/-1 coin that only its batch hook samples."""

    lambda_space = None

    def batch_outcomes(self, input_a, input_b, rng, count):
        coins = np.where(rng.random(count) < 0.5, 1, -1)
        flips = input_a[0] * input_a[1] * input_b[0] * input_b[1]
        return coins, coins * flips, np.ones(count, dtype=np.int64)


def test_sampled_space_guards(capsys, monkeypatch):
    monkeypatch.setitem(protocols.PROTOCOLS, "sampled_parity", SampledParity)
    code, out, err = run_cli(capsys, "verify", "--protocol", "sampled_parity", "--n", "2")
    assert code == 2 and out == ""
    assert "sampled_parity has no finite randomness space; pass --samples" in err
    code, out, _ = run_cli(capsys, "verify", "--protocol", "sampled_parity", "--n", "2",
                           "--samples", "50")
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "sampled" and report["worst_error"] < 0.5
    code, out, err = run_cli(capsys, "reduce", "--protocol", "sampled_parity", "--n", "2")
    assert code == 2 and out == ""
    assert "reduce needs a finite randomness space" in err
    code, out, err = run_cli(capsys, "simulate", "--protocol", "sampled_parity",
                             "--a", "++", "--b", "++")
    assert code == 2 and out == ""
    assert "sampled_parity has no finite randomness space; pass --samples" in err


def test_promise_commands_refuse_non_sign_vector_protocols(capsys, monkeypatch):
    monkeypatch.setitem(protocols.PROTOCOLS, "spins", Spins)
    code, out, _ = run_cli(capsys, "simulate", "--protocol", "spins",
                           "--a", "0,0,1", "--b", "1,0,0")
    assert code == 0
    assert json.loads(out)["input_b"] == "1,0,0"
    for command in ("verify", "reduce"):
        code, out, err = run_cli(capsys, command, "--protocol", "spins",
                                 "--n", "2")
        assert code == 2 and out == ""
        assert "takes unit 3-vectors" in err


# --- the README's examples ---------------------------------------------------


def readme_cli_section() -> str:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    """Every `$ qcc-lab ...` line of the README's CLI section, with the scenario
    file shown there, exits 0, or 3 where its comment says "exits 3"."""
    section = readme_cli_section()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenario.json").write_text(section.split("```json\n", 1)[1].split("```", 1)[0])
    cases = []
    for line in section.splitlines():
        if line.startswith("$ qcc-lab "):
            command, _, comment = line[len("$ qcc-lab "):].partition("#")
            cases.append((command.strip(), 3 if "exits 3" in comment else 0))
    assert len(cases) >= 10
    codes = [(command, run_cli(capsys, *shlex.split(command))[0]) for command, _ in cases]
    assert codes == cases

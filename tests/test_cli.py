"""CLI behavior: commands, output formats, exit codes."""

import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

from borncraft.cli import MAX_INPUT_CHARS, MAX_SAMPLES, main
from borncraft.dist import dist_from_json
from borncraft.harness import MAX_POINTS

PARITY_TEXT = """qubits 3
H 0
H 1
CNOT 0 2
CNOT 1 2
"""

NOISY_TEXT = PARITY_TEXT + "H 2\nT 2\nH 2\n"


@pytest.fixture
def parity_file(tmp_path):
    path = tmp_path / "parity.qc"
    path.write_text(PARITY_TEXT)
    return str(path)


@pytest.fixture
def noisy_file(tmp_path):
    path = tmp_path / "noisy.qc"
    path.write_text(NOISY_TEXT)
    return str(path)


def test_simulate_stab_distribution(parity_file, capsys):
    assert main(["simulate", parity_file, "--backend", "stab"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["backend"] == "stab"
    d = dist_from_json(payload["distribution"])
    assert d.n == 3
    assert d.support_size == 4


def test_simulate_sv_distribution(noisy_file, capsys):
    assert main(["simulate", noisy_file, "--backend", "sv"]) == 0
    payload = json.loads(capsys.readouterr().out)
    probs = payload["probabilities"]
    assert len(probs) == 8
    assert sum(probs) == pytest.approx(1.0, abs=1e-10)


def test_simulate_samples_deterministic(parity_file, capsys):
    assert main(["simulate", parity_file, "--samples", "5", "--seed", "3"]) == 0
    first = capsys.readouterr().out.splitlines()
    assert len(first) == 5
    assert all(len(line) == 3 for line in first)
    # samples satisfy the parity constraint
    for line in first:
        assert int(line[2]) == int(line[0]) ^ int(line[1])
    assert main(["simulate", parity_file, "--samples", "5", "--seed", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == first


def test_simulate_stab_rejects_t(noisy_file, capsys):
    assert main(["simulate", noisy_file, "--backend", "stab"]) == 2
    assert "non-Clifford" in capsys.readouterr().err


def test_simulate_missing_file(capsys):
    assert main(["simulate", "/nonexistent/file.qc"]) == 2


def test_learn_closure(parity_file, capsys):
    assert main([
        "learn", "closure", "--circuit", parity_file, "--delta", "0.01", "--seed", "1",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["samples_used"] == 3 + 7
    assert payload["queries"] == payload["samples_used"]
    if payload["success"]:
        assert payload["tv_to_truth"] == 0.0
    assert dist_from_json(payload["learned"]).n == 3


def test_learn_closure_success_is_a_zero_tv(parity_file, capsys, monkeypatch):
    # Success is read from the exact TV, so learn closure needs no same_set.
    from borncraft.gf2 import AffineSubspace

    def fail(*args, **kwargs):
        raise AssertionError("same_set was called")

    monkeypatch.setattr(AffineSubspace, "same_set", fail)
    outcomes = set()
    for seed in range(12):
        argv = ["learn", "closure", "--circuit", parity_file, "--delta", "0.9",
                "--seed", str(seed)]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["success"] is (payload["tv_to_truth"] == 0.0)
        outcomes.add(payload["success"])
    assert outcomes == {False, True}


def test_experiment_json_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "result.json"
    code = main([
        "experiment", "parity-tv", "--grid", '{"k": 2}', "--trials", "1",
        "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["schema"] == "result_v1"
    assert obj["experiment"] == "parity-tv"


def test_experiment_grid_file(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text('{"k": 2}')
    assert main([
        "experiment", "parity-tv", "--grid", f"@{grid_path}", "--trials", "1",
    ]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["points"][0]["success_rate"] == 1.0


def test_experiment_csv(tmp_path):
    out = tmp_path / "result.csv"
    assert main([
        "experiment", "recovery-curve", "--grid", '{"n": 6, "m": 2, "k": [3]}',
        "--trials", "20", "--seed", "1", "--out", str(out), "--format", "csv",
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("experiment,")
    assert len(lines) == 2


def test_experiment_infeasible_grid_exit_3(capsys):
    assert main([
        "experiment", "t-noise", "--grid", '{"k": 12}', "--trials", "1",
    ]) == 3


def test_experiment_bad_grid_json(capsys):
    assert main([
        "experiment", "parity-tv", "--grid", "{not json", "--trials", "1",
    ]) == 2


def test_unknown_experiment_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "bogus", "--grid", "{}"])
    assert exc.value.code == 2


def test_bad_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["learn", "closure", "--circuit", "x.qc"])  # missing --delta
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "{path}"],
    ["simulate", "{path}", "--samples", "1"],
    ["learn", "closure", "--circuit", "{path}", "--delta", "0.01"],
])
def test_tableau_qubit_cap_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "huge.qc"
    path.write_text("qubits 3000000\nH 0\n")
    assert main([a.format(path=path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and "limited to" in err[0]


@pytest.mark.parametrize("argv", [
    ["simulate", "{path}", "--backend", "stab"],
    ["simulate", "{path}", "--backend", "sv"],
    ["learn", "closure", "--circuit", "{path}", "--delta", "0.01"],
])
def test_overflowing_qubit_count_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "overflow.qc"
    path.write_text("qubits 99999999999999999999\nH 0\n")
    assert main([a.format(path=path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "limited to" in err[0]


@pytest.mark.parametrize("backend", ["stab", "sv"])
def test_simulate_negative_samples_exit_2(parity_file, capsys, backend):
    assert main(["simulate", parity_file, "--backend", backend, "--samples", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--samples" in captured.err


def test_simulate_samples_over_cap_exit_2_before_reading_the_file(tmp_path, capsys):
    missing = str(tmp_path / "missing.qc")
    assert main(["simulate", missing, "--samples", str(MAX_SAMPLES + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --samples must lie in 0..{MAX_SAMPLES}\n"


def test_experiment_empty_grid_exit_2(capsys):
    assert main(["experiment", "recovery-curve", "--grid", "{}", "--trials", "1"]) == 2
    assert "missing key 'n'" in capsys.readouterr().err


def test_experiment_missing_grid_file_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main([
        "experiment", "parity-tv", "--grid", f"@{missing}", "--trials", "1",
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "grid file" in err[0]


def test_experiment_unwritable_out_exit_2(tmp_path, capsys):
    out = tmp_path / "missing" / "dir" / "x.json"
    assert main([
        "experiment", "parity-tv", "--grid", '{"k": 2}', "--trials", "1",
        "--out", str(out),
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "output file" in err[0]


def test_experiment_unwritable_out_checked_before_run(tmp_path, capsys, monkeypatch):
    def runner(spec):
        raise AssertionError("the experiment ran before --out was checked")

    monkeypatch.setattr("borncraft.cli.run", runner)
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        assert main([
            "experiment", "parity-tv", "--grid", '{"k": 2}', "--trials", "1",
            "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "cannot write output file" in err[0]


def test_experiment_failed_run_leaves_out_untouched(tmp_path, capsys):
    def experiment(k, out):
        return main(["experiment", "parity-tv", "--grid", f'{{"k": {k}}}', "--trials", "1",
                     "--out", str(out)])

    new = tmp_path / "new.json"
    assert experiment(9, new) == 3  # infeasible grid: the run fails
    assert not new.exists()
    old = tmp_path / "old.json"
    old.write_text("previous result\n")
    assert experiment(9, old) == 3
    assert old.read_text() == "previous result\n"
    assert experiment(2, old) == 0
    assert json.loads(old.read_text())["experiment"] == "parity-tv"


def _comparable(out: str) -> str:
    # learn closure reports its wall time; everything else must match exactly
    if out.startswith("{"):
        obj = json.loads(out)
        obj.pop("wall_time_s", None)
        return json.dumps(obj, sort_keys=True)
    return out


def test_main_in_one_process_matches_separate_processes(parity_file, noisy_file, capsys):
    argvs = [
        ["simulate", noisy_file, "--backend", "sv"],
        ["learn", "closure", "--circuit", parity_file, "--delta", "0.01", "--seed", "4"],
        ["learn", "closure", "--circuit", parity_file],  # argparse error: no --delta
        ["simulate", parity_file, "--samples", "4", "--seed", "2"],
        ["simulate", noisy_file, "--backend", "sv"],
    ]
    in_process = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        out, err = capsys.readouterr()
        in_process.append((code, _comparable(out), err))
    separate = []
    for argv in argvs:
        proc = subprocess.run([sys.executable, "-m", "borncraft.cli", *argv],
                              capture_output=True, text=True, timeout=120)
        separate.append((proc.returncode, _comparable(proc.stdout), proc.stderr))
    assert in_process == separate
    assert [code for code, _, _ in in_process] == [0, 0, 2, 0, 0]


@pytest.mark.parametrize("name,grid,code,key", [
    ("sq-vs-sample", '{"k": 3, "tau": 0.1, "budget": [1]}', 2, "budget"),
    ("parity-tv", '{"k": {"a": 1}}', 2, "k"),
    ("recovery-curve", '{"n": 1e9, "m": [4], "k_offsets": [0]}', 2, "n"),
    ("recovery-curve", '{"n": 1000000000, "m": [4], "k_offsets": [0]}', 3, "n"),
    ("recovery-curve", '{"n": 6, "m": [2], "k": [3], "k_offsets": [0]}', 2, "k_offsets"),
    ("opnorm-tv", '{"n": [true]}', 2, "n"),
    ("opnorm-tv", '{"n": [2.7], "bogus": 1}', 2, "bogus"),
    ("t-noise", '{"k": 2, "tol": "nan"}', 2, "tol"),
    ("t-noise", '{"k": 2, "tol": NaN}', 2, "tol"),
    ("opnorm-tv", '{"n": "abc"}', 2, "n"),
    ("parity-tv", '{"k": 7}', 3, "k"),
    ("sq-vs-sample", '{"k": 16, "budget": 500000, "delta": 0}', 3, "delta"),
])
def test_experiment_bad_grid_one_error_line_naming_key(capsys, name, grid, code, key):
    assert main(["experiment", name, "--grid", grid, "--trials", "1"]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and f"'{key}'" in err


def test_experiment_trials_over_cap_exit_3(capsys):
    assert main([
        "experiment", "parity-tv", "--grid", '{"k": 2}', "--trials", "100000000000",
    ]) == 3
    assert "trials" in capsys.readouterr().err


def test_experiment_opnorm_tv_over_its_trial_cap_exit_3(capsys):
    # 30000 trials are within the per-point time bound at n = 2, over it at n = 10
    assert main(["experiment", "opnorm-tv", "--grid", '{"n": [2, 10]}', "--trials", "30000"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error:")
    assert 'opnorm-tv point {"n": 10} would take' in err and "30000 trials" in err


@pytest.mark.parametrize("name,grid,point", [
    ("recovery-curve", '{"n": 1024, "m": [1024], "k": [4096]}', '{"k": 4096, "m": 1024, "n": 1024}'),
    ("sq-vs-sample", '{"k": 30, "budget": 500000}',
     '{"budget": 500000, "k": 30, "learner": "sq-correlation", "tau": 0.1}'),
])
def test_experiment_point_over_the_time_bound_exit_3_naming_it(capsys, name, grid, point):
    start = time.perf_counter()
    assert main(["experiment", name, "--grid", grid, "--trials", "100000"]) == 3
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"error: {name} point {point} would take")


def test_experiment_over_the_point_cap_exit_3(capsys):
    grid = json.dumps({"k": [1] * (MAX_POINTS + 1)})
    assert main(["experiment", "t-noise", "--grid", grid]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: t-noise grid has {MAX_POINTS + 1} points (at most {MAX_POINTS})\n"


def test_grid_of_25m_points_exit_3_in_bounded_memory(tmp_path):
    # 5,000 values each in m and k: a 30 KB file whose 25 M points are counted,
    # not listed, under a 200 MB address-space limit.
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (200_000 << 10, 200_000 << 10))

    grid = tmp_path / "wide.json"
    grid.write_text(json.dumps({"n": 16, "m": [4] * 5000, "k": [4] * 5000}), encoding="utf-8")
    timed = ("import sys, time; from borncraft.cli import main; start = time.perf_counter(); "
             "code = main(sys.argv[1:]); print(time.perf_counter() - start); sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", timed, "experiment", "recovery-curve",
                           "--grid", f"@{grid}", "--trials", "1"],
                          capture_output=True, text=True, timeout=120, preexec_fn=limit)
    assert proc.returncode == 3 and float(proc.stdout) < 1.0
    assert proc.stderr == (
        f"error: recovery-curve grid has 25000000 points (at most {MAX_POINTS})\n")


def test_learn_closure_subnormal_delta_exit_2(parity_file, capsys):
    # 1/delta overflows to infinity, so the sample count cannot be formed.
    assert main(["learn", "closure", "--circuit", parity_file, "--delta", "5e-324"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "delta" in err


def test_readme_recovery_curve_example_runs():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    (grid,) = re.findall(r"borncraft experiment recovery-curve \\\n\s*--grid '([^']*)'", readme)
    assert main(["experiment", "recovery-curve", "--grid", grid, "--trials", "2"]) == 0


def test_files_longer_than_the_input_cap_exit_2(tmp_path, capsys):
    # A valid circuit and a valid grid, each one character over the cap.
    circuit = tmp_path / "long.qc"
    circuit.write_text("qubits 1\n" + "H 0\n" * ((MAX_INPUT_CHARS - 8) // 4), encoding="utf-8")
    grid = tmp_path / "long.json"
    grid.write_text('{"k": 1' + " " * (MAX_INPUT_CHARS - 7) + "}", encoding="utf-8")
    for argv, what in [(["simulate", str(circuit)], "circuit"),
                       (["learn", "closure", "--circuit", str(circuit), "--delta", "0.1"], "circuit"),
                       (["experiment", "t-noise", "--grid", f"@{grid}", "--trials", "1"], "grid")]:
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {what} file is longer than {MAX_INPUT_CHARS} characters\n"


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
@pytest.mark.parametrize("argv", [["simulate", "/dev/zero"],
                                  ["experiment", "t-noise", "--grid", "@/dev/zero"]])
def test_endless_file_exit_2_in_bounded_memory(argv):
    # Under a 200 MB address-space limit, an endless file is refused at the
    # cap rather than read until MemoryError.
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (200_000 << 10, 200_000 << 10))

    proc = subprocess.run([sys.executable, "-m", "borncraft.cli", *argv], capture_output=True,
                          text=True, timeout=120, preexec_fn=limit)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("depth", [sys.getrecursionlimit(), 60_000])
def test_grid_nested_deeper_than_the_stack_exit_2(tmp_path, capsys, depth):
    text = "[" * depth + "]" * depth
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    for grid in (text, f"@{path}"):
        assert main(["experiment", "t-noise", "--grid", grid, "--trials", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: bad grid JSON")


def _one_write_error_line(stderr: str) -> None:
    assert len(stderr.splitlines()) == 1 and "Traceback" not in stderr
    assert stderr.startswith("error: cannot write output: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["simulate", "experiment"])
def test_output_to_a_full_device_exit_2(parity_file, command):
    argv = {"simulate": ["simulate", parity_file],
            "experiment": ["experiment", "t-noise", "--grid", '{"k": [1]}', "--trials", "1"]}
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "borncraft.cli", *argv[command]],
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 2
    _one_write_error_line(proc.stderr)


def test_samples_into_a_pipe_closed_after_the_first_line_exit_2(parity_file):
    # 100,000 four-byte lines overrun the pipe's buffer, so the writer is
    # still writing when the reader goes away.
    proc = subprocess.Popen([sys.executable, "-m", "borncraft.cli", "simulate", parity_file,
                             "--samples", "100000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    first = proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=120) == 2
    assert re.fullmatch("[01]{3}\n", first)
    _one_write_error_line(proc.stderr.read())
    proc.stderr.close()

"""Command line reports: schemas, pinned examples, exit codes, hashes."""

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import matsketch
from matsketch import save_matrix
from matsketch.cli import _build_parser, determinism_hash, main
from matsketch.samplers import _barrier_core
from matsketch.synthetic import blobs, lowrank_plus_noise

from conftest import rand, src_env

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: tomli, if installed
    tomllib = None

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def recomputed_hash(report):
    body = {k: v for k, v in report.items() if k != "determinism_hash"}
    return determinism_hash(body)


# ---------------------------------------------------------------------------
# pinned single-experiment examples


def test_cx_frobenius_deterministic_example(capsys):
    code, rep = run_cli(capsys, "cx", "frobenius", "--mode", "deterministic",
                        "-k", "2", "-r", "8",
                        "--synthetic", "lowrank:100,80,2,0.05", "--seed", "0")
    assert code == 0
    res = rep["results"]
    # k=2, r=8 gives the factor sqrt(1 + 1/(1-1/2)^2) = sqrt(5)
    assert res["bound_value"] == pytest.approx(math.sqrt(5) * res["baseline"])
    assert res["satisfied"] is True
    assert res["mean_ratio"] <= math.sqrt(5) + 1e-9
    assert res["bound_kind"] == "per-instance"
    assert rep["params"] == {"k": 2, "r": 8, "mode": "deterministic",
                             "norm": "frobenius", "trials": 1}


def test_coreset_barrier_example(capsys):
    code, rep = run_cli(capsys, "coreset", "--method", "barrier",
                        "--eps", "0.5",
                        "--synthetic", "lowrank:5000,3,3,0.1", "--seed", "0")
    assert code == 0
    res = rep["results"]
    assert res["r_formula"] == 3600  # ceil(225*(n+1)/eps^2) at n=3
    assert res["bound_value"] == 1.5
    trial = res["per_trial"][0]
    # repeated picks merge, so far fewer than 3600 weighted rows come out
    assert 4 <= trial["distinct_rows"] <= trial["rows"] <= 3600
    assert trial["ratio"] <= 1.5 + 1e-9
    assert trial["satisfied"] is True
    # the certificate: a walk far shorter than the formula's 3600 steps
    assert trial["ratio"] <= trial["kappa"] <= 1.5
    assert trial["distinct_rows"] <= trial["steps"] < 3600 and trial["note"] == ""
    # the trail ends at the kept checkpoint; every earlier one failed
    *failed, kept = trial["checkpoints"]
    assert kept == [trial["steps"], trial["kappa"]]
    assert all(kappa > 1.5 for _, kappa in failed)


def test_coreset_barrier_bounded_work(capsys, monkeypatch):
    # eps = 0.01 never certifies a strict subset of this 40-row input before
    # 16 m = 640 steps: the walk ends there, far short of the formula's
    # 9000000, and all rows answer
    from matsketch import regression

    stops = []

    def bounded(V, r, upper, screen):
        stops.append((r, screen[1]))
        return _barrier_core(V, r, upper, screen=screen)

    monkeypatch.setattr(regression, "_barrier_core", bounded)
    with pytest.warns(UserWarning, match="640 steps exceeds m=40"):
        code, rep = run_cli(capsys, "coreset", "--method", "barrier",
                            "--eps", "0.01", *_CORESET_INPUT)
    assert code == 0
    assert stops == [(9_000_000, 640)]
    trial = rep["results"]["per_trial"][0]
    assert (trial["kappa"], trial["steps"], trial["note"]) == (1.0, 640, "all-rows")
    assert [t for t, _ in trial["checkpoints"]][-1] == 640
    assert all(kappa > 1.01 for _, kappa in trial["checkpoints"])
    assert trial["rows"] == trial["distinct_rows"] == 40
    assert trial["ratio"] == 1.0


@pytest.mark.parametrize("method", ["subspace", "srht"])
def test_randomized_coreset_trials_report_no_certificate(capsys, method):
    _, rep = run_cli(capsys, "coreset", "--method", method, "--eps", "0.5",
                     "-r", "30", "--trials", "2", *_CORESET_INPUT)
    for t in rep["results"]["per_trial"]:
        assert (t["kappa"], t["steps"]) == (None, None)
        assert "checkpoints" not in t


def test_lowerbound_example(capsys):
    code, rep = run_cli(capsys, "lowerbound", "-n", "5", "--alpha", "1.0",
                        "-r", "2")
    assert code == 0
    res = rep["results"]
    assert res["ratio"] == pytest.approx(2.0, abs=1e-12)
    assert res["sigma1_sq"] == pytest.approx(6.0, rel=1e-12)
    assert res["subsets_checked"] == 10
    assert res["all_subsets_agree"] is True


def test_id_report_fields(capsys):
    code, rep = run_cli(capsys, "id", "-k", "3",
                        "--synthetic", "lowrank:40,25,3,0.05", "--seed", "1")
    assert code == 0
    res = rep["results"]
    assert len(res["columns"]) == 3
    assert res["identity_block_exact"] is True
    assert res["max_abs_entry"] <= 2.0 + 1e-9
    assert res["coefficient_norm"] <= res["coefficient_norm_bound"] + 1e-9


# ---------------------------------------------------------------------------
# determinism hashes


def test_hash_reproducible_and_seed_sensitive(capsys):
    argv = ("cssp", "-k", "2", "--mode", "spectral", "--trials", "3",
            "--synthetic", "lowrank:30,12,2,0.1")
    _, rep_a = run_cli(capsys, *argv, "--seed", "5")
    _, rep_b = run_cli(capsys, *argv, "--seed", "5")
    _, rep_c = run_cli(capsys, *argv, "--seed", "6")
    assert rep_a["determinism_hash"] == rep_b["determinism_hash"]
    assert rep_a["determinism_hash"] != rep_c["determinism_hash"]
    # wall time may differ between the two runs; hashed content may not
    assert recomputed_hash(rep_a) == rep_a["determinism_hash"]


def test_hash_ignores_timing_fields(capsys):
    _, rep = run_cli(capsys, "coreset", "--method", "subspace", "--eps", "0.5",
                     "-r", "500", "--trials", "2",
                     "--synthetic", "lowrank:1500,4,4,0.1", "--seed", "3")
    assert rep["wall_seconds"] > 0
    tampered = json.loads(json.dumps(rep))
    tampered["wall_seconds"] = 123.0
    for t in tampered["results"]["per_trial"]:
        t["full_solve_seconds"] = 9.9
    assert recomputed_hash(tampered) == rep["determinism_hash"]
    tampered["results"]["mean_ratio"] = 0.0
    assert recomputed_hash(tampered) != rep["determinism_hash"]


def test_seed_defaults_to_0_whatever_the_environment(capsys, monkeypatch):
    # MATSKETCH_SEED was read by every parser, so a malformed value made
    # even --version and the seedless lowerbound exit 2
    monkeypatch.setenv("MATSKETCH_SEED", "not-an-int")
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    capsys.readouterr()
    code, _ = run_cli(capsys, "lowerbound", "-n", "5", "--alpha", "1.0",
                      "-r", "2")
    assert code == 0
    code, rep = run_cli(capsys, "cssp", "-k", "2", "--trials", "2",
                        "--synthetic", "lowrank:30,12,2,0.1")
    assert code == 0 and rep["input"]["seed"] == 0


# ---------------------------------------------------------------------------
# files in, reports out


def test_file_input_and_report_output(capsys, tmp_path):
    A = lowrank_plus_noise(40, 25, 3, 0.05, seed=11)
    mat = tmp_path / "a.mtx"
    save_matrix(mat, A)
    out = tmp_path / "report.json"
    code = main(["id", "-k", "3", "--in", str(mat), "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    rep = json.loads(out.read_text())
    assert rep["input"]["source"] == f"file:{mat}"
    assert rep["input"]["rows"] == 40 and rep["input"]["cols"] == 25
    assert rep["results"]["identity_block_exact"] is True


def test_file_and_synthetic_are_exclusive(capsys, tmp_path):
    mat = tmp_path / "a.csv"
    save_matrix(mat, np.eye(8), format="csv")
    for argv in (["cssp", "-k", "2"],
                 ["coreset", "--method", "subspace", "--eps", "0.5", "-r", "4"]):
        code, err = run_cli(capsys, *argv, "--in", str(mat),
                            "--synthetic", "lowrank:8,8,2,0.1")
        assert code == 2, argv
        assert "not both" in err["error"]["message"]


_SCALE_CASES = {
    "cx-frobenius-fast": ["cx", "frobenius", "--mode", "fast", "-k", "3",
                          "-r", "10", "--trials", "2"],
    "cx-spectral": ["cx", "spectral", "-k", "3", "-r", "10"],
    "cssp-spectral": ["cssp", "--mode", "spectral", "-k", "3", "--trials", "2"],
    "id": ["id", "-k", "3"],
    "sketch-svd-frobenius": ["sketch-svd", "--mode", "frobenius", "-k", "3",
                             "--trials", "2"],
    "sketch-svd-spectral": ["sketch-svd", "--mode", "spectral", "-k", "3",
                            "--trials", "2"],
}


def _assert_scaled(got, want, j, scaled, key=None):
    """Fields named in `scaled` are 2^j times `want`; all else is equal."""
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for k in want:
            _assert_scaled(got[k], want[k], j, scaled, k)
    elif isinstance(want, list):
        assert len(got) == len(want), key
        for g, w in zip(got, want):
            _assert_scaled(g, w, j, scaled, key)
    elif key in scaled:
        assert got == pytest.approx(math.ldexp(want, j), rel=1e-12), key
    else:
        assert got == want, key


@pytest.mark.parametrize("j", [-600, -100, 600])
@pytest.mark.parametrize("name", list(_SCALE_CASES))
def test_report_does_not_change_when_input_is_scaled(capsys, tmp_path,
                                                      name, j):
    # at 2^-100 every ratio used to read 1.0 against an absolute floor; at
    # 2^+-600 norms overflowed or underflowed and the power sketch raised
    A = lowrank_plus_noise(60, 40, 3, 0.1, seed=7)
    results = []
    for scale in (0, j):
        path = tmp_path / f"a{scale}.mtx"
        save_matrix(path, np.ldexp(A, scale))
        code, rep = run_cli(capsys, *_SCALE_CASES[name], "--in", str(path),
                            "--seed", "3")
        assert code == 0, rep
        results.append(rep["results"])
    want, got = results
    # a sketch-svd bound_value is a factor on the ratio, not a norm
    scaled = {"error", "mean_error", "spectral_error", "baseline"}
    if not name.startswith("sketch-svd"):
        scaled.add("bound_value")
    _assert_scaled(got, want, j, scaled)


@pytest.mark.parametrize("j", [-900, 900])
@pytest.mark.parametrize("argv", [["--method", "select", "--c0", "0.02"],
                                  ["--method", "rp", "--c0", "0.5"],
                                  ["--method", "svd"]],
                         ids=["select", "rp", "svd"])
def test_kmeans_report_does_not_change_when_input_is_scaled(capsys, tmp_path,
                                                             argv, j):
    # at 2^900 k-means++ seeding drew from NaN probabilities; at 2^-900
    # the costs underflowed to zero and the ratio read 1.0
    A, _ = blobs(120, 30, 3, 2.0, seed=5)
    results = []
    for scale in (0, j):
        path = tmp_path / f"a{scale}.mtx"
        save_matrix(path, np.ldexp(A, scale))
        code, rep = run_cli(capsys, "kmeans", "-k", "3", "--eps", "0.3", *argv,
                            "--in", str(path), "--seed", "3")
        assert code == 0, rep
        results.append(rep["results"])
    want, got = results
    assert want["ratio"] != 1.0
    for key in ("ratio", "cluster_sizes_full", "cluster_sizes_reduced"):
        assert got[key] == want[key], key


def test_id_and_sketch_svd_baselines_take_no_full_size_svd(capsys,
                                                           monkeypatch):
    shape = (60, 40)
    calls = []
    real = np.linalg.svd

    def counting(a, *args, **kwargs):
        if np.shape(a) == shape:
            calls.append(a)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    for argv in (["id", "-k", "3"],
                 ["sketch-svd", "--mode", "spectral", "-k", "3", "--trials", "2"],
                 ["sketch-svd", "--mode", "frobenius", "-k", "3", "--trials", "2"]):
        code, rep = run_cli(capsys, *argv, "--synthetic", "lowrank:60,40,3,0.1")
        assert code == 0, rep
        assert rep["results"]["baseline"] > 0.0
    assert calls == []


def test_id_baseline_runs_no_dense_eigensolver(capsys, monkeypatch):
    # on a tall, full-rank input the baseline is the certified upper end
    # read from the problem's Gram matrix; the one dsyevr call left is
    # _norms's, measuring the formed A - C X
    import matsketch.cli as cli_module
    from matsketch import linalg

    measuring, dense = [], []
    eigenvalues, norms = linalg._gram_eigenvalues, cli_module._norms

    def counting(*args, **kwargs):
        dense.append(bool(measuring))
        return eigenvalues(*args, **kwargs)

    def measure(M):
        measuring.append(True)
        try:
            return norms(M)
        finally:
            measuring.pop()

    monkeypatch.setattr(linalg, "_gram_eigenvalues", counting)
    monkeypatch.setattr(cli_module, "_norms", measure)
    code, rep = run_cli(capsys, "id", "-k", "3",
                        "--synthetic", "lowrank:60,40,3,0.1")
    assert code == 0, rep
    assert rep["results"]["baseline"] > 0.0
    assert dense == [True]


def test_id_has_no_trials_flag():
    # id is deterministic given --seed; it took --trials and ignored it
    with pytest.raises(SystemExit) as exc:
        main(["id", "-k", "3", "--trials", "5",
              "--synthetic", "lowrank:50,30,3,0.05"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["coreset", "--method", "barrier", "--eps", "0.5",
     "--synthetic", "lowrank:200,3,2,0.1"],
    ["cx", "spectral", "--mode", "deterministic", "-k", "2", "-r", "8",
     "--synthetic", "lowrank:60,40,2,0.05"],
    ["cx", "frobenius", "--mode", "deterministic", "-k", "2", "-r", "8",
     "--synthetic", "lowrank:60,40,2,0.05"],
], ids=lambda argv: "-".join(argv[:2]))
def test_deterministic_runs_refuse_more_than_one_trial(capsys, argv):
    # they ran one trial and reported "trials": 1 whatever --trials said
    code, err = run_cli(capsys, *argv, "--trials", "5")
    assert code == 2
    assert err["error"]["type"] == "ArgumentError"
    assert "runs one trial, got --trials 5" in err["error"]["message"]
    # the refusal comes before the input is read
    code, err = run_cli(capsys, *argv[:-2], "--trials", "5")
    assert code == 2
    assert "runs one trial, got --trials 5" in err["error"]["message"]
    code, rep = run_cli(capsys, *argv, "--trials", "1")
    assert code == 0 and rep["params"]["trials"] == 1


def test_coreset_barrier_r_past_16_m_steps_exits_2(capsys, monkeypatch):
    from matsketch import regression

    def no_walk(*args):
        raise AssertionError("a barrier walk was started")

    monkeypatch.setattr(regression, "_barrier_core", no_walk)
    code, rep = run_cli(capsys, "coreset", "--method", "barrier", "--eps",
                        "0.5", "-r", "641", *_CORESET_INPUT)  # 16 m = 640
    assert code == 2
    assert rep["error"]["type"] == "ArgumentError"


# each run's determinism_hash, the same as when every trial factored A again
_ONE_FACTORIZATION = {
    "cx-frobenius-fast": (
        ["cx", "frobenius", "--mode", "fast", "-k", "3", "-r", "10"],
        "fc1f8100b60d40dbdf7af9ce4570d551a496a797346d451be8304c6f484b23a0"),
    "cx-spectral-fast": (
        ["cx", "spectral", "--mode", "fast", "-k", "3", "-r", "10"],
        "8362f66f9050c2e285f97078debf5b3fafef869276076a5dfdde83f2519cbec6"),
    "cssp-spectral": (
        ["cssp", "--mode", "spectral", "-k", "3"],
        "8746b8f0fac7d3fcf4f05a5a7f7aa73b7fa5f31a24a7e568dea04071e750ad72"),
    "cssp-frobenius": (
        ["cssp", "--mode", "frobenius", "-k", "3"],
        "906862b86e8d42fcff50d8aa41f49975030d4d3b20148d2c2ca15ca27108e651"),
    "cssp-two_stage": (
        ["cssp", "--mode", "two_stage", "-k", "3"],
        "bc7f67c0b2cfffccb89fa9a0e0272d4c61b03ebc829133d017c793ef0a542a94"),
}


@pytest.mark.parametrize("name", list(_ONE_FACTORIZATION))
def test_trial_loops_factor_the_input_once(capsys, monkeypatch, name):
    # one ColumnProblem serves all ten trials: one top-k Lanczos, which asks
    # for the largest magnitudes (a certificate's asks for the largest
    # algebraic eigenvalue, which="LA")
    import scipy.sparse.linalg as sla

    argv, digest = _ONE_FACTORIZATION[name]
    real, top_k = sla.eigsh, []

    def counting(A, *args, **kwargs):
        top_k.append(kwargs.get("which", "LM") == "LM")
        return real(A, *args, **kwargs)

    monkeypatch.setattr(sla, "eigsh", counting)
    code, rep = run_cli(capsys, *argv, "--trials", "10", "--synthetic",
                        "lowrank:60,40,3,0.1", "--seed", "4")
    assert code == 0, rep
    assert sum(top_k) == 1
    assert rep["determinism_hash"] == digest


# one run of each runner not pinned above: its params block and its
# determinism_hash, which is the same at 1 and 2 BLAS threads
_PINNED = {
    "id": (
        ["id", "-k", "3", "--synthetic", "lowrank:50,30,3,0.05"],
        {"k": 3, "trials": 1},
        "2dfc23162eae77fff235ffedc918f9042c718e3585ee56b26d9811efec0d604b"),
    "coreset-barrier": (
        ["coreset", "--method", "barrier", "--eps", "0.5",
         "--synthetic", "lowrank:400,4,3,0.1"],
        {"method": "barrier", "eps": 0.5, "delta": 0.1, "r": None,
         "constraint": "none", "trials": 1},
        "66eb809ee9454f6bf6898a80de1b99da915a62702f826fc2f6d2629e88b3d45e"),
    "coreset-subspace": (
        ["coreset", "--method", "subspace", "--eps", "0.5", "-r", "200",
         "--trials", "3", "--synthetic", "lowrank:400,4,3,0.1"],
        None,
        "8eeaee6d4b051b4c57d417afd9df641eb8228154d249fee40d40392553a7b969"),
    "coreset-srht-file": (
        ["coreset", "--method", "srht", "--mode", "nonnegative", "--eps",
         "0.5", "-r", "200", "--trials", "3", "--in", "ab.mtx"],
        {"method": "srht", "eps": 0.5, "delta": 0.1, "r": 200,
         "constraint": "nonnegative", "trials": 3},
        "8e86781e65441b999038b2cd74b1ddd1f0143a4b97cae14b2b30f691b0d3d228"),
    "kmeans-svd": (
        ["kmeans", "-k", "3", "--method", "svd",
         "--synthetic", "blobs:300,50,3,6"],
        None,
        "afea216a43d828c78a9814bd056c93e28f3b6571e39a15c526b3c7381326a2dc"),
    "sketch-svd-spectral": (
        ["sketch-svd", "-k", "3", "--mode", "spectral", "--trials", "4",
         "--synthetic", "lowrank:80,60,3,0.2"],
        None,
        "2c7aafd46a5c5b93810846493b1de0e2a4756598bc1bd2dd5fb89167de215aaa"),
    "lowerbound": (
        ["lowerbound", "-n", "6", "--alpha", "0.5", "-r", "3"],
        {"n": 6, "alpha": 0.5, "r": 3, "trials": 1},
        "13b2b8b0f31fda7072d4a741ead1515fde61acadf99b3737782be195e1e1f018"),
    "cx-deterministic": (
        ["cx", "spectral", "--mode", "deterministic", "-k", "2", "-r", "8",
         "--synthetic", "lowrank:60,40,2,0.05"],
        None,
        "0978821c25ae68306e870c7f6e906309241dbe2347a9058c0b2e9240bfa0229b"),
}


@pytest.mark.parametrize("name", list(_PINNED))
def test_each_runner_report_is_pinned(capsys, monkeypatch, tmp_path, name):
    argv, params, digest = _PINNED[name]
    g = rand(5)
    A = g.normal(size=(400, 4))
    b = np.abs(A @ g.normal(size=4) + 0.1 * g.normal(size=400))
    save_matrix(tmp_path / "ab.mtx", np.column_stack([A, b]))
    monkeypatch.chdir(tmp_path)  # the source is "file:ab.mtx" in any tmp_path
    if argv[0] != "lowerbound":
        argv = [*argv, "--seed", "3"]
    code, rep = run_cli(capsys, *argv)
    assert code == 0, rep
    if params is not None:
        assert rep["params"] == params
    assert rep["determinism_hash"] == digest


@pytest.mark.parametrize("eps", ["nan", "-0.5", "0"])
def test_coreset_names_a_nonpositive_eps(capsys, eps):
    # nan was reported as "eps=nan is too small"
    code, rep = run_cli(capsys, "coreset", "--method", "barrier", "--eps", eps,
                        "--synthetic", "lowrank:40,3,2,0.1")
    assert code == 2, rep
    assert rep["error"] == {"type": "ArgumentError",
                            "message": f"need eps > 0, got {float(eps)}"}


_CORESET_INPUT = ["--synthetic", "lowrank:40,3,2,0.1"]
_KMEANS_INPUT = ["--synthetic", "blobs:60,10,3,6"]


@pytest.mark.parametrize("argv, code", [
    (["lowerbound", "-n", "6", "--alpha", "1e200", "-r", "2"], 2),
    (["lowerbound", "-n", "6", "--alpha", "inf", "-r", "2"], 2),
    (["sketch-svd", "-k", "2", "--eps", "1e-300",
      "--synthetic", "lowrank:20,10,2,0.1"], 0),
    (["kmeans", "-k", "3", "--method", "svd", "--eps", "1e-300",
      *_KMEANS_INPUT], 0),
    (["coreset", "--method", "barrier", "--eps", "1e-300", *_CORESET_INPUT], 2),
    (["coreset", "--method", "barrier", "--eps", "1e-160", *_CORESET_INPUT], 2),
    (["coreset", "--method", "subspace", "--eps", "1e-300",
      *_CORESET_INPUT], 2),
    (["coreset", "--method", "srht", "--eps", "1e-300", *_CORESET_INPUT], 2),
    (["coreset", "--method", "srht", "--eps", "1e-160", *_CORESET_INPUT], 2),
    (["coreset", "--method", "barrier", "--eps", "1e-300", "-r", "20",
      *_CORESET_INPUT], 0),
    (["coreset", "--method", "srht", "--eps", "1e-160", "-r", "20",
      *_CORESET_INPUT], 0),
    (["kmeans", "-k", "3", "--method", "rp", "--eps", "1e-300",
      *_KMEANS_INPUT], 2),
    (["kmeans", "-k", "3", "--method", "select", "--eps", "1e-300",
      *_KMEANS_INPUT], 2),
    (["kmeans", "-k", "3", "--method", "select", "--eps", "1e-160",
      *_KMEANS_INPUT], 2),
], ids=["alpha-1e200", "alpha-inf", "sketch-svd-eps", "kmeans-svd-eps",
        "coreset-barrier-eps", "coreset-barrier-eps-overflow",
        "coreset-subspace-eps", "coreset-srht-eps", "coreset-srht-eps-overflow",
        "coreset-barrier-eps-r", "coreset-srht-eps-overflow-r",
        "kmeans-rp-eps", "kmeans-select-eps", "kmeans-select-eps-overflow"])
def test_extreme_arguments_end_in_a_report(capsys, argv, code):
    # each of these ended in a traceback (OverflowError, ZeroDivisionError,
    # "Maximum allowed dimension exceeded") or blamed A for a bad alpha
    got, rep = run_cli(capsys, *argv)
    assert got == code, rep
    if code:
        assert rep["error"]["type"] == "ArgumentError"
        named = "alpha" if argv[0] == "lowerbound" else "eps"
        assert named in rep["error"]["message"]
    elif "-r" in argv:
        # -r replaces the formula count, which then has no finite value
        assert rep["results"]["r_formula"] is None


def test_exactly_rank_k_input_reports(capsys, tmp_path):
    # zero optimum and a rounding-noise error: every report, squared or
    # not, reads the ratio of two zeros as 1.0
    g = rand(4)
    path = tmp_path / "rank3.mtx"
    save_matrix(path, g.normal(size=(40, 3)) @ g.normal(size=(3, 30)))
    runs = [(["cx", "frobenius", "-k", "3", "-r", "10"], "mean_ratio", 1.0),
            (["id", "-k", "3"], "ratio", 1.0),
            (["sketch-svd", "-k", "3", "--trials", "2"], "mean_stat", 1.0),
            (["sketch-svd", "-k", "3", "--mode", "spectral", "--trials", "2"],
             "mean_stat", 1.0)]
    for argv, field, want in runs:
        code, rep = run_cli(capsys, *argv, "--in", str(path))
        assert code == 0
        assert rep["results"]["baseline"] == 0.0
        assert rep["results"][field] == want, argv
        assert rep["results"].get("satisfied", True) is True, argv


# ---------------------------------------------------------------------------
# exit codes and error reports


# a tiny input for each subcommand whose parser offers choices
_CHOICE_INPUTS = {
    "cx": ["-k", "2", "-r", "24", "--synthetic", "lowrank:60,30,2,0.1"],
    "cssp": ["-k", "2", "--synthetic", "lowrank:40,12,2,0.1"],
    "coreset": ["--eps", "0.3", "-r", "100",
                "--synthetic", "lowrank:300,3,2,0.1"],
    "kmeans": ["-k", "3", "--c0", "0.04", "--synthetic", "blobs:60,40,3,6"],
    "sketch-svd": ["-k", "2", "--synthetic", "lowrank:40,30,2,0.1"],
}


def _offered_choices():
    """Every combination of choices each parser offers, as argv heads."""
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    for name in _CHOICE_INPUTS:
        flags = [a for a in sub.choices[name]._actions
                 if a.choices and a.dest != "format"]
        for values in itertools.product(*(a.choices for a in flags)):
            yield [name, *itertools.chain.from_iterable(
                [*a.option_strings[:1], v] for a, v in zip(flags, values))]


@pytest.mark.parametrize("argv", list(_offered_choices()),
                         ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_every_offered_choice_runs(capsys, argv):
    inputs = _CHOICE_INPUTS[argv[0]]
    code, rep = run_cli(capsys, *argv, *inputs)
    if argv[:4] != ["cx", "spectral", "--mode", "relative"]:
        assert code == 0, rep
        return
    # relative is Frobenius-only, refused before the input is read
    for args in (inputs, inputs[:-2]):
        code, err = run_cli(capsys, *argv, *args)
        assert code == 2
        assert err["error"]["message"].startswith(
            "--mode relative is Frobenius-only")


def test_exit_2_on_missing_input(capsys):
    code, err = run_cli(capsys, "cx", "frobenius", "-k", "2", "-r", "8")
    assert code == 2
    assert err["error"]["type"] == "ArgumentError"
    assert err["exit_code"] == 2


def test_exit_2_on_bad_precondition(capsys):
    code, err = run_cli(capsys, "cx", "frobenius", "-k", "5", "-r", "3",
                        "--synthetic", "lowrank:20,10,2,0.1")
    assert code == 2
    assert err["error"]["type"] == "ArgumentError"


@pytest.mark.parametrize("trials", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["cx", "frobenius", "--mode", "relative", "-k", "2", "-r", "8"],
    ["cssp", "-k", "2"],
    ["coreset", "--method", "subspace", "--eps", "0.3", "-r", "40"],
    ["kmeans", "-k", "2"],
    ["sketch-svd", "-k", "2"],
], ids=lambda argv: argv[0])
def test_exit_2_on_fewer_than_one_trial(capsys, argv, trials):
    code, err = run_cli(capsys, *argv, "--trials", trials,
                        "--synthetic", "lowrank:60,8,2,0.1")
    assert code == 2
    assert err["error"]["type"] == "ArgumentError"
    assert err["error"]["message"] == f"need --trials >= 1, got {trials}"


def test_exit_2_on_bad_synthetic_spec(capsys):
    code, err = run_cli(capsys, "cssp", "-k", "2", "--synthetic", "lowrank:5")
    assert code == 2
    assert "synthetic" in err["error"]["message"]


def test_exit_4_on_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.mtx"
    bad.write_text("%%MatrixMarket matrix array real general\n2 2\n1\nx\n")
    code, err = run_cli(capsys, "cssp", "-k", "2", "--in", str(bad))
    assert code == 4
    assert err["error"]["type"] == "DataFormatError"
    assert err["exit_code"] == 4


@pytest.mark.parametrize("name, body, line", [
    ("a.mtx", b"%%MatrixMarket matrix array real general\n2 2\n1\n\xff\n3\n4\n", 4),
    ("m.csv", b"1,2\n3,\xe9\n", 2),
])
def test_exit_4_on_undecodable_file(capsys, tmp_path, name, body, line):
    bad = tmp_path / name
    bad.write_bytes(body)
    code = main(["cx", "frobenius", "-k", "1", "-r", "2", "--in", str(bad)])
    out, stderr = capsys.readouterr()
    assert code == 4
    assert stderr == ""  # a JSON report, no traceback
    err = json.loads(out)
    assert err["error"]["type"] == "DataFormatError"
    assert err["error"]["message"].startswith(f"{bad}:{line}: ")
    assert err["exit_code"] == 4


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_exit_4_on_unwritable_out(capsys, tmp_path, where):
    # the write raised FileNotFoundError / IsADirectoryError out of main
    out = tmp_path / "missing" / "r.json" if where == "missing-dir" else tmp_path
    code = main(["lowerbound", "-n", "5", "--alpha", "1.0", "-r", "2",
                 "--out", str(out)])
    stdout, stderr = capsys.readouterr()
    assert code == 4
    assert stderr == ""  # a JSON report, no traceback
    err = json.loads(stdout)
    assert err["error"]["type"] == "DataFormatError"
    assert err["error"]["message"].startswith(f"cannot write {out}: ")
    assert err["exit_code"] == 4


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "matsketch.cli",
                           "lowerbound", "-n", "4", "--alpha", "0.5",
                           "-r", "8"],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 2  # r must be < n; error surfaces as exit code
    err = json.loads(proc.stdout)  # a report, not an argparse usage error
    assert err["error"]["type"] == "ArgumentError"
    assert err["exit_code"] == 2
    assert "Traceback" not in proc.stderr

    # the script pyproject.toml declares, run as an installer's wrapper runs it
    toml = tomllib or pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        scripts = toml.load(fh)["project"]["scripts"]
    assert scripts == {"matsketch": "matsketch.cli:main"}
    module, func = scripts["matsketch"].split(":")
    wrapper = (f"import sys\nfrom {module} import {func}\n"
               f"sys.argv[0] = 'matsketch'\nsys.exit({func}())")
    proc = subprocess.run([sys.executable, "-c", wrapper, "--version"],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0
    assert proc.stdout == f"matsketch {matsketch.__version__}\n"


def test_cli_import_leaves_slow_scipy_modules_unloaded():
    # scipy.sparse.linalg (ARPACK) and scipy.optimize (NNLS) are imported on
    # first use; an eager scipy.optimize import added ~0.3 s to every start
    probe = ("import sys, matsketch.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[:2] in (['scipy', 'sparse'], "
             "['scipy', 'optimize'])))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.skipif(shutil.which("matsketch") is None,
                    reason="matsketch console script not installed on PATH")
def test_installed_console_script():
    proc = subprocess.run(["matsketch", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == f"matsketch {matsketch.__version__}\n"


# ---------------------------------------------------------------------------
# bench suite


def test_bench_suite_schema_and_determinism(capsys):
    code, suite = run_cli(capsys, "bench-suite", "--seed", "0")
    assert code == 0
    assert sorted(suite) == ["determinism_hash", "seed", "suite",
                             "toolkit_version"]
    assert len(suite["suite"]) == 15
    names = [e["experiment"] for e in suite["suite"]]
    assert names == sorted(names)
    for entry in suite["suite"]:
        assert recomputed_hash(entry) == entry["determinism_hash"]
        sat = entry["results"].get("satisfied")
        frac = entry["results"].get("success_fraction")
        if sat is not None:
            assert sat is True, entry["experiment"]
        if frac is not None:
            assert frac >= 0.8, entry["experiment"]
    assert recomputed_hash(suite) == suite["determinism_hash"]

    code, again = run_cli(capsys, "bench-suite", "--seed", "0")
    assert again["determinism_hash"] == suite["determinism_hash"]

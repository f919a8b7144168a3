import itertools
import json

import numpy as np
import pytest

from dmresponse import cli, models, response, sp2, sparse
from dmresponse.cli import main
from dmresponse.mmio import write_matrix_market
from dmresponse.models import chain_hamiltonian, gapped_random_hamiltonian, overlap_chain_matrices
from dmresponse.sparse import sparsify

from conftest import random_symmetric


def forbid_dense_inputs(monkeypatch):
    """Fail on any N x N array of a sparse chain run's inputs: a dense model,
    a dense-to-sparse conversion or a densified sparse matrix."""

    def dense(*args, **kwargs):
        raise AssertionError("a sparse chain run builds its inputs from their diagonals")

    for name in ("generate_model", "chain_hamiltonian"):
        monkeypatch.setattr(models, name, dense)
    monkeypatch.setattr(sparse, "sparsify", dense)
    monkeypatch.setattr(sparse.SparseMatrix, "to_dense", dense)


def run_cli(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    report = json.loads(out.read_text())
    return code, report


def strip_timing(report):
    r = dict(report)
    r.pop("timing", None)
    return r


class TestGroundState:
    def test_chain_two_sites(self, tmp_path):
        code, rep = run_cli(
            ["ground-state", "--kind", "chain", "--size", "2", "--nocc", "1"], tmp_path
        )
        assert code == 0
        assert rep["error"] is None
        assert abs(rep["results"]["trace_d0"] - 1.0) <= 1e-10
        assert "a0" in rep["results"]

    def test_from_file(self, tmp_path, rng):
        h = gapped_random_hamiltonian(16, 1.0, 8, seed=1)
        write_matrix_market(tmp_path / "h.mtx", h)
        a = random_symmetric(rng, 16)
        write_matrix_market(tmp_path / "a.mtx", a)
        code, rep = run_cli(
            [
                "ground-state",
                "--h0",
                str(tmp_path / "h.mtx"),
                "--obs",
                str(tmp_path / "a.mtx"),
                "--nocc",
                "8",
            ],
            tmp_path,
        )
        assert code == 0
        assert rep["results"]["route"] == "dense"

    def test_sparse_route(self, tmp_path):
        code, rep = run_cli(
            [
                "ground-state",
                "--kind",
                "chain",
                "--size",
                "200",
                "--tau",
                "1e-6",
                "--nocc",
                "100",
            ],
            tmp_path,
        )
        assert code == 0
        assert rep["results"]["route"] == "sparse"
        assert rep["results"]["nnz_d0"] > 0

    @pytest.mark.parametrize(
        "route_args", [[], ["--beta-t", "20"], ["--kernel", "hubbard:0.1"]]
    )
    def test_overlap_matches_respond(self, tmp_path, route_args):
        # every ground-state route must honour the overlap the way respond does
        model = ["--kind", "overlap_chain", "--size", "40"] + route_args
        code, gs = run_cli(["ground-state"] + model, tmp_path, "gs.json")
        assert code == 0
        _, resp = run_cli(["respond", "--mode", "perturb"] + model, tmp_path, "resp.json")
        a0_gs, a0_resp = gs["results"]["a0"], resp["results"]["a0"]
        assert abs(a0_gs - a0_resp) <= 1e-10 * abs(a0_resp)
        assert abs(gs["results"]["trace_d0"] - 20.0) <= 1e-8

    @pytest.mark.parametrize("precision, per_step", [("f32", 1), ("split16", 2)])
    def test_low_precision_ground_state_skips_derivative_lane(self, tmp_path, precision, per_step):
        argv = ["ground-state", "--kind", "gapped_random", "--size", "24", "--gap", "1.6"]
        code, rep = run_cli(argv + ["--precision", precision], tmp_path)
        assert code == 0
        # squares only: no pair update is paid for a response never reported
        assert rep["results"]["mult_count"] == per_step * rep["results"]["expansion"]["m_steps"]


class TestRespond:
    def test_worked_2x2_case(self, tmp_path):
        h0 = np.diag([0.0, 2.0])
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        write_matrix_market(tmp_path / "h0.mtx", h0)
        write_matrix_market(tmp_path / "w.mtx", w)
        code, rep = run_cli(
            [
                "respond",
                "--h0",
                str(tmp_path / "h0.mtx"),
                "--h1",
                str(tmp_path / "w.mtx"),
                "--obs",
                str(tmp_path / "w.mtx"),
                "--nocc",
                "1",
                "--mode",
                "both",
            ],
            tmp_path,
        )
        assert code == 0
        vals = rep["results"]["values"]
        assert abs(vals["a1_direct"] + 1.0) <= 1e-10
        assert abs(vals["a1_dual_forward"] + 1.0) <= 1e-10
        assert abs(vals["a1_dual_backward"] + 1.0) <= 1e-10
        assert max(rep["results"]["duality_deviations"].values()) <= 1e-10

    @pytest.mark.parametrize("subcommand", ["ground-state", "respond"])
    def test_tau_coordinate_file_matches_array_file(self, tmp_path, subcommand):
        # a coordinate h0 is re-thresholded in sparse storage; the same matrix
        # from a dense array file goes through sparsify, the same drop rule
        n = 60
        h = chain_hamiltonian(n, 1.0)
        idx = np.arange(n - 3)
        h[idx, idx + 3] = h[idx + 3, idx] = 1e-8  # below tau: dropped either way
        write_matrix_market(tmp_path / "h_coo.mtx", sparsify(h, 0.0))
        write_matrix_market(tmp_path / "h_arr.mtx", h)
        reports = []
        for name in ("h_coo.mtx", "h_arr.mtx"):
            args = [subcommand, "--h0", str(tmp_path / name), "--tau", "1e-6", "--seed", "3"]
            code, rep = run_cli(args, tmp_path, name + ".json")
            assert code == 0 and rep["results"]["route"] == "sparse"
            reports.append(rep)
        assert reports[0]["results"] == reports[1]["results"]

    @pytest.mark.parametrize("subcommand", ["ground-state", "respond"])
    def test_tau_coordinate_inputs_stay_sparse(self, tmp_path, monkeypatch, subcommand):
        # coordinate --h0/--obs/--h1 files are re-thresholded in sparse
        # storage, never densified and re-sparsified, and the report equals
        # the one built from the same matrices in dense array files
        n = 60
        rng = np.random.default_rng(5)
        idx = np.arange(n - 3)
        h = chain_hamiltonian(n, 1.0)
        a = np.diag(rng.uniform(-1.0, 1.0, n))
        h1 = np.zeros((n, n))
        h1[idx, idx + 1] = h1[idx + 1, idx] = rng.uniform(-1.0, 1.0, n - 3)
        for m in (h, a, h1):
            m[idx, idx + 3] = m[idx + 3, idx] = 1e-8  # below tau: dropped either way
        for tag, m in (("h0", h), ("obs", a), ("h1", h1)):
            write_matrix_market(tmp_path / f"{tag}_coo.mtx", sparsify(m, 0.0))
            write_matrix_market(tmp_path / f"{tag}_arr.mtx", m)
        calls = []
        real_sparsify = sparse.sparsify

        def spy(x, tau):
            calls.append(type(x).__name__)
            return real_sparsify(x, tau)

        monkeypatch.setattr(sparse, "sparsify", spy)
        reports = []
        for kind in ("coo", "arr"):
            calls.clear()
            args = [subcommand, "--tau", "1e-6"]
            # ground-state computes no response, so it refuses --h1
            for tag in ("h0", "obs", "h1")[: 3 if subcommand == "respond" else 2]:
                args += [f"--{tag}", str(tmp_path / f"{tag}_{kind}.mtx")]
            code, rep = run_cli(args, tmp_path, kind + ".json")
            assert code == 0 and rep["results"]["route"] == "sparse"
            reports.append(rep)
            if kind == "coo":
                assert calls == []
        assert calls and set(calls) == {"ndarray"}
        assert reports[0]["results"] == reports[1]["results"]

    @pytest.mark.parametrize("mode", ["suscept-fwd", "both"])
    def test_tau_chain_inputs_stay_sparse(self, tmp_path, monkeypatch, mode):
        # the chain and the filled-in observable (a diagonal) and perturbation
        # (a bond matrix) are built in sparse storage, so chi stays as sparse
        # as D0
        forbid_dense_inputs(monkeypatch)
        argv = ["respond", "--kind", "chain", "--size", "200", "--tau", "1e-6", "--mode", mode]
        code, rep = run_cli(argv, tmp_path)
        assert code == 0 and rep["error"] is None
        res = rep["results"]
        assert res["route"] == "sparse" and res["tau"] == 1e-6
        assert 0 < res["nnz_chi"] <= 2 * res["nnz_d0"]
        assert res["max_nnz_per_row_d0"] < 200
        # the routes agree to the drop tolerance
        assert all(d <= 1e-6 for d in res["duality_deviations"].values())

    def test_tau_chain_matches_sparsified_dense_chain(self, tmp_path):
        # a chain built from its diagonals is the sparsified dense chain, bit for bit
        argv = ["ground-state", "--tau", "1e-6", "--nocc", "30"]
        write_matrix_market(tmp_path / "h.mtx", chain_hamiltonian(60, 1.0))
        code, from_file = run_cli(argv + ["--h0", str(tmp_path / "h.mtx")], tmp_path, "f.json")
        assert code == 0
        code, generated = run_cli(argv + ["--kind", "chain", "--size", "60"], tmp_path, "g.json")
        assert code == 0
        assert generated["results"] == from_file["results"]

    def test_gapped_random_gap_sits_at_nocc(self, tmp_path):
        # --nocc places the generated gap, so a run away from half filling converges
        argv = ["respond", "--kind", "gapped_random", "--size", "100", "--gap", "2.0", "--seed", "7"]
        cfg = cli.RunConfig("respond", kind="gapped_random", size=100, gap=2.0, seed=7, n_occ=40)
        eps = np.linalg.eigvalsh(cli._load_or_generate(cfg)[0])
        assert eps[40] - eps[39] >= 2.0
        code, rep = run_cli(argv + ["--nocc", "40"], tmp_path, "nocc40.json")
        assert code == 0 and rep["error"] is None
        assert rep["results"]["n_occ"] == 40
        assert all(d <= 1e-9 for d in rep["results"]["duality_deviations"].values())
        # the reduced-precision runs converge there too, within criterion 7's
        # bounds of the float64 route
        for precision, bound in (("f32", 1e-4), ("split16", 0.05)):
            low_argv = argv + ["--nocc", "40", "--mode", "both", "--precision", precision]
            code, low = run_cli(low_argv, tmp_path, f"{precision}.json")
            assert code == 0 and low["error"] is None
            assert all(e <= bound for e in low["results"]["relative_error_vs_f64"].values())
        # --nocc at half filling keeps the model of a run without --nocc
        _, default = run_cli(argv, tmp_path, "default.json")
        _, half = run_cli(argv + ["--nocc", "50"], tmp_path, "half.json")
        assert half["results"] == default["results"]

    def test_backward_stored_floats_only_on_dense_route(self, tmp_path):
        # sparse iterates store nnz entries, not N^2, so the sparse route
        # reports no N^2 count
        args = ["respond", "--kind", "chain", "--size", "40", "--mode", "suscept-bwd"]
        _, dense = run_cli(args, tmp_path, "dense.json")
        _, sparse_rep = run_cli(args + ["--tau", "1e-6"], tmp_path, "sparse.json")
        assert dense["results"]["route"] == "dense"
        steps = dense["results"]["expansion"]["m_steps"]
        assert dense["results"]["backward_stored_floats"] == steps * 40 * 40
        assert sparse_rep["results"]["route"] == "sparse"
        assert "backward_stored_floats" not in sparse_rep["results"]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--kind", "gapped_random", "--size", "40", "--seed", "7"],
            ["--kind", "overlap_chain", "--size", "40"],
            ["--kind", "chain", "--size", "200", "--tau", "1e-6"],
            ["--kind", "gapped_random", "--size", "30", "--kernel", "hubbard:1"],
            ["--kind", "gapped_random", "--size", "30", "--kernel", "hubbard:1", "--beta-t", "20"],
            ["--kind", "gapped_random", "--size", "30", "--kernel", "bilinear:0.3"],
            ["--kind", "gapped_random", "--size", "30", "--beta-t", "20"],
            ["--kind", "gapped_random", "--size", "64", "--gap", "1.6", "--precision", "f32"],
            ["--kind", "gapped_random", "--size", "64", "--gap", "1.6", "--precision", "split16"],
        ],
        ids=[
            "dense",
            "dense_orthogonalized",
            "sparse",
            "scf",
            "scf_finite_t",
            "scf_bilinear",
            "thermal",
            "f32",
            "split16",
        ],
    )
    def test_mode_both_values_equal_separate_modes(self, tmp_path, flags):
        # --mode both serves its forward seeds from the backward route's
        # stored expansion where there is one; each value, and each entry
        # that belongs to it, must equal that of its mode run alone
        modes = {
            "a1_direct": "perturb",
            "a1_dual_forward": "suscept-fwd",
            "a1_dual_backward": "suscept-bwd",
        }
        per_value = ("response_iterations", "f64_reference", "relative_error_vs_f64")
        _, both = run_cli(["respond", *flags, "--mode", "both"], tmp_path, "both.json")
        results = both["results"]
        assert len(results["values"]) == (3 if results["route"] in cli.BACKWARD else 2)
        for key, value in results["values"].items():
            argv = ["respond", *flags, "--mode", modes[key]]
            _, alone = run_cli(argv, tmp_path, f"{key}.json")
            assert alone["error"] is None
            assert alone["results"]["values"] == {key: value}
            for section in per_value:
                if section in results:
                    entries = {k: v for k, v in results[section].items() if k.removesuffix("_f64") == key}
                    assert entries and alone["results"][section] == entries
            for section in ("a0", "expansion"):
                if section in results:
                    assert alone["results"][section] == results[section]
            if "mu1" in results:
                # the chemical-potential response to H1, which only perturb solves for
                assert results["mu1"] is not None
                assert alone["results"]["mu1"] == (results["mu1"] if key == "a1_direct" else None)

    @pytest.mark.parametrize(
        "mode, stored",
        [("perturb", [False]), ("suscept-fwd", [False]), ("suscept-bwd", [True]), ("both", [True])],
    )
    def test_one_expansion_serves_every_mode(self, tmp_path, monkeypatch, mode, stored):
        # each entry is one SP2 run and whether it stored its iterates
        runs = []
        real = response._expand

        def spy(*args, store=False, **kwargs):
            runs.append(store)
            return real(*args, store=store, **kwargs)

        monkeypatch.setattr(response, "_expand", spy)
        argv = ["respond", "--kind", "gapped_random", "--size", "20", "--mode", mode]
        code, _ = run_cli(argv, tmp_path)
        assert code == 0 and runs == stored

    # the overflowing kernel product is the point of the test; it must raise
    # the named error alone, with no numpy warning before it
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("temperature", [[], ["--beta-t", "20"]], ids=["zero_t", "finite_t"])
    def test_nonfinite_h_eff_names_kernel_and_sweep(self, tmp_path, temperature):
        # G(D) overflows in the second sweep, once D is nonzero; the error
        # must name the kernel and the sweep, not an inner route's symptom
        argv = ["respond", "--kind", "gapped_random", "--size", "8", "--kernel", "bilinear:1e200"]
        code, rep = run_cli([*argv, *temperature, "--mode", "both"], tmp_path)
        assert code == 1
        assert rep["error"]["type"] == "ValueError"
        assert "kernel 'bilinear'" in rep["error"]["message"]
        assert "SCF sweep 2" in rep["error"]["message"]

    def test_determinism_modulo_timing(self, tmp_path):
        args = [
            "respond",
            "--kind",
            "gapped_random",
            "--size",
            "20",
            "--seed",
            "11",
            "--mode",
            "both",
        ]
        _, rep1 = run_cli(args, tmp_path, "r.json")
        _, rep2 = run_cli(args, tmp_path, "r.json")
        assert strip_timing(rep1) == strip_timing(rep2)

    def test_scf_and_thermal_routes(self, tmp_path):
        code, rep = run_cli(
            [
                "respond",
                "--kind",
                "gapped_random",
                "--size",
                "16",
                "--kernel",
                "hubbard:0.1",
                "--mode",
                "both",
            ],
            tmp_path,
        )
        assert code == 0 and rep["results"]["route"] == "scf"
        code, rep = run_cli(
            [
                "respond",
                "--kind",
                "gapped_random",
                "--size",
                "16",
                "--beta-t",
                "15",
                "--mode",
                "both",
            ],
            tmp_path,
        )
        assert code == 0 and rep["results"]["route"] == "thermal"

    @pytest.mark.parametrize("mode", ["perturb", "suscept-fwd", "both"])
    def test_scf_reports_response_iterations(self, tmp_path, mode):
        argv = ["respond", "--kind", "gapped_random", "--size", "16", "--kernel", "hubbard:3"]
        code, rep = run_cli(argv + ["--mode", mode], tmp_path)
        assert code == 0 and rep["error"] is None
        results = rep["results"]
        assert set(results["response_iterations"]) == set(results["values"])
        assert all(2 <= k <= 30 for k in results["response_iterations"].values())
        assert 1 <= results["scf_iterations"] <= 30
        assert all(d <= 1e-9 for d in results["duality_deviations"].values())

    def test_zero_kernel_is_the_bare_problem(self, tmp_path):
        # the ground state takes three sweeps, each response two derivative
        # applications (see scf.ZeroKernel)
        argv = ["respond", "--kind", "gapped_random", "--size", "16", "--kernel", "zero"]
        code, rep = run_cli(argv, tmp_path)
        assert code == 0 and rep["error"] is None
        results = rep["results"]
        assert results["route"] == "scf" and results["scf_iterations"] == 3
        assert results["response_iterations"] == {"a1_direct": 2, "a1_dual_forward": 2}

    def test_report_without_out_goes_to_stdout(self, tmp_path, capsys):
        argv = ["respond", "--kind", "chain", "--size", "12"]
        assert main(argv) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["error"] is None and printed["inputs"]["out"] is None
        _, written = run_cli(argv, tmp_path)
        assert printed["results"] == written["results"]

    def test_thermal_route_decomposes_once(self, tmp_path, monkeypatch):
        from dmresponse import linalg, scf, thermal

        calls = []
        real = linalg.sym_eigendecompose

        def counting(x):
            calls.append(x.shape)
            return real(x)

        for module in (linalg, thermal, scf):
            monkeypatch.setattr(module, "sym_eigendecompose", counting)
        args = ["respond", "--kind", "gapped_random", "--size", "16", "--beta-t", "15"]
        code, rep = run_cli(args + ["--mode", "both"], tmp_path)
        assert code == 0 and rep["results"]["route"] == "thermal"
        assert len(calls) == 1
        # each single-route mode gives the value the combined run gave
        for mode, key in (("perturb", "a1_direct"), ("suscept-fwd", "a1_dual_forward")):
            _, single = run_cli(args + ["--mode", mode], tmp_path, f"{mode}.json")
            assert single["results"]["values"][key] == rep["results"]["values"][key]
            # mu1 is the chemical-potential response to H1, which only the
            # density-response route computes
            mu1 = rep["results"]["mu1"] if mode == "perturb" else None
            assert single["results"]["mu1"] == mu1
        assert rep["results"]["mu1"] is not None

    def test_split16_reports_mult_count(self, tmp_path):
        code, rep = run_cli(
            [
                "respond",
                "--kind",
                "gapped_random",
                "--size",
                "24",
                "--gap",
                "1.6",
                "--precision",
                "split16",
                "--mode",
                "suscept-fwd",
            ],
            tmp_path,
        )
        assert code == 0
        assert rep["results"]["mult_count"] == 5 * rep["results"]["expansion"]["m_steps"]
        assert rep["results"]["relative_error_vs_f64"]["a1_dual_forward_f64"] < 0.05


class TestErrorPaths:
    @pytest.mark.parametrize(
        "argv",
        [
            ["respond", "--kind", "chain", "--size", "8", "--tau", "1e-6", "--precision", "split16"],
            ["ground-state", "--kind", "overlap_chain", "--size", "8", "--tau", "1e-6"],
            ["ground-state", "--kind", "overlap_chain", "--size", "8", "--precision", "split16"],
            ["ground-state", "--kind", "chain", "--size", "8", "--kernel", "hubbard:0.1", "--beta-t", "0"],
            ["respond", "--kind", "chain", "--size", "8", "--kernel", "hubbard:0.1", "--beta-t", "0"],
            ["respond", "--kind", "chain", "--size", "8", "--kernel", "hubbard:0.1", "--beta-t", "-1"],
            ["ground-state", "--kind", "chain", "--size", "8", "--beta-t", "-1"],
            ["audit", "--kind", "chain", "--size", "8", "--beta-t", "0"],
            ["audit", "--kind", "chain", "--size", "8", "--beta-t", "-1"],
            ["benchmark", "--kind", "overlap_chain", "--sizes", "50"],
            ["benchmark", "--kind", "chain", "--sizes", "50", "--precision", "split16"],
            ["audit", "--kind", "chain", "--size", "8", "--kernel", "hubbard:0.5"],
            ["audit", "--kind", "chain", "--size", "8", "--tau", "1e-6", "--precision", "split16"],
        ],
    )
    def test_mutually_exclusive_flags_exit_2(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_bad_values_exit_2(self, tmp_path):
        # out-of-range values, unreadable inputs and ignored flags are usage
        # errors, not crashes or numerical failures
        write_matrix_market(tmp_path / "s8.mtx", overlap_chain_matrices(8, 1.0, 0.2)[1])
        write_matrix_market(tmp_path / "h1.mtx", np.eye(20))
        gen = ["--kind", "gapped_random", "--size", "20"]
        chain = ["--kind", "chain", "--size", "8"]
        overlap_chain = ["--kind", "overlap_chain", "--size", "8"]
        for argv in [
            ["respond", "--kind", "chain", "--size", "1"],
            ["respond", *chain, "--gap", "0"],
            ["respond", *chain, "--gap", "nan"],
            ["respond", *chain, "--gap", "inf"],
            ["respond", *chain, "--seed=-1"],
            ["respond", *chain, "--kernel", "hubbard:nan"],
            ["respond", *chain, "--kernel", "hubbard:inf"],
            ["respond", *overlap_chain, "--model-overlap", "0.7"],
            ["respond", *overlap_chain, "--model-overlap", "nan"],
            ["respond", *chain, "--model-overlap", "0.3"],
            ["respond", *gen, "--model-overlap", "0.3"],
            ["benchmark", "--sizes", "1"],
            ["benchmark", "--sizes", "0,4"],
            ["benchmark", "--sizes", "100", "--model-overlap", "0.3"],
            ["respond", "--h0", str(tmp_path / "missing.mtx")],
            ["respond", *gen, "--tau", "-1"],
            ["respond", *gen, "--tau", "nan"],
            ["respond", *gen, "--tau", "inf"],
            ["respond", *gen, "--beta-t", "inf"],
            ["respond", *gen, "--beta-t", "nan"],
            ["respond", *gen, "--overlap", str(tmp_path / "s8.mtx")],
            ["ground-state", *gen, "--h1", str(tmp_path / "h1.mtx")],
            ["benchmark", "--kind", "chain", "--size", "50", "--sizes", "50"],
            # gapped_random spectra lie within [-2, 2], so the gap must stay below 4
            ["respond", *gen, "--gap", "4"],
            ["respond", *gen, "--gap", "9"],
            ["ground-state", *gen, "--gap", "4"],
            ["audit", *gen, "--gap", "4"],
            ["benchmark", "--kind", "gapped_random", "--sizes", "20", "--gap", "4"],
            ["benchmark", "--sizes", "a,b"],
            ["respond", "--kind", "chain"],
            ["respond", *chain, "--kernel", "hartree:1"],
            ["respond", *chain, "--kernel", "hubbard:strong"],
        ]:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv

    @pytest.mark.parametrize(
        "argv",
        [
            ["benchmark", "--kind", "chain", "--sizes", "100,20", "--nocc", "50"],
            ["respond", "--kind", "chain", "--size", "20", "--nocc", "20"],
            ["respond", "--kind", "gapped_random", "--size", "20", "--nocc", "0"],
            ["ground-state", "--kind", "gapped_random", "--size", "20", "--nocc", "-3"],
        ],
    )
    def test_bad_nocc_refused_before_any_expansion(self, monkeypatch, argv):
        # --nocc is checked against every generated dimension before any
        # model is built or any expansion runs
        def no_work(*args, **kwargs):
            raise AssertionError("work done for a refused --nocc")

        monkeypatch.setattr(sp2, "_expand", no_work)
        monkeypatch.setattr(response, "_expand", no_work)
        monkeypatch.setattr(models, "generate_model", no_work)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_gapped_random_gap_limit_refused_before_inputs(self, tmp_path, monkeypatch):
        real = cli._load_or_generate
        monkeypatch.setattr(cli, "_load_or_generate", lambda cfg: pytest.fail("inputs assembled"))
        with pytest.raises(SystemExit) as exc:
            main(["respond", "--kind", "gapped_random", "--size", "20", "--gap", "4"])
        assert exc.value.code == 2
        monkeypatch.setattr(cli, "_load_or_generate", real)
        # the limit is the model's bandwidth: just below it, and any chain gap, run
        for argv in (
            ["respond", "--kind", "gapped_random", "--size", "20", "--gap", "3.9"],
            ["respond", "--kind", "chain", "--size", "20", "--gap", "4"],
            ["benchmark", "--kind", "chain", "--sizes", "20", "--gap", "4"],
        ):
            code, rep = run_cli(argv, tmp_path)
            assert code == 0 and rep["error"] is None, argv

    @pytest.mark.parametrize(
        "argv",
        [
            ["respond", "--kind", "chain", "--size", "1"],
            ["benchmark", "--kind", "chain", "--sizes", "8,1"],
            ["respond", "--kind", "chain", "--size", "8", "--gap", "0"],
            ["respond", "--kind", "chain", "--size", "8", "--gap=-1"],
            ["respond", "--kind", "chain", "--size", "8", "--gap", "nan"],
            ["respond", "--kind", "chain", "--size", "8", "--gap", "inf"],
            ["respond", "--kind", "gapped_random", "--size", "8", "--gap", "4"],
            ["audit", "--kind", "gapped_random", "--size", "8", "--gap", "9"],
            ["respond", "--kind", "overlap_chain", "--size", "8", "--model-overlap", "0.5"],
            ["respond", "--kind", "overlap_chain", "--size", "8", "--model-overlap=-0.1"],
            ["respond", "--kind", "overlap_chain", "--size", "8", "--model-overlap", "nan"],
        ],
    )
    def test_model_limits_refused_before_inputs(self, monkeypatch, capsys, argv):
        # the model's own limits (models.ModelSpec) are checked on every
        # generated dimension before any input is assembled
        monkeypatch.setattr(cli, "_load_or_generate", lambda cfg: pytest.fail("inputs assembled"))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"cannot generate {argv[2]} at size" in capsys.readouterr().err

    def test_unknown_model_kind_refused_by_route(self):
        # the parser's choices keep it off the command line; RunConfig alone does not
        with pytest.raises(cli.UsageError, match="unknown model kind"):
            cli._route(cli.RunConfig("respond", kind="ladder", size=8))

    @pytest.mark.parametrize("subcommand", sorted(cli.REFUSED))
    def test_parser_defaults_are_run_config_defaults(self, subcommand):
        # _given compares against RunConfig, so a parser default that differed
        # would count as a given flag on every run
        argv = [subcommand] + (["--sizes", "8"] if subcommand == "benchmark" else [])
        parsed = vars(cli.build_parser().parse_args(argv))
        defaults = {
            k: v for k, v in cli._DEFAULTS.items() if k in parsed and k not in ("subcommand", "sizes")
        }
        assert {k: parsed[k] for k in defaults} == defaults
        assert not any(cli._given(cli.RunConfig(**parsed), flag) for flag in defaults)

    @pytest.mark.parametrize("out", ["/nonexistent/dir/r.json", "DIRECTORY"])
    def test_unwritable_out_exit_2(self, tmp_path, monkeypatch, out):
        # refused before any input is generated or read
        def no_inputs(cfg):
            raise AssertionError("inputs assembled for an unwritable --out")

        monkeypatch.setattr(cli, "_load_or_generate", no_inputs)
        out = str(tmp_path) if out == "DIRECTORY" else out
        with pytest.raises(SystemExit) as exc:
            main(["respond", "--kind", "chain", "--size", "8", "--out", out])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "extra",
        [
            ["--kind", "chain"],
            ["--kind", "overlap_chain"],
            ["--size", "999"],
            ["--gap", "5"],
            ["--model-overlap", "0.3"],
        ],
    )
    @pytest.mark.parametrize("subcommand", ["ground-state", "respond", "audit"])
    def test_h0_refuses_generator_flags(self, tmp_path, subcommand, extra):
        write_matrix_market(tmp_path / "h.mtx", gapped_random_hamiltonian(6, 1.0, 3, seed=2))
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--h0", str(tmp_path / "h.mtx"), *extra])
        assert exc.value.code == 2

    def test_h0_accepts_generator_defaults(self, tmp_path):
        # --gap and --model-overlap at their defaults change nothing
        write_matrix_market(tmp_path / "h.mtx", gapped_random_hamiltonian(6, 1.0, 3, seed=2))
        argv = ["respond", "--h0", str(tmp_path / "h.mtx")]
        code, plain = run_cli(argv, tmp_path)
        assert code == 0
        code, explicit = run_cli(argv + ["--gap", "1.0", "--model-overlap", "0.2"], tmp_path)
        assert code == 0
        assert strip_timing(explicit) == strip_timing(plain)

    def test_missing_input_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["respond"])
        assert exc.value.code == 2

    def test_numerical_failure_exit_1(self, tmp_path):
        # gapless at the requested occupation: convergence must fail
        h = np.zeros((6, 6))
        write_matrix_market(tmp_path / "h.mtx", h)
        out = tmp_path / "rep.json"
        code = main(
            [
                "ground-state",
                "--h0",
                str(tmp_path / "h.mtx"),
                "--nocc",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        rep = json.loads(out.read_text())
        assert rep["error"] is not None
        assert rep["error"]["type"] in ("ConvergenceError", "ValueError")

    def test_failed_run_reports_its_residual_tail(self, tmp_path):
        # degenerate at the occupation: the levels 1, 1 straddle N_occ = 2
        write_matrix_market(tmp_path / "h.mtx", np.diag([0.0, 1.0, 1.0, 2.0]))
        code, rep = run_cli(["respond", "--h0", str(tmp_path / "h.mtx"), "--nocc", "2"], tmp_path)
        assert code == 1
        error = rep["error"]
        assert error["type"] == "ConvergenceError"
        assert error["message"].startswith("SP2 did not converge within 120 iterations")
        tail = error["residual_tail"]
        assert len(tail) == 5 and all(0.0 < v <= 0.5 for v in tail)

    def test_overflowing_spectral_bounds_exit_1(self, tmp_path):
        # finite entries, but a spectral width beyond the float64 range
        path = tmp_path / "h.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n1e308\n1e308\n1\n")
        code, rep = run_cli(["respond", "--h0", str(path), "--mode", "both"], tmp_path)
        assert code == 1
        assert rep["error"]["type"] == "ValueError"
        assert rep["error"]["message"].startswith("spectral bounds [-1e+308, 1e+308] have width inf")


def audit_files(tmp_path, h0, a, h1, n_occ, *extra):
    """audit on --h0/--obs/--h1 array files."""
    argv = ["audit", "--nocc", str(n_occ), *extra]
    for flag, m in (("--h0", h0), ("--obs", a), ("--h1", h1)):
        path = tmp_path / f"{flag[2:]}.mtx"
        write_matrix_market(path, m)
        argv += [flag, str(path)]
    code, rep = run_cli(argv, tmp_path)
    assert code == 0 and rep["error"] is None
    return rep["results"]


class TestAuditAndBenchmark:
    def test_audit_2x2_worked_case(self, tmp_path):
        h0 = np.diag([0.0, 2.0])
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        res = audit_files(tmp_path, h0, w, w, 1)
        assert len(res["values"]) == 4
        for v in res["values"].values():
            assert abs(v + 1.0) <= 1e-10
        assert res["max_abs_deviation"] <= 1e-10

    def test_audit_zero_inputs_give_zero_everywhere(self, tmp_path):
        h0 = gapped_random_hamiltonian(10, 1.0, 5, seed=119)
        zero = np.zeros((10, 10))
        res = audit_files(tmp_path, h0, zero, zero, 5)
        assert all(v == 0.0 for v in res["values"].values())

    def test_audit_random_gapped_cross_check(self, tmp_path, rng):
        h0 = gapped_random_hamiltonian(50, 1.0, 25, seed=120)
        res = audit_files(tmp_path, h0, random_symmetric(rng, 50), random_symmetric(rng, 50), 25)
        assert res["max_rel_deviation"] <= 1e-9
        assert set(res["values"]) == {
            "direct_forward",
            "dual_forward",
            "dual_backward",
            "oracle_eigenbasis",
        }

    def test_audit_thermal_files(self, tmp_path, rng):
        h0, a, h1 = (random_symmetric(rng, 16) for _ in range(3))
        res = audit_files(tmp_path, h0, a, h1, 8, "--beta-t", "10")
        assert res["max_rel_deviation"] <= 1e-7
        assert "oracle_finite_difference" in res["values"]

    @pytest.mark.parametrize(
        "extra, names, oracle",
        [
            (
                [],
                {
                    "a1_direct": "direct_forward",
                    "a1_dual_forward": "dual_forward",
                    "a1_dual_backward": "dual_backward",
                },
                "oracle_eigenbasis",
            ),
            (
                ["--beta-t", "12"],
                {"a1_direct": "direct_thermal", "a1_dual_forward": "dual_thermal"},
                "oracle_finite_difference",
            ),
        ],
        ids=["dense", "thermal"],
    )
    def test_audit_values_are_the_route_solvers(self, tmp_path, extra, names, oracle):
        # the audit's a1 values are respond --mode both's, bit for bit, plus
        # one oracle value
        model = ["--kind", "gapped_random", "--size", "16", "--seed", "4", *extra]
        code, audit = run_cli(["audit", *model], tmp_path, "audit.json")
        assert code == 0
        code, resp = run_cli(["respond", "--mode", "both", *model], tmp_path, "respond.json")
        assert code == 0
        values = audit["results"]["values"]
        assert set(values) == {*names.values(), oracle}
        assert {k: values[v] for k, v in names.items()} == resp["results"]["values"]

    def test_audit_all_routes_agree(self, tmp_path):
        code, rep = run_cli(
            ["audit", "--kind", "gapped_random", "--size", "20", "--seed", "4"], tmp_path
        )
        assert code == 0
        assert rep["results"]["max_rel_deviation"] <= 1e-9
        assert len(rep["results"]["values"]) == 4

    def test_audit_thermal(self, tmp_path):
        code, rep = run_cli(
            [
                "audit",
                "--kind",
                "gapped_random",
                "--size",
                "16",
                "--beta-t",
                "12",
            ],
            tmp_path,
        )
        assert code == 0
        assert rep["results"]["max_rel_deviation"] <= 1e-7

    def test_benchmark_reports_sizes_and_ratios(self, tmp_path, monkeypatch):
        expanded = []
        real_expand = sp2._expand

        def spy(h0, *args, **kwargs):
            expanded.append(h0.dim)
            return real_expand(h0, *args, **kwargs)

        # the routes call the engine by the name they imported
        monkeypatch.setattr(sp2, "_expand", spy)
        monkeypatch.setattr(response, "_expand", spy)
        forbid_dense_inputs(monkeypatch)
        code, rep = run_cli(
            ["benchmark", "--kind", "chain", "--sizes", "100,200", "--tau", "1e-6"],
            tmp_path,
        )
        assert code == 0
        assert expanded == [100, 200]  # one expansion per size
        assert [e["dim"] for e in rep["results"]["per_size"]] == [100, 200]
        assert "200/100" in rep["timing"]["time_ratios"]
        assert all(e["nnz_d0"] > 0 for e in rep["results"]["per_size"])


# route-selecting flags; OVERLAP_FILE is replaced by a written overlap matrix
ROUTE_FLAGS = {
    "kernel": ["--kernel", "hubbard:0.1"],
    "beta_t": ["--beta-t", "20"],
    "tau": ["--tau", "1e-6"],
    "f32": ["--precision", "f32"],
    "split16": ["--precision", "split16"],
    "overlap_file": ["--overlap", "OVERLAP_FILE"],
    "overlap_chain": ["--kind", "overlap_chain"],
}
FLAG_SETS = [()] + [(f,) for f in ROUTE_FLAGS] + [
    pair for pair in itertools.combinations(ROUTE_FLAGS, 2) if pair != ("f32", "split16")
]
SUBCOMMANDS = [("ground-state",), ("audit",), ("benchmark",)] + [
    ("respond", "--mode", mode) for mode in cli.MODES
]


def expected_route(sub, flags):
    """The documented route table: the route a run takes, or None when it
    must exit 2."""
    overlap = "overlap_file" in flags or "overlap_chain" in flags
    precision = next((p for p in ("f32", "split16") if p in flags), None)
    if sub[0] == "audit" and ({"kernel", "tau"} & set(flags) or precision or overlap):
        return None
    if sub[0] == "benchmark":
        # tau defaults to BENCHMARK_TAU, so benchmark always runs the sparse route
        return None if {"kernel", "beta_t"} & set(flags) or precision or overlap else "sparse"
    if "kernel" in flags:
        route, refused = "scf", "tau" in flags or precision
    elif "beta_t" in flags:
        route, refused = "thermal", "tau" in flags or precision
    elif "tau" in flags:
        route, refused = "sparse", precision or overlap
    elif precision:
        route, refused = precision, overlap
    else:
        route, refused = ("dense_orthogonalized" if overlap else "dense"), False
    if sub[-1] == "suscept-bwd" and route in ("scf", "thermal", "f32", "split16"):
        refused = True
    return None if refused else route


@pytest.fixture(scope="module")
def overlap_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("overlap") / "s8.mtx"
    write_matrix_market(path, overlap_chain_matrices(8, 1.0, 0.2)[1])
    return str(path)


@pytest.mark.parametrize("flags", FLAG_SETS, ids=lambda f: "+".join(f) or "none")
@pytest.mark.parametrize("sub", SUBCOMMANDS, ids=lambda s: s[-1])
def test_route_table(tmp_path, overlap_file, sub, flags):
    size = ["--sizes", "16"] if sub[0] == "benchmark" else ["--size", "8"]
    argv = [*sub, "--kind", "chain", *size]
    for flag in flags:
        argv += [overlap_file if a == "OVERLAP_FILE" else a for a in ROUTE_FLAGS[flag]]
    route = expected_route(sub, flags)
    if route is None:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        return
    code, rep = run_cli(argv, tmp_path)
    assert code == 0 and rep["error"] is None
    if sub[0] in ("ground-state", "respond"):
        assert rep["results"]["route"] == route
    if sub[0] == "benchmark":
        assert [e["route"] for e in rep["results"]["per_size"]] == [route]


def test_refused_combination_opens_no_file(tmp_path, monkeypatch):
    write_matrix_market(tmp_path / "h.mtx", chain_hamiltonian(8, 1.0))
    opened = []
    real = cli.read_matrix_market

    def spy(path):
        opened.append(path)
        return real(path)

    monkeypatch.setattr(cli, "read_matrix_market", spy)
    argv = ["respond", "--h0", str(tmp_path / "h.mtx"), "--tau", "1e-6"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--precision", "split16"])
    assert exc.value.code == 2 and opened == []
    # the spy does see the reads of an accepted run
    code, _ = run_cli(argv, tmp_path)
    assert code == 0 and opened == [str(tmp_path / "h.mtx")]

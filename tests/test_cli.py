"""Interchange format round-trips and CLI scenario behaviour."""
import argparse
import contextlib
import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catcost import __version__, serialize
from catcost.cli import _broadcast_of_half_mixed, _half_mixed, _named_target, _parser, main
from catcost.choi import analytic_mixer_choi
from catcost.operators import LabeledOperator, bipartite_shape, density_from_matrix
from catcost.reports import ScenarioReport
from catcost.serialize import (
    choi_from_document,
    choi_to_document,
    load_choi,
    load_density,
    load_operator,
    operator_from_document,
    operator_to_document,
    save_choi,
    save_operator,
)
from catcost.states import IsotropicParams, isotropic, max_entangled, symmetric_two_broadcast

from conftest import (
    matrix_with_spectrum,
    random_density,
    random_state_matrix,
    spectral_calls,
    unit_trace_spectrum,
)


class TestSerialize:
    def test_round_trip(self, rng, tmp_path):
        x = random_density(rng, 2, 3)
        path = tmp_path / "state.json"
        save_operator(x.op, path)
        back = load_operator(path)
        assert back.shape == x.shape
        assert np.array_equal(back.entries, x.entries)

    def test_document_fields(self, rng):
        x = random_density(rng, 2, 2)
        doc = operator_to_document(x.op)
        assert set(doc) == {"shape", "entries"}
        assert doc["shape"] == [[2, 2]]
        assert len(doc["entries"]) == 16
        assert all(len(pair) == 2 for pair in doc["entries"])

    def test_malformed_documents_rejected(self):
        with pytest.raises(ValueError):
            operator_from_document({"shape": [[2, 2]]})
        with pytest.raises(ValueError):
            operator_from_document({"shape": [[2, 2]], "entries": [[0.0, 0.0]] * 3})

    @pytest.mark.parametrize("entries", [
        [[0.5, 0.0], None, [0.0, 0.0], [0.5, 0.0]],
        [[0.5, 0.0], "a", [0.0, 0.0], [0.5, 0.0]],
        [[0.5, 0.0], 0.0, [0.0, 0.0], [0.5, 0.0]],
        5,
        [["0.5", "0"], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
        [[0.5, 0.0, 0.0], [0.0], [0.0, 0.0], [0.5, 0.0]],  # ragged, 2n^2 numbers in all
        [[0.5, None], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
        [[10 ** 400, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
        [[0.5, 0.0]] * 5,
        [[True, False], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
    ])
    def test_entries_that_are_not_pairs_of_numbers_rejected(self, entries):
        with pytest.raises(ValueError, match="pairs of numbers"):
            operator_from_document({"shape": [[2, 1]], "entries": entries})

    @pytest.mark.parametrize("shape", [[[2.7, True]], [["2", 1]], [[2.0, 1]], [[True, 1]],
                                       [[2, 1], [2, False]]])
    def test_shapes_that_are_not_integers_rejected(self, shape):
        # int() would read each of these as a valid shape
        entries = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]] * (4 if len(shape) > 1 else 1)
        with pytest.raises(ValueError, match="must be integers"):
            operator_from_document({"shape": shape, "entries": entries})

    @pytest.mark.parametrize("factors", [[0.9], [True], ["0"], [0.0]])
    def test_input_factors_that_are_not_integers_rejected(self, factors):
        doc = choi_to_document(analytic_mixer_choi(2))
        doc["input_factors"] = factors
        with pytest.raises(ValueError, match="must be integers"):
            choi_from_document(doc)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_entries_rejected(self, bad, tmp_path):
        # Python's json reads these non-standard literals as floats
        path = tmp_path / "rho.json"
        path.write_text('{"shape": [[2, 1]], "entries": [[%s, 0], [0, 0], [0, 0], [0.5, 0]]}'
                        % bad)
        with pytest.raises(ValueError, match="finite"):
            load_operator(path)

    @pytest.mark.parametrize("load, what", [(load_operator, "operator"), (load_choi, "Choi")])
    def test_nesting_deeper_than_the_parser_rejected(self, load, what, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000)
        with pytest.raises(ValueError, match=f"malformed {what} document"):
            load(path)

    @pytest.mark.parametrize("collecting", [True, False], ids=["collecting", "paused"])
    def test_load_pauses_the_collector_and_restores_it(self, collecting, rng, tmp_path,
                                                        monkeypatch):
        x = random_density(rng, 2, 3)
        good, bad = tmp_path / "rho.json", tmp_path / "bad.json"
        save_operator(x.op, good)
        save_choi(analytic_mixer_choi(2), tmp_path / "choi.json")
        states = []
        decode, convert = json.loads, serialize._entries_from_pairs

        def decoding(text):
            states.append(gc.isenabled())
            return decode(text)

        def converting(pairs, n):
            states.append(gc.isenabled())
            return convert(pairs, n)

        monkeypatch.setattr(serialize.json, "loads", decoding)
        monkeypatch.setattr(serialize, "_entries_from_pairs", converting)
        refused = ['{"shape": [[2, 1]], "entries": [[0.5, 0], [0, 0], [0, 0], [0.5]]}',
                   '{"shape": [[2, 1]], "entries": ', "[" * 200000 + "]" * 200000]
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            back = load_operator(good)
            after = [gc.isenabled()]
            assert load_choi(tmp_path / "choi.json").input_factors == (0,)
            after.append(gc.isenabled())
            for text in refused:
                bad.write_text(text)
                for load in (load_operator, load_choi):
                    with pytest.raises(ValueError):
                        load(bad)
                    after.append(gc.isenabled())
        finally:
            (gc.enable if was else gc.disable)()
        # paused while a document is decoded and its pairs converted, and
        # left as it was found after every load, refused or not
        assert states and set(states) == {False}
        assert after == [collecting] * (2 + 2 * len(refused))
        assert back.shape == x.shape and np.array_equal(back.entries, x.entries)

    def test_entries_keep_their_values(self):
        op = operator_from_document(
            {"shape": [[2, 1]], "entries": [[1, 2], [3, 4.5], [0, -1], [7, 0]]})
        assert np.array_equal(op.entries, [[1 + 2j, 3 + 4.5j], [-1j, 7]])

    def test_density_validation_on_load(self, rng, tmp_path):
        x = random_density(rng, 2, 2)
        path = tmp_path / "rho.json"
        save_operator(2.0 * x.op, path)
        with pytest.raises(ValueError):
            load_density(path)

    def test_a_state_at_the_entry_cap_loads_with_one_factorisation(self, rng, tmp_path,
                                                                  monkeypatch):
        # accepted by one Cholesky factorisation; only a refusal computes the spectrum
        shape = bipartite_shape(16, 16)
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        save_operator(LabeledOperator(shape, random_state_matrix(rng, 256)), good)
        negative = matrix_with_spectrum(rng, unit_trace_spectrum(rng, 256, -1e-3))
        save_operator(LabeledOperator(shape, negative), bad)
        seen = spectral_calls(monkeypatch)
        load_density(good)
        assert [name for name, _, _ in seen] == ["cholesky"]
        seen.clear()
        with pytest.raises(ValueError, match="not positive semidefinite: min eigenvalue -1.000e-03"):
            load_density(bad)
        assert sorted(name for name, _, _ in seen) == ["cholesky", "eigvalsh"]

    def test_round_trip_keeps_the_dtype(self, tmp_path):
        real = isotropic(IsotropicParams(2, 0.5))
        # the local-phase state of test_complex_target_file_keeps_complex128
        u = np.kron(np.eye(2), np.diag([1.0, 1j]))
        rho = _named_target("noisy-phi-2").to_density().entries
        phased = density_from_matrix(u @ rho @ u.conj().T, bipartite_shape(2, 2))
        for x, dtype in [(real, np.float64), (phased, np.complex128)]:
            path = tmp_path / "state.json"
            save_operator(x.op, path)
            back = load_density(path)
            assert back.entries.dtype == dtype
            assert np.array_equal(back.entries, x.entries)

    def test_choi_round_trip(self, tmp_path):
        choi = analytic_mixer_choi(2)
        path = tmp_path / "choi.json"
        save_choi(choi, path)
        back = load_choi(path)
        assert back.input_factors == choi.input_factors
        assert back.output_factors == choi.output_factors
        assert np.array_equal(back.op.entries, choi.op.entries)


def _broadcast_files(directory):
    """The half-mixed qubit pair and its symmetric two-copy broadcast, as state files."""
    rho = isotropic(IsotropicParams(2, 0.5))
    mu = symmetric_two_broadcast(max_entangled(2), isotropic(IsotropicParams(2, 0.0)))
    mu_path, rho_path = directory / "mu.json", directory / "rho.json"
    save_operator(mu.op, mu_path)
    save_operator(rho.op, rho_path)
    return mu_path, rho_path


class TestCliScenarios:
    def test_scenarios_are_looked_up_at_call_time(self, monkeypatch, capsys):
        # a rebinding of catcost.cli.scenario_* (as a tracer does) is what runs
        import catcost.cli

        calls = []
        run = catcost.cli.scenario_dmax_ppt
        monkeypatch.setattr(catcost.cli, "scenario_dmax_ppt",
                            lambda **kw: calls.append(kw) or run(**kw))
        assert main(["dmax-ppt"]) == 0
        assert calls == [{"d": 2, "lam": 0.5}]

    def test_werner_passes(self, capsys):
        assert main(["werner-example", "--d", "2"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    @pytest.mark.parametrize("argv", [
        ["protocol", "--n", "0"],
        ["protocol", "--d", "1"],
        ["rigidity", "--d", "1"],
        ["rigidity", "--starts", "0"],
        # the start count keeps the range its (s, 4) arrays once held in the entry budget
        ["rigidity", "--starts", "8193"],
        ["rigidity", "--starts", "10" * 50],
        ["rigidity", "--seed", "-1"],
        ["rigidity", "--tol", "-1"],
        ["synthesize", "noisy-phi-1"],
        ["synthesize", "broadcast-phi-0"],
        ["synthesize", "noisy-phi-2", "--tol", "-1"],
        ["synthesize", "noisy-phi-2", "--max-iter", "0"],
        ["synthesize", "noisy-phi-2", "--seed", "-1"],
        ["verify-broadcast", "mu.json", "rho.json", "--n", "0"],
        # refused before np.linspace would allocate the grid
        ["thermo-example", "--q-grid", "1000000000000"],
        ["thermo-example", "--p", "nan"],
        ["dmax-ppt", "--lam", "inf"],
        ["synthesize", "noisy-phi-2", "--tol", "nan"],
        ["werner-example", "--d", "two"],
        # inf would pass every residual check and print as Infinity, not JSON
        ["rigidity", "--starts", "1", "--tol", "inf"],
        ["synthesize", "noisy-phi-2", "--tol", "inf"],
        ["verify-broadcast", "mu.json", "rho.json", "--tol", "inf"],
        # 1 - p rounds to 1: the Gibbs state is pure in float64
        ["thermo-example", "--p", "1e-17"],
        ["thermo-example", "--p", "5e-17"],
    ])
    def test_out_of_range_arguments_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["dmax-ppt", "--d", "40"],
        ["rigidity", "--d", "5"],
        # far over the budget: refused on the integer, before any state is built
        ["dmax-ppt", "--d", "1000000"],
        ["rigidity", "--d", "100000"],
        ["synthesize", "broadcast-phi-5", "--m", "0"],
        ["synthesize", "broadcast-phi-100000", "--m", "0"],
        ["protocol", "--d", "4"],
        ["protocol", "--d", "1000", "--n", "1000000"],
        # sizes of more digits than Python prints of an int: named by their
        # digit count (d^4 has 4401 digits, d^2 4401 and d^6 4801)
        ["rigidity", "--d", "1" + "0" * 1100],
        ["dmax-ppt", "--d", "1" + "0" * 2200],
        ["protocol", "--d", "1" + "0" * 800],
    ])
    def test_oversized_requests_are_usage_errors(self, argv, capsys, forbid_dense_operators,
                                                 monkeypatch):
        # refused on the arguments alone, before any state is built or
        # random number generator made
        def refuse(*args, **kwargs):
            raise AssertionError("a random number generator was made")
        monkeypatch.setattr(np.random, "default_rng", refuse)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "budget" in err and "Traceback" not in err

    @pytest.mark.parametrize("m", ["4", "1000000000"])
    def test_synthesis_at_any_ebit_count_is_target_sized(self, m, capsys):
        # the search never builds the 4^m-fold Choi matrix
        assert main(["synthesize", "noisy-phi-2", "--m", m]) == 0
        assert "overall: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["verify-broadcast", "synthesize"])
    def test_oversized_file_is_a_usage_error(self, command, tmp_path, capsys):
        # 17*17 = 289 > 256: refused on its shape, before any entry is read,
        # so the missing entries never surface as a parse error (exit 3)
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"shape": [[17, 17]], "entries": []}))
        rho = tmp_path / "rho.json"
        save_operator(isotropic(IsotropicParams(2, 0.5)).op, rho)
        argv = ([command, str(big), str(rho)] if command == "verify-broadcast"
                else [command, str(big)])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "budget" in err and "Traceback" not in err

    def test_werner_verifies_the_broadcast_once(self, monkeypatch):
        import catcost.catalysis
        from catcost.cli import scenario_werner
        from catcost.measures import IsotropicCopies

        calls = []
        verify = catcost.catalysis.verify_broadcast
        monkeypatch.setattr(catcost.catalysis, "verify_broadcast",
                            lambda *a, **k: calls.append(a) or verify(*a, **k))
        for d in (2, 8):
            calls.clear()
            assert scenario_werner(d).passed
            assert len(calls) == 1
            mu, rho, n = calls[0]
            # the marginals are checked in the algebra, on the scenario's own states
            assert isinstance(mu, IsotropicCopies) and isinstance(rho, IsotropicCopies)
            assert (mu.d, n) == (d, 2)

    def test_werner_reports_the_broadcast_at_d8(self, capsys):
        assert main(["--format", "json-like-keyvalue", "werner-example", "--d", "8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        ln = math.log2(65 / 8) - 1.0
        closed = {"ln_mu": ln, "binegativity_mu": 1 / (2 * 8 ** 3),
                  "cost_upper_catalytic": ln / 2, "advantage_gap": ln / 2,
                  "superadditivity_violation": ln}
        for name, want in closed.items():
            assert abs(doc["results"][name]["value"] - want) <= 1e-9, name
        assert doc["overall"] is True and doc["parameters"] == {"d": 8}

    def test_werner_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["werner-example", "--d", "9"])
        assert exc.value.code == 2

    def test_thermo_passes(self, capsys):
        assert main(["thermo-example", "--p", "0.25", "--q-grid", "3"]) == 0

    def test_thermo_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["thermo-example", "--p", "0.7"])
        assert exc.value.code == 2

    def test_dmax_ppt_passes(self, capsys):
        assert main(["dmax-ppt", "--d", "2", "--lam", "0.75"]) == 0

    def test_dmax_ppt_builds_no_dense_state(self, capsys, forbid_dense_operators):
        assert main(["dmax-ppt", "--d", "16", "--lam", "0.9"]) == 0

    def test_protocol_states_are_the_dense_constructions(self):
        # the subject of acceptance criterion 05: at d = 2 the algebra
        # builders' dense states are the states module's, bit for bit
        pairs = [(_half_mixed(2), isotropic(IsotropicParams(2, 0.5))),
                 (_broadcast_of_half_mixed(2),
                  symmetric_two_broadcast(max_entangled(2), isotropic(IsotropicParams(2, 0.0))))]
        for algebra, dense in pairs:
            built = algebra.to_density()
            assert built.shape == dense.shape and built.entries.dtype == dense.entries.dtype
            assert built.entries.tobytes() == dense.entries.tobytes()

    def test_protocol_passes(self, capsys):
        assert main(["protocol", "--d", "2", "--n", "1"]) == 0

    def test_protocol_budget_maps_to_usage(self):
        with pytest.raises(SystemExit) as exc:
            main(["protocol", "--d", "3"])
        assert exc.value.code == 2

    def test_synthesize_feasible(self, capsys):
        assert main(["synthesize", "noisy-phi-2", "--m", "1"]) == 0

    def test_synthesize_infeasible_exits_numerical(self, capsys):
        code = main(["synthesize", "noisy-phi-2", "--m", "0"])
        out = capsys.readouterr().out
        assert code == 4
        assert "npt_witness" in out
        assert "-0.125" in out

    def test_log_negativity_certifies_infeasibility_from_ebits(self, capsys):
        argv = ["--format", "json-like-keyvalue", "synthesize", "noisy-phi-4", "--m", "1"]
        assert main(argv) == 4
        doc = json.loads(capsys.readouterr().out)
        # E_N = log2(17/4) - 1 > 1 ebit; the search still runs and stalls
        ln = doc["results"]["log_negativity"]
        assert abs(ln["value"] - (math.log2(17 / 4) - 1.0)) <= 1e-9 and ln["tol"] is None
        assert doc["parameters"]["infeasible"] is True and doc["parameters"]["stalled"] is True
        assert "npt_witness" not in doc["results"] and doc["checks"] == {"converged": False}

    @pytest.mark.parametrize("argv", [["noisy-phi-4", "--m", "2"],
                                      ["broadcast-phi-2", "--m", "1", "--max-iter", "1"],
                                      ["noisy-phi-3", "--m", "9" * 400, "--max-iter", "1",
                                       "--tol", "1e-300"]])
    def test_no_certificate_when_log_negativity_allows_the_ebits(self, argv, capsys):
        # feasible, converged or cut off before convergence: E_N <= m either
        # way, also for an m that no float holds (from I/D, its one cycle
        # lands a rounding of the trace short of tol=1e-300)
        code = main(["--format", "json-like-keyvalue", "synthesize", *argv])
        doc = json.loads(capsys.readouterr().out)
        assert code == (0 if doc["checks"]["converged"] else 4)
        assert "log_negativity" not in doc["results"] and "infeasible" not in doc["parameters"]

    @pytest.mark.parametrize("shape", [[[2.7, True]], [["2", 1]]])
    def test_non_integer_shape_file_exits_io(self, shape, tmp_path, capsys):
        # read with int(), either shape was the (2, 1) of the maximally mixed
        # qubit, whose two-copy broadcast mu is
        mu_path, bad = tmp_path / "mu.json", tmp_path / "bad.json"
        mu_path.write_text(json.dumps({"shape": [[2, 1], [2, 1]], "entries": [
            [0.25 * (i % 5 == 0), 0.0] for i in range(16)]}))
        bad.write_text(json.dumps({"shape": shape, "entries": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]}))
        for argv in (["verify-broadcast", str(mu_path), str(bad), "--n", "2"],
                     ["synthesize", str(bad), "--m", "0"]):
            assert main(argv) == 3
            assert capsys.readouterr().err.startswith("error: shape dimensions must be integers")

    def test_missing_file_exits_io(self, capsys):
        assert main(["verify-broadcast", "/no/such/mu.json", "/no/such/rho.json"]) == 3

    @pytest.mark.parametrize("name", ["noisy-phi-\u0663", "noisy-phi-02"])
    def test_non_canonical_target_numbers_name_files(self, name, tmp_path, monkeypatch, capsys):
        # read as numbers, an Arabic-Indic 3 and a leading zero ran as
        # noisy-phi-3 and noisy-phi-2 under the name given
        monkeypatch.chdir(tmp_path)
        assert _named_target(name) is None
        assert main(["synthesize", name, "--m", "2"]) == 3
        assert capsys.readouterr().err.startswith("error:")
        save_operator(_named_target("noisy-phi-2").to_density().op, tmp_path / name)
        assert main(["synthesize", name, "--m", "1"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out and name in out

    def test_verify_broadcast_files(self, tmp_path, capsys):
        mu_path, rho_path = _broadcast_files(tmp_path)
        assert main(["verify-broadcast", str(mu_path), str(rho_path), "--n", "2"]) == 0

    def test_huge_copy_count_is_a_shape_mismatch(self, tmp_path, capsys):
        mu_path, rho_path = _broadcast_files(tmp_path)
        n = "100000000000000000000"
        assert main(["verify-broadcast", str(mu_path), str(rho_path), "--n", n]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"is not {n} copies" in err

    @pytest.mark.parametrize("entries", [
        [[0.25, 0.0], None] + [[0.25 * (i % 5 == 0), 0.0] for i in range(2, 16)],
        [[0.25, 0.0], "a"] + [[0.25 * (i % 5 == 0), 0.0] for i in range(2, 16)],
        [[0.25, 0.0], 0.0] + [[0.25 * (i % 5 == 0), 0.0] for i in range(2, 16)],
        5,
        [[float("nan"), 0.0]] + [[0.25 * (i % 5 == 0), 0.0] for i in range(1, 16)],
        # read as numbers, false would make this the valid broadcast
        [[0.25, False]] + [[0.25 * (i % 5 == 0), 0.0] for i in range(1, 16)],
    ])
    def test_malformed_matrix_file_exits_io(self, entries, tmp_path):
        # in a fresh process, so that a traceback would reach stderr; mu
        # is (1/2)^2 times the identity on two qubits, but for one entry
        mu_path, rho_path = tmp_path / "mu.json", tmp_path / "rho.json"
        rho_path.write_text(json.dumps(
            {"shape": [[2, 1]], "entries": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]}))
        mu_path.write_text(json.dumps({"shape": [[2, 1], [2, 1]], "entries": entries}))
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-m", "catcost.cli", "verify-broadcast",
                              str(mu_path), str(rho_path), "--n", "2"],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 3
        assert run.stderr.startswith("error:")
        assert "Traceback" not in run.stderr

    def test_deeply_nested_matrix_file_exits_io(self, tmp_path, capsys):
        # deeper than json's recursion limit
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000)
        _, rho_path = _broadcast_files(tmp_path)
        for argv in (["verify-broadcast", str(deep), str(rho_path), "--n", "2"],
                     ["synthesize", str(deep), "--m", "1"]):
            assert main(argv) == 3
            assert capsys.readouterr().err.startswith("error: malformed operator document")

    def test_verify_broadcast_failure_exits_numerical(self, tmp_path, capsys):
        rho = isotropic(IsotropicParams(2, 0.5))
        fake = random_density(np.random.default_rng(1), 4, 4)
        mu_path, rho_path = tmp_path / "mu.json", tmp_path / "rho.json"
        # a 16-dim state with the right shape but wrong marginals
        from catcost.operators import FactorShape, density_from_matrix
        wrong = density_from_matrix(fake.entries, FactorShape(((2, 2), (2, 2))))
        save_operator(wrong.op, mu_path)
        save_operator(rho.op, rho_path)
        assert main(["verify-broadcast", str(mu_path), str(rho_path), "--n", "2"]) == 4

    @pytest.mark.parametrize("fmt", ["text", "csv", "json-like-keyvalue"])
    def test_formats_render(self, fmt, capsys):
        assert main(["--format", fmt, "dmax-ppt", "--d", "2"]) == 0
        out = capsys.readouterr().out
        if fmt == "json-like-keyvalue":
            doc = json.loads(out)
            assert doc["overall"] is True
        elif fmt == "csv":
            assert out.splitlines()[0] == "section,name,value,tol"

    def test_csv_rows_keep_four_fields(self, tmp_path, capsys):
        # a file name with a comma and a quote is one quoted field
        rho = isotropic(IsotropicParams(2, 0.5))
        path = tmp_path / "a,b\"c.json"
        save_operator(rho.op, path)
        assert main(["--format", "csv", "verify-broadcast", str(path), str(path), "--n", "1"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["section", "name", "value", "tol"]
        assert all(len(row) == 4 for row in rows)
        assert ["param", "mu", repr(str(path)), ""] in rows

    @pytest.mark.parametrize("fmt", ["text", "csv", "json-like-keyvalue"])
    def test_rendering_leaves_no_cyclic_garbage(self, fmt, capsys):
        argv = ["--format", fmt, "synthesize", "noisy-phi-2", "--m", "1"]
        main(argv)  # first-use allocations outside the measured run
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_reports_are_byte_identical(self, capsys):
        main(["--format", "json-like-keyvalue", "synthesize", "noisy-phi-2",
              "--m", "1", "--seed", "3"])
        first = capsys.readouterr().out
        main(["--format", "json-like-keyvalue", "synthesize", "noisy-phi-2",
              "--m", "1", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second

    def test_reruns_at_one_blas_thread_are_byte_identical(self):
        # the determinism claim is scoped to a fixed BLAS configuration:
        # separate processes, one OpenBLAS thread each
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "catcost.cli", "werner-example", "--d", "3"]
        runs = [subprocess.run(argv, env=env, capture_output=True, check=True).stdout
                for _ in range(2)]
        assert b"overall: PASS" in runs[0]
        assert runs[0] == runs[1]

    @staticmethod
    def reports_at_one_and_two_blas_threads(*args):
        src = Path(__file__).resolve().parents[1] / "src"
        argv = [sys.executable, "-m", "catcost.cli", *args]
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [str(src),
                                                                os.environ.get("PYTHONPATH")])))
            runs.append(subprocess.run(argv, env=env, capture_output=True, check=True).stdout)
        return runs

    def test_werner_is_byte_identical_across_blas_threads(self):
        # werner-example is computed in the closed-form algebra, which makes
        # no BLAS call, so its report does not depend on the thread count
        runs = self.reports_at_one_and_two_blas_threads("werner-example", "--d", "5")
        assert b"overall: PASS" in runs[0]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("args", [("--d", "2", "--starts", "50", "--seed", "42"),
                                      ("--d", "4", "--starts", "5", "--seed", "1")])
    def test_rigidity_is_byte_identical_across_blas_threads(self, args):
        # the exact set's end points are elementwise arithmetic: rigidity
        # makes no BLAS call
        runs = self.reports_at_one_and_two_blas_threads("rigidity", *args)
        assert b"overall: PASS" in runs[0]
        assert runs[0] == runs[1]

    def test_named_synthesis_is_byte_identical_across_blas_threads(self):
        # the named target is searched in its 4 twirl coefficients from
        # I/D: the BLAS calls left act on 16 x 16 or smaller matrices
        runs = self.reports_at_one_and_two_blas_threads(
            "synthesize", "broadcast-phi-2", "--m", "1", "--seed", "0")
        assert b"overall: PASS" in runs[0]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("fmt", ["text", "csv", "json-like-keyvalue"])
    def test_rigidity_echoes_starts_and_seed_and_nothing_else(self, fmt, capsys):
        # the set is computed, not sampled: in every format the two reports
        # differ only in the echoed --starts and --seed
        def report(starts, seed):
            assert main(["--format", fmt, "rigidity", "--d", "3",
                         "--starts", starts, "--seed", seed]) == 0
            out = capsys.readouterr().out
            if fmt == "json-like-keyvalue":
                doc = json.loads(out)
                assert doc["parameters"].pop("starts") == int(starts)
                assert doc["parameters"].pop("seed") == int(seed)
                assert doc["overall"] is True
                return doc
            echo = ([f"param,starts,{starts},", f"param,seed,{seed},"] if fmt == "csv"
                    else [f"param starts = {starts}", f"param seed = {seed}"])
            lines = out.splitlines()
            assert all(line in lines for line in echo)
            return [line for line in lines if line not in echo]

        assert report("1", "0") == report("8192", "42")

    @pytest.mark.parametrize("target, m, code", [("noisy-phi-2", "0", 4), ("noisy-phi-3", "1", 0),
                                                 ("dense", "1", 0)])
    def test_synthesize_echoes_seed_and_nothing_else(self, target, m, code, tmp_path, capsys):
        # every search starts at I/D: the reports at two seeds differ only
        # in the echoed --seed
        if target == "dense":
            target = str(tmp_path / "noisy-phi-2.json")
            save_operator(_named_target("noisy-phi-2").to_density().op, target)
        reports = []
        for seed in ("0", "7"):
            assert main(["synthesize", target, "--m", m, "--seed", seed]) == code
            out = capsys.readouterr().out
            echo = f"param seed = {seed}\n"
            assert out.count(echo) == 1
            reports.append(out.replace(echo, ""))
        assert reports[0] == reports[1]

    def test_rigidity_scenario(self, capsys):
        assert main(["rigidity", "--d", "2", "--starts", "3", "--seed", "2"]) == 0


# Argument values for the fuzz below.  Sizes (--d, --n, --m, a target's D)
# are drawn up to 10**30, and one has 200 digits, past the 10**154 or so at
# which d**2 overflows a float: the entry budget must refuse the large ones
# before any work.  Arguments that add work but no size (--starts, --max-iter,
# --q-grid) stay small.
_JUNK = st.sampled_from(["nan", "-inf", "inf", "1e400", "", "two", "0x10", "1.5"])
_SIZE = st.one_of(st.integers(-2, 12).map(str), st.integers(0, 10 ** 30).map(str),
                  st.sampled_from([str(10 ** 9), str(10 ** 20), "9" * 200]), _JUNK)
_SMALL = st.one_of(st.integers(-2, 3).map(str), _JUNK)
_REAL = st.one_of(st.floats().map(repr), st.floats(0.0, 1.0).map(repr), _JUNK)
_VALUES = {
    "d": _SIZE, "n": _SIZE, "m": _SIZE,
    "starts": _SMALL, "q_grid": _SMALL, "max_iter": st.integers(-1, 20).map(str),
    "seed": st.one_of(st.integers(-2, 2 ** 70).map(str), _JUNK),
    "tol": _REAL, "p": _REAL, "lam": _REAL,
}
_NAMED_TARGET = st.one_of(
    st.tuples(st.sampled_from(["noisy", "broadcast"]), _SIZE).map(lambda fd: "-phi-".join(fd)),
    st.text(max_size=6).map(lambda text: f"noisy-phi-{text}"))


def _scenario_argv(files):
    """argv over the parser's own scenario table: each scenario's positionals,
    then any subset of its options, each with a value drawn for its dest (a
    dest with no strategy here is a KeyError, so a new argument is fuzzed too)."""
    parser = _parser()
    (scenarios,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    files = st.sampled_from(files)
    values = dict(_VALUES, mu_path=files, rho_path=files, target_name=_NAMED_TARGET | files)
    commands = []
    for name, sub in scenarios.choices.items():
        parts = [st.just([name])]
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            value = values[action.dest]
            if action.option_strings:
                flag = action.option_strings[0]
                parts.append(st.just([]) | value.map(lambda v, flag=flag: [flag, v]))
            else:
                parts.append(value.map(lambda v: [v]))
        commands.append(st.tuples(*parts))
    formats = st.sampled_from([[], ["--format", "csv"], ["--format", "json-like-keyvalue"]])
    return st.tuples(formats, st.one_of(commands)).map(
        lambda drawn: drawn[0] + [token for part in drawn[1] for token in part])


def _not_json(literal):
    raise ValueError(f"{literal} is not JSON")


def test_drawn_argv_exits_with_a_documented_code(tmp_path_factory):
    files = [str(path) for path in _broadcast_files(tmp_path_factory.mktemp("fuzz"))]

    @settings(max_examples=200, deadline=None)
    @given(_scenario_argv(files))
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code in (0, 4) and argv[:2] == ["--format", "json-like-keyvalue"]:
            # strict JSON: no NaN or Infinity literals
            json.loads(out.getvalue(), parse_constant=_not_json)

    run()


def _keyvalue_reference(report):
    """``to_keyvalue`` through ``json.dumps`` of the whole document: the render's reference."""
    doc = {"scenario": report.scenario, "version": __version__,
           "parameters": dict(report.parameters),
           "results": {name: {"value": row.value, "tol": row.tol}
                       for name, row in report.results.items()},
           "checks": dict(report.checks), "overall": report.passed}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_SCALARS = (st.none() | st.booleans() | st.integers() | st.text()
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.floats(allow_nan=True, allow_infinity=True).map(np.float64))


class TestKeyValueRender:
    """The key-value render is ``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte."""

    @pytest.mark.parametrize("parameters", [
        {},
        {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-0": -0.0, "tiny": 5e-324},
        {"none": None, "true": True, "false": False, "big": 10 ** 40, "-big": -(10 ** 30),
         "zero": 0},
        {"np": np.float64(0.1), "np-nan": np.float64(math.nan), "np-inf": np.float64(-math.inf)},
        {"text": "ρ⊗σ ≥ 0 🙂", "control": "a\x00b\tc\nd\x1fe\x7ff\"g\\h/", "": ""},
        {"ключ\n\"": "é", "nested": {"b": 1.5, "a": {}, "c": {"x": None}}},
    ], ids=["empty", "floats", "literals-ints", "numpy", "strings", "keys-nested"])
    def test_render_is_the_indented_dump(self, parameters):
        report = ScenarioReport("render", parameters=parameters)
        report.add_result("nan", math.nan, None)
        report.add_result("-inf", -math.inf, 1e-9)
        report.add_result("-0", -0.0, 0.0)
        report.add_result("np", np.float64(1.0) / 3.0, 1e300)
        report.add_check("ok", True)
        assert report.to_keyvalue() == _keyvalue_reference(report)

    def test_empty_report(self):
        report = ScenarioReport("")
        assert report.to_keyvalue() == _keyvalue_reference(report)

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.text(), st.recursive(
        _SCALARS, lambda inner: st.dictionaries(st.text(), inner, max_size=4), max_leaves=12),
        max_size=6),
        st.dictionaries(st.text(), st.floats(allow_nan=True, allow_infinity=True), max_size=4))
    def test_drawn_reports_render_as_the_dump(self, parameters, results):
        report = ScenarioReport("drawn", parameters=parameters)
        for name, value in results.items():
            report.add_result(name, value, None if value != value else abs(value))
        assert report.to_keyvalue() == _keyvalue_reference(report)

    @pytest.mark.parametrize("argv", [["werner-example"], ["rigidity"], ["dmax-ppt"],
                                      ["protocol"], ["thermo-example"],
                                      ["synthesize", "noisy-phi-2", "--m", "0"],
                                      ["synthesize", "noisy-phi-2", "--m", "1"]])
    def test_scenario_output_is_the_dump_of_its_parse(self, argv, capsys):
        main(["--format", "json-like-keyvalue", *argv])
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

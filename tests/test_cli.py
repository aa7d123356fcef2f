"""End-to-end CLI tests driving main() in process."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from stlsbb import (
    QuadraticInstance,
    RunTrace,
    SpectrumSetting,
    __version__,
    generate_instance,
    next_steplength,
    oracle,
    sweep_from_csv,
)
from stlsbb.cli import main
from stlsbb.harness import fmt17

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SRC = str(Path(__file__).resolve().parent.parent / "src")


# --s 1e150,0 --y 1e-170,0: y'y underflows to 0 while s'y = 1e-20 > 0
UNDERFLOWED = ["--s", "1e150,0", "--y", "1e-170,0"]


class TestSteps:
    def test_default_policy_value(self, capsys):
        assert main(["steps", "--s", "1,1", "--y", "1,2"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(GOLDEN, rel=1e-15)

    def test_bb1_value_exact(self, capsys):
        assert main(["steps", "--s", "1,1", "--y", "1,2", "--policy", "bb1"]) == 0
        assert capsys.readouterr().out.strip() == fmt17(2.0 / 3.0)

    def test_verify_agrees(self, capsys):
        rc = main(["steps", "--s", "1,1", "--y", "1,2", "--policy", "gamma:2",
                   "--verify"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[1].startswith("oracle ")

    def test_verify_ends_on_a_large_scale_pair(self):
        # the oracle's tolerance is below the spacing of its bracket's
        # floats here; a subprocess with a timeout fails rather than hangs
        # if the search stops ending again
        cmd = [sys.executable, "-m", "stlsbb.cli", "steps", "--s", "1,1",
               "--y", "1e4,2e4", "--policy", "bb1", "--verify"]
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=30,
                              env={**os.environ, "PYTHONPATH": path})
        assert done.returncode == 0, done.stderr
        lines = done.stdout.strip().split("\n")
        assert float(lines[0]) == 2.0 / 3e4  # ss / sy
        assert lines[1].startswith("oracle ")

    def test_verify_catches_disagreement(self, capsys):
        # an absurdly tight tolerance forces the disagreement branch
        rc = main(["steps", "--s", "1,1", "--y", "1,2", "--policy", "gamma:2",
                   "--verify", "--tol", "1e-18"])
        assert rc == 2
        assert "disagree" in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["bb1", "bb2", "gamma:1", "gammaPrime:1", "tau:0.3"])
    @pytest.mark.parametrize("y", ["1e12,1e12", "1e-12,1e-12"])
    def test_verify_agrees_at_any_scale(self, capsys, policy, y):
        assert main(["steps", "--s", "1,0.2", "--y", y, "--policy", policy, "--verify"]) == 0
        alpha, oracle_line = capsys.readouterr().out.strip().split("\n")
        ref = float(oracle_line.split()[1])
        assert abs(ref - float(alpha)) <= 1e-7 * ref

    def test_verify_compares_relative_to_the_oracle(self, capsys, monkeypatch):
        # an oracle off by a factor of 2 on a steplength of about 1e-12
        # differs from it by only about 1e-12, far below a tolerance of 1e-6
        # read against 1
        monkeypatch.setattr(oracle, "oracle_steplength",
                            lambda policy, pair: 2.0 * next_steplength(policy, pair))
        assert main(["steps", "--s", "1,0.2", "--y", "1e12,1e12", "--policy", "bb1",
                     "--verify"]) == 2
        assert "disagree" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tolerance_outside_its_range_is_a_usage_error(self, capsys, tol):
        # a nan or inf tolerance would pass every pair, and one of 0 or
        # below would fail every pair
        with pytest.raises(SystemExit) as exc:
            main(["steps", "--s", "1,1", "--y", "1,2", "--policy", "bb1", "--verify",
                  "--tol", tol])
        assert exc.value.code == 1
        assert f"argument --tol: tol must lie in (0, inf), got '{tol}'" in capsys.readouterr().err

    def test_unknown_policy_is_a_library_error(self, capsys):
        assert main(["steps", "--s", "1,1", "--y", "1,2", "--policy", "bb9"]) == 2
        assert "stlsbb:" in capsys.readouterr().err

    def test_malformed_vector_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["steps", "--s", "1,oops", "--y", "1,2"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv, kind", [
        (["steps", "--s", "1,oops", "--y", "1,2"], "vector"),
        (["rosenbrock", "--epsilons", "0.1,x"], "float list"),
        (["bench", "--settings", "1,x"], "int list"),
    ])
    def test_list_errors_name_the_list(self, capsys, argv, kind):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert f"not a comma-separated {kind}: " in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["bb2", "gammaPrime:1", "tau:0.5"])
    def test_underflowed_divisor_prints_inf(self, capsys, policy):
        # y'y underflows to 0 while s'y = 1e-20 > 0; each rule divides by it
        assert main(["steps", *UNDERFLOWED, "--policy", policy]) == 0
        assert capsys.readouterr().out == "inf\n"

    @pytest.mark.parametrize("pair", [UNDERFLOWED, ["--s", "1e-170,0", "--y", "1e150,0"],
                                      ["--s", "1e200,0", "--y", "1e-150,0"],
                                      ["--s", "1e-150,0", "--y", "1e200,0"]])
    @pytest.mark.parametrize("policy", ["bb2", "gamma:1", "gammaPrime:1", "bb1"])
    def test_oracle_names_an_underflowed_fit(self, capsys, pair, policy):
        # y'y (or s's on the mirrored pair) underflows to 0, or on the last
        # two pairs s's (or y'y) overflows to inf: every oracle fit names
        # the pair degenerate instead of searching
        assert main(["steps", *pair, "--policy", policy, "--verify"]) == 2
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 1  # the closed form, and no oracle line
        assert err.startswith("stlsbb: ") and "underflows" in err and "Traceback" not in err

    def test_policy_help_names_every_kind(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # so argparse does not wrap it
        with pytest.raises(SystemExit):
            main(["steps", "--help"])
        assert "bb1 | bb2 | gamma:G | gammaPrime:G | tau:T | atc:C\n" in capsys.readouterr().out

    def test_nonpositive_curvature_reported(self, capsys):
        # the = form keeps argparse from reading the leading minus as a flag
        assert main(["steps", "--s", "1,0", "--y=-1,0"]) == 2
        assert "stlsbb:" in capsys.readouterr().err


class TestQuad:
    def test_solve_writes_trace_and_instance(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        inst_path = tmp_path / "inst.json"
        rc = main([
            "quad", "--n", "20", "--kappa", "500", "--epsilon", "1e-4",
            "--policy", "bb1", "--trace", str(trace_path),
            "--save-instance", str(inst_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "termination=gradient_tolerance" in out
        tr = RunTrace.from_json(trace_path.read_text())
        assert tr.solved and tr.meta["policy"] == "bb1"
        inst = QuadraticInstance.from_json(inst_path.read_text())
        assert inst.dim == 20 and inst.kappa == 500.0

    def test_loaded_instance_reproduces_run(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        main(["quad", "--n", "20", "--kappa", "500", "--epsilon", "1e-4",
              "--save-instance", str(inst_path)])
        first = capsys.readouterr().out
        main(["quad", "--instance", str(inst_path), "--epsilon", "1e-4"])
        second = capsys.readouterr().out
        assert first.split("iterations=")[1] == second.split("iterations=")[1]

    def test_generate_only(self, capsys):
        rc = main(["quad", "--n", "20", "--kappa", "500", "--generate-only"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("instance n=20")
        assert "iterations=" not in out

    def test_generate_only_names_missing_provenance(self, tmp_path, capsys):
        # a hand-built instance records no setting, kappa or seed
        path = tmp_path / "hand.json"
        e = np.eye(3)
        path.write_text(QuadraticInstance(3, e[0], e[1], e[2], [1, 2, 3], [1, 1, 1]).to_json())
        assert main(["quad", "--instance", str(path), "--generate-only"]) == 0
        assert capsys.readouterr().out == "instance n=3 setting=none kappa=none seed=none\n"
        assert main(["quad", "--n", "20", "--kappa", "500", "--generate-only"]) == 0
        assert capsys.readouterr().out == "instance n=20 setting=1 kappa=500 seed=0\n"

    def test_cap_exit_code(self, capsys):
        rc = main(["quad", "--n", "20", "--kappa", "500", "--epsilon", "1e-8",
                   "--max-iter", "3"])
        assert rc == 2
        assert "termination=iteration_cap" in capsys.readouterr().out

    def test_missing_instance_file(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["quad", "--instance", "/no/such/file.json"])
        assert exc.value.code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_unwritable_path_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "missing" / "inst.json"
        with pytest.raises(SystemExit) as exc:
            main(["quad", "--n", "20", "--generate-only", "--save-instance", str(path)])
        assert exc.value.code == 1
        assert f"stlsbb: cannot write {path}: " in capsys.readouterr().err

    def test_invalid_setting_is_exit_2(self, capsys):
        assert main(["quad", "--n", "20", "--setting", "9"]) == 2

    def test_recipe_below_its_dimension_floor_is_exit_2(self, tmp_path, capsys):
        # recipes 6 and 7 need n >= 11: one line and exit 2, or a failed cell
        assert main(["quad", "--n", "10", "--setting", "6"]) == 2
        err = capsys.readouterr().err
        assert err == "stlsbb: recipe 6 needs n >= 11, got 10\n"
        out = tmp_path / "cells.csv"
        main(["bench", "--n", "10", "--settings", "7", "--kappas", "1e4", "--seeds", "1",
              "--policies", "bb1", "--quiet", "--out", str(out)])
        capsys.readouterr()
        assert out.read_text().splitlines()[-1].endswith(",error:DimensionTooSmallError")

    def test_overflow_ends_nonfinite(self, capsys):
        with np.errstate(all="ignore"):
            rc = main(["quad", "--n", "50", "--alpha0", "1e300", "--max-iter", "200"])
        assert rc == 2
        assert "termination=nonfinite" in capsys.readouterr().out

    def test_overflow_prints_no_warning(self, capsys):
        # the termination names the overflow; numpy's RuntimeWarnings, which
        # would reach stderr through the warnings module, must not repeat it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["quad", "--n", "50", "--alpha0", "1e300", "--max-iter", "200"])
        assert rc == 2
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        out, err = capsys.readouterr()
        assert "termination=nonfinite" in out
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("policy", ["bb1", "bb2", "gamma:1", "gammaPrime:1", "tau:0.5",
                                        "atc:3"])
    def test_underflowing_curvature_prints_no_warning(self, tmp_path, capsys, policy):
        # A = 1e-310 I: ||Ag||^2 underflows to 0 and the first steplength
        # divides by it
        e1 = [1.0, 0.0, 0.0]
        inst = QuadraticInstance(3, e1, e1, e1, [1e-310] * 3, [1.0, 2.0, 3.0])
        path = tmp_path / "inst.json"
        path.write_text(inst.to_json())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["quad", "--instance", str(path), "--policy", policy])
        assert rc == 2
        assert caught == []
        out, err = capsys.readouterr()
        assert "iterations=2 termination=nonfinite" in out
        assert err == ""


class TestRosenbrock:
    def test_table_and_csv(self, tmp_path, capsys):
        out_path = tmp_path / "table.csv"
        rc = main(["rosenbrock", "--epsilons", "0.1", "--policies", "gamma:1",
                   "--max-iter", "300", "--out", str(out_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("epsilon")
        assert "gamma:1" in out
        assert out_path.read_text().startswith("# stlsbb-rosenbrock-v1")

    def test_bad_policy_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["rosenbrock", "--policies", "bb1,whatnot"])
        assert exc.value.code == 1

    def test_empty_policy_list_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rosenbrock", "--policies", ","])
        assert exc.value.code == 1
        assert "empty policy list" in capsys.readouterr().err


class TestBench:
    def run_bench(self, tmp_path, extra=()):
        cells_path = tmp_path / "cells.csv"
        argv = [
            "bench", "--n", "20", "--settings", "1", "--kappas", "500",
            "--epsilons", "1e-4", "--seeds", "2", "--policies", "bb1,gamma:1",
            "--quiet", "--out", str(cells_path),
        ] + list(extra)
        return main(argv), cells_path

    def test_sweep_outputs(self, tmp_path, capsys):
        prof_path = tmp_path / "prof.csv"
        avg_path = tmp_path / "avg.csv"
        rc, cells_path = self.run_bench(
            tmp_path, ["--profile", str(prof_path), "--averages", str(avg_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("# stlsbb-averages-v1")
        cells = sweep_from_csv(cells_path.read_text())
        assert len(cells) == 4
        assert all(c.status == "ok" for c in cells)
        assert prof_path.read_text().startswith("# stlsbb-profile-v1")
        assert avg_path.read_text() == out

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        dir_a.mkdir()
        dir_b.mkdir()
        _, path1 = self.run_bench(dir_a)
        _, path2 = self.run_bench(dir_b)
        capsys.readouterr()
        assert path1.read_text() == path2.read_text()

    def test_repeated_grid_value_is_exit_2(self, tmp_path, capsys):
        rc, path = self.run_bench(tmp_path, ["--seeds", "0,0", "--policies", "bb1,bb1,bb2"])
        assert rc == 2
        assert "repeats" in capsys.readouterr().err
        assert not path.exists()

    def test_empty_dimension_or_cap_is_exit_2(self, capsys):
        for flag in ("--n", "--max-iter"):
            rc = main(["bench", flag, "0", "--seeds", "1", "--quiet"])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("stlsbb: ") and err.count("\n") == 1
            assert "must be >= 1" in err

    @pytest.mark.parametrize("seeds", ["x", "1,x"])
    def test_bad_seeds_are_a_usage_error(self, capsys, seeds):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--seeds", seeds])
        assert exc.value.code == 1
        assert f"not a seed count or list: {seeds!r}" in capsys.readouterr().err

    def test_json_cells(self, tmp_path, capsys):
        cells_path = tmp_path / "cells.json"
        rc = main([
            "bench", "--n", "20", "--kappas", "500", "--epsilons", "1e-4",
            "--seeds", "1", "--policies", "bb1,bb2", "--quiet", "--json",
            "--out", str(cells_path),
        ])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(cells_path.read_text())
        assert doc["format"] == "stlsbb-sweep-v1"
        assert len(doc["cells"]) == 2

    def test_seed_list_argument(self, tmp_path, capsys):
        cells_path = tmp_path / "cells.csv"
        rc = main([
            "bench", "--n", "20", "--kappas", "500", "--epsilons", "1e-4",
            "--seeds", "3,8", "--policies", "bb1", "--quiet",
            "--out", str(cells_path),
        ])
        capsys.readouterr()
        assert rc == 0
        assert [c.seed for c in sweep_from_csv(cells_path.read_text())] == [3, 8]


class TestProfile:
    def test_from_cost_matrix(self, tmp_path, capsys):
        costs = tmp_path / "costs.csv"
        costs.write_text("problem,a,b\np1,10,20\np2,20,20\n")
        assert main(["profile", "--costs", str(costs)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[1] == "theta,a,b"
        assert lines[2] == f"{fmt17(1.0)},{fmt17(1.0)},{fmt17(0.5)}"

    def test_out_file_prints_summary(self, tmp_path, capsys):
        costs = tmp_path / "costs.csv"
        costs.write_text("problem,a,b\np1,10,20\np2,20,20\n")
        out_path = tmp_path / "profile.csv"
        assert main(["profile", "--costs", str(costs), "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "b: solves 1.000, rho(1)=0.500, rho(2)=1.000" in out
        assert out_path.read_text().startswith("# stlsbb-profile-v1")

    def test_from_bench_cells(self, tmp_path, capsys):
        cells_path = tmp_path / "cells.csv"
        main([
            "bench", "--n", "20", "--kappas", "500", "--epsilons", "1e-4",
            "--seeds", "2", "--policies", "bb1,gamma:1", "--quiet",
            "--out", str(cells_path),
        ])
        capsys.readouterr()
        assert main(["profile", "--cells", str(cells_path)]) == 0
        assert capsys.readouterr().out.startswith("# stlsbb-profile-v1")

    def test_all_failed_is_exit_2(self, tmp_path, capsys):
        costs = tmp_path / "costs.csv"
        costs.write_text("problem,a,b\np1,fail,--\n")
        assert main(["profile", "--costs", str(costs)]) == 2
        assert "stlsbb:" in capsys.readouterr().err

    def test_sources_are_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--costs", "x.csv", "--cells", "y.csv"])
        assert exc.value.code == 1

    def test_profiles_leave_numpy_ma_unimported(self, tmp_path):
        # np.unique imports all of numpy.ma on its first call; the import
        # of the CLI alone loads neither numpy.ma nor numpy.random
        (tmp_path / "costs.csv").write_text("problem,a,b\np1,10,20\np2,20,fail\n")
        script = (
            "import sys\n"
            "import stlsbb.cli\n"
            "print(sorted(m for m in ('numpy.ma', 'numpy.random') if m in sys.modules))\n"
            "stlsbb.cli.main(['profile', '--costs', 'costs.csv', '--out', 'p1.csv'])\n"
            "stlsbb.cli.main(['bench', '--n', '10', '--seeds', '2', '--policies', 'bb1,bb2',\n"
            "                 '--quiet', '--profile', 'p2.csv'])\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=60, cwd=tmp_path, env={**os.environ, "PYTHONPATH": path})
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0] == "[]"
        assert lines[-1] == "False"
        assert (tmp_path / "p1.csv").exists() and (tmp_path / "p2.csv").exists()


def _instance_doc(drop=None, **changes):
    d = generate_instance(5, SpectrumSetting(1, 500.0), 0).to_dict()
    d.update(changes)
    d.pop(drop, None)
    return json.dumps(d)


_SWEEP_HEAD = "setting,kappa,epsilon,seed,n,policy,max_iter,iterations,status\n"

INPUT_FILES = {
    "instance-missing-key": (["quad", "--instance"], _instance_doc(drop="w1"), 1),
    "instance-missing-dim": (["quad", "--instance"], _instance_doc(drop="dim"), 1),
    "instance-not-json": (["quad", "--instance"], "{not json", 1),
    "instance-text-eigenvalue": (
        ["quad", "--instance"], _instance_doc(eigenvalues=["one"] * 5), 1
    ),
    "costs-text-cell": (["profile", "--costs"], "problem,a,b\np1,10,twenty\n", 1),
    "costs-wider-rows": (["profile", "--costs"], "problem,a,b\np1,1,2,3\n", 1),
    "costs-ragged-rows": (["profile", "--costs"], "problem,a,b\np1,1,2\np2,1\n", 1),
    "costs-narrower-rows": (["profile", "--costs"], "problem,a,b\np1,1\n", 1),
    "cells-text-kappa": (
        ["profile", "--cells"], _SWEEP_HEAD + "1,big,1e-4,0,20,bb1,100,5,ok\n", 1
    ),
    # parsed fine but rejected by validation: a failed computation, exit 2
    "instance-inf-eigenvalue": (
        ["quad", "--instance"], _instance_doc(eigenvalues=[1.0, 2.0, 3.0, 4.0, math.inf]), 2
    ),
    "instance-json-list": (["quad", "--instance"], "[1, 2]", 2),
    "costs-repeated-solver": (["profile", "--costs"], "problem,a,a\np1,10,20\n", 2),
}


@pytest.mark.parametrize("argv, text, code", list(INPUT_FILES.values()), ids=list(INPUT_FILES))
def test_bad_input_file_exit_code(tmp_path, capsys, argv, text, code):
    path = tmp_path / "input"
    path.write_text(text)
    try:
        rc = main(argv + [str(path)])
    except SystemExit as exc:
        rc = exc.code
    assert rc == code
    err = capsys.readouterr().err
    prefix = f"stlsbb: cannot parse {path}: " if code == 1 else "stlsbb: "
    assert err.startswith(prefix)


# files that parse but whose numbers or rows fail their checks: one
# "stlsbb:" line and exit 2
CHECKED_FILES = {
    "instance-text-seed-nan-kappa": (
        ["quad", "--generate-only", "--instance"], _instance_doc(seed="x", kappa=math.nan)),
    "instance-fractional-seed": (["quad", "--generate-only", "--instance"],
                                 _instance_doc(seed=2.5)),
    "instance-unknown-setting": (["quad", "--generate-only", "--instance"],
                                 _instance_doc(setting_id=9)),
    "cells-ok-without-iterations": (
        ["profile", "--cells"], _SWEEP_HEAD + "1,1e3,1e-4,0,20,bb1,100,,ok\n"
                                              "1,1e3,1e-4,0,20,bb2,100,5,ok\n"),
    "cells-repeated-cell": (
        ["profile", "--cells"], _SWEEP_HEAD + "1,1e3,1e-4,0,20,bb1,100,7,ok\n"
                                              "1,1e3,1e-4,0,20,bb1,100,5,ok\n"
                                              "1,1e3,1e-4,0,20,bb2,100,5,ok\n"),
}


@pytest.mark.parametrize("argv, text", list(CHECKED_FILES.values()), ids=list(CHECKED_FILES))
def test_a_file_failing_its_checks_is_one_line_and_exit_2(tmp_path, capsys, argv, text):
    path = tmp_path / "input"
    path.write_text(text)
    assert main(argv + [str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("stlsbb: ") and err.count("\n") == 1


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"stlsbb {__version__}"

    def test_missing_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

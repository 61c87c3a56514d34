import io
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import dispersat
from dispersat import cli, dispersion, ppz
from dispersat.cli import probe_speedup, run
from dispersat.brute import enumerate_solutions
from dispersat.cnf import Assignment
from dispersat.generators import planted_kcnf
from dispersat.measures import SolutionCollection
from dispersat.ppz import tau_exact


OR2 = "p cnf 2 1\n1 2 0\n"
WIDE7 = "p cnf 7 1\n1 2 3 4 5 6 7 0\n"
UNSAT = "p cnf 1 2\n1 0\n-1 0\n"
TRIPLE = "p cnf 3 1\n1 2 3 0\n"


@pytest.fixture
def or2(tmp_path):
    path = tmp_path / "or2.cnf"
    path.write_text(OR2)
    return str(path)


def capture(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


class TestDiameter:
    def test_fwht_json(self, or2, capsys):
        code = run(["diameter", "--algo", "fwht", or2])
        data = capture(capsys)
        assert code == 0
        assert data["status"] == "OK"
        assert data["values"]["distance"] == 2
        assert sorted(data["assignments"]) == ["01", "10"]
        assert data["schema_version"] == 1

    def test_unsat_exit_code(self, tmp_path, capsys):
        path = tmp_path / "unsat.cnf"
        path.write_text(UNSAT)
        code = run(["diameter", "--algo", "fwht", str(path)])
        data = capture(capsys)
        assert code == 1
        assert data["status"] == "UNSAT"

    @pytest.mark.parametrize("algo", ["minones", "ppz", "schoening"])
    def test_other_algos(self, or2, capsys, algo):
        code = run(["diameter", "--algo", algo, "--seed", "5", or2])
        data = capture(capsys)
        assert code == 0
        assert data["values"]["distance"] >= 1  # half the true diameter 2


class TestTooLarge:
    """A refused instance ends in a TOO_LARGE report, not a traceback."""

    def test_fwht_diameter_above_limit(self, tmp_path, capsys):
        path = tmp_path / "n27.cnf"
        path.write_text("p cnf 27 1\n1 2 0\n")
        code = run(["diameter", "--algo", "fwht", str(path)])
        data = capture(capsys)
        assert code == 1
        assert data["status"] == "TOO_LARGE"
        assert "n=27 exceeds FWHT limit 26" in data["message"]
        assert data["assignments"] == []

    def test_ppz_disperse_ball_above_cap(self, tmp_path, capsys):
        formula, _ = planted_kcnf(40, 3, 160, np.random.default_rng(0))
        path = tmp_path / "n40.cnf"
        path.write_text(formula.to_dimacs())
        code = run(
            ["disperse", "--s", "3", "--objective", "min", "--algo", "ppz", str(path)]
        )
        data = capture(capsys)
        assert code == 1
        assert data["status"] == "TOO_LARGE"
        assert "above the cap" in data["message"]

    @pytest.mark.parametrize(
        "argv, asked",
        [
            ("diameter --algo ppz --seed 3 -", 40638),
            ("diameter --algo ppz --repetitions 101 --seed 3 -", 101),
            ("disperse --s 3 --algo ppz --seed 3 -", 40638),
            ("disperse --s 3 --algo ppz --objective sum --seed 3 -", 40638),
        ],
        ids=["diameter", "diameter-repetitions", "disperse-min", "disperse-sum"],
    )
    def test_ppz_budget_above_cap_is_refused(self, monkeypatch, capsys, argv, asked):
        """A PPZ budget above the cap used to be cut to it silently and
        reported OK; it is refused, and the message names both counts."""
        monkeypatch.setattr(ppz, "HARD_REPETITION_CAP", 100)
        monkeypatch.setattr(sys, "stdin", io.StringIO(F10))
        assert run(argv.split()) == 1
        data = capture(capsys)
        assert data["status"] == "TOO_LARGE"
        assert data["message"] == (
            f"PPZ budget of {asked} samples (n=10) is above the cap of 100"
        )

    def test_ppz_diameter_n23_refused_at_once(self, tmp_path, capsys):
        """From n=23 (k=3) the paper's PPZ budget exceeds 2^26 samples."""
        formula, _ = planted_kcnf(23, 3, 92, np.random.default_rng(0))
        path = tmp_path / "n23.cnf"
        path.write_text(formula.to_dimacs())
        started = time.perf_counter()
        code = run(["diameter", "--algo", "ppz", str(path)])
        data = capture(capsys)
        assert time.perf_counter() - started < 1
        assert code == 1
        assert data["status"] == "TOO_LARGE"
        assert f"(n=23) is above the cap of {1 << 26}" in data["message"]

    def test_exact_disperse_refusal_names_the_option(self, tmp_path, capsys):
        """`disperse` has no `--limit`; the refusal points at the one
        command that has."""
        path = tmp_path / "n30.cnf"
        path.write_text("p cnf 30 1\n1 2 0\n")
        code = run(["disperse", "--s", "3", "--algo", "exact", str(path)])
        data = capture(capsys)
        assert code == 1
        assert data["status"] == "TOO_LARGE"
        assert "n=30 exceeds enumeration limit 24" in data["message"]
        assert "raise `limit` explicitly" not in data["message"]
        assert "`enumerate --limit`" in data["message"]

    @pytest.mark.parametrize("command", ["disperse", "diameter"])
    def test_schoening_anchored_search_above_cap(self, tmp_path, capsys, command):
        formula, _ = planted_kcnf(40, 3, 160, np.random.default_rng(0))
        path = tmp_path / "n40.cnf"
        path.write_text(formula.to_dimacs())
        argv = [command, "--algo", "schoening", str(path)]
        if command == "disperse":
            argv[1:1] = ["--s", "3"]
        started = time.perf_counter()
        code = run(argv)
        data = capture(capsys)
        assert time.perf_counter() - started < 5
        assert code == 1
        assert data["status"] == "TOO_LARGE"
        assert "5455654316 walks (n=40), above the cap" in data["message"]

    @pytest.mark.parametrize("command", ["disperse", "diameter"])
    def test_schoening_first_call_checked_before_the_seed_solve(
        self, tmp_path, capsys, monkeypatch, command
    ):
        """At n=32, k=3 one start plans under the cap and the first oracle
        call's two starts plan over it, so the check must count two."""

        def solve(formula, cfg):
            raise AssertionError("the seed solve ran before the cap check")

        monkeypatch.setattr(cli, "schoning_solve_counted", solve)
        monkeypatch.setattr(dispersion, "schoning_solve_counted", solve)
        formula, _ = planted_kcnf(32, 3, 128, np.random.default_rng(0))
        path = tmp_path / "n32.cnf"
        path.write_text(formula.to_dimacs())
        argv = [command, "--algo", "schoening", str(path)]
        if command == "disperse":
            argv[1:1] = ["--s", "3"]
        code = run(argv)
        data = capture(capsys)
        assert code == 1
        assert data["status"] == "TOO_LARGE"
        assert "114465556 walks (n=32), above the cap" in data["message"]


    @pytest.mark.parametrize("n", [8, 40])
    def test_schoening_sum_distinct_is_a_usage_error_at_any_size(
        self, tmp_path, capsys, n
    ):
        """The unsupported objective is refused before the plan's cap
        check, so a large formula gets the same usage error as a small one."""
        formula, _ = planted_kcnf(n, 3, 4 * n, np.random.default_rng(0))
        path = tmp_path / f"n{n}.cnf"
        path.write_text(formula.to_dimacs())
        argv = ["disperse", "--s", "3", "--objective", "sum-distinct"]
        assert run(argv + ["--algo", "schoening", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sum-distinct dispersion is available with --algo ppz" in captured.err

    def test_clique_block_above_cap(self, tmp_path, capsys):
        """1024 solutions at s=4 would need a C(1024,2) x 1024 int64 block."""
        path = tmp_path / "free10.cnf"
        path.write_text("p cnf 10 0\n")
        started = time.perf_counter()
        code = run(["disperse", "--s", "4", "--algo", "clique", str(path)])
        data = capture(capsys)
        assert time.perf_counter() - started < 1
        assert code == 1
        assert data["status"] == "TOO_LARGE"
        assert "block of 536346624 int64 entries exceeds" in data["message"]

    @pytest.fixture
    def free20_unenumerated(self, tmp_path, monkeypatch):
        """A formula with 2^20 solutions, which `disperse --algo clique`
        must refuse without enumerating them."""

        def enumerate_solutions(*args, **kwargs):
            raise AssertionError("solutions were enumerated before the clique checks")

        monkeypatch.setattr(cli, "enumerate_solutions", enumerate_solutions)
        path = tmp_path / "free20.cnf"
        path.write_text("p cnf 20 0\n")
        return str(path)

    @pytest.mark.parametrize("objective", ["min", "sum", "sum-distinct"])
    def test_clique_refused_from_the_solution_count(
        self, free20_unenumerated, capsys, objective
    ):
        """2^20 solutions at s=3 need a 2^20 x 2^20 block: refused from
        the count, with the message `check_clique_size` gives."""
        argv = ["disperse", "--s", "3", "--objective", objective, "--algo", "clique"]
        code = run(argv + [free20_unenumerated])
        data = capture(capsys)
        assert code == 1
        assert data["status"] == "TOO_LARGE"
        assert data["message"] == (
            "s=3 over 1048576 points: a tuple-graph block of 1099511627776 int64 "
            "entries exceeds the clique limit 16777216"
        )

    def test_clique_usage_error_before_the_cap(self, free20_unenumerated, capsys):
        """s = 2 stays a usage error however many solutions there are."""
        assert run(["disperse", "--s", "2", "--algo", "clique", free20_unenumerated]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "s must be >= 3 (use the pairwise maximum for s=2)" in captured.err

    def test_diverse_min_deepening_refused_on_a_60_vertex_path(self, tmp_path, capsys):
        """With s = 1 no anchored search runs; the OPT search (OPT = 30)
        is refused at its first level above schoning._LEVEL_NODES."""
        path = tmp_path / "path60.txt"
        path.write_text("60 59\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 60)))
        started = time.perf_counter()
        code = run(["diverse-min", "--problem", "vc", "--s", "1", str(path)])
        data = capture(capsys)
        assert time.perf_counter() - started < 5
        assert code == 1
        assert data["status"] == "TOO_LARGE"
        assert "level 21 would hold 2097152 nodes, above the cap" in data["message"]

    def test_schoening_seed_solve_above_cap(self, tmp_path, capsys):
        """At n=26, k=4 the anchored search plans under the cap but the
        seed solve asks for more restarts than it allows: refused at
        once, where the restarts used to be cut to the cap."""
        formula, _ = planted_kcnf(26, 4, 100, np.random.default_rng(0))
        path = tmp_path / "n26.cnf"
        path.write_text(formula.to_dimacs())
        started = time.perf_counter()
        code = run(["diameter", "--algo", "schoening", str(path)])
        data = capture(capsys)
        assert time.perf_counter() - started < 1
        assert code == 1
        assert data["status"] == "TOO_LARGE"
        assert data["message"] == (
            "Schoening budget of 102418739 restarts (n=26) is above the cap of "
            f"{1 << 26}"
        )

    def test_exact_disperse_pool_refused_under_a_memory_cap(self, tmp_path):
        """2^16 solutions would need a 2^32-entry distance matrix (32 GiB):
        refused from the pool size, so a child whose address space is
        capped at 3 GB still prints its report."""
        pytest.importorskip("resource")
        path = tmp_path / "free16.cnf"
        path.write_text("p cnf 16 0\n")
        src = str(Path(dispersat.__file__).resolve().parents[1])
        cap = 3 * 10**9
        child = (
            "import resource, runpy, sys; "
            f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap})); "
            "runpy.run_module('dispersat.cli', run_name='__main__')"
        )
        argv = ["disperse", "--s", "2", "--algo", "exact", str(path)]
        # the child gets no PYTHONDONTWRITEBYTECODE from env; -B keeps the choice
        bytecode = ["-B"] if sys.flags.dont_write_bytecode else []
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, *bytecode, "-c", child, *argv],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
            timeout=120,
        )
        assert time.perf_counter() - started < 5
        assert done.returncode == 1, done.stderr
        data = json.loads(done.stdout)
        assert data["status"] == "TOO_LARGE"
        assert data["message"] == (
            "65536 qualifying solutions: 4294967296 pairwise distances exceed "
            "the limit 16777216"
        )


class TestEffort:
    """--effort must be finite and positive: an infinite one ended in an
    OverflowError traceback, and 0 or a negative one silently ran the
    one-repetition minimum."""

    @pytest.mark.parametrize("effort", ["inf", "nan", "0", "-1"])
    @pytest.mark.parametrize(
        "argv, text",
        [
            (["disperse", "--s", "2", "--algo", "ppz"], OR2),
            (["diameter", "--algo", "schoening"], OR2),
            (["diverse-min", "--problem", "hs", "--s", "2"], "1 2\n3 4\n"),
        ],
        ids=["disperse-ppz", "diameter-schoening", "diverse-min"],
    )
    def test_rejected_as_usage_error(self, tmp_path, capsys, argv, text, effort):
        path = tmp_path / "input.txt"
        path.write_text(text)
        assert run(argv + [f"--effort={effort}", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "effort must be finite and > 0" in captured.err


class TestModuleEntry:
    def test_python_m_prints_a_report(self, tmp_path):
        path = tmp_path / "or2.cnf"
        path.write_text(OR2)
        src = str(Path(dispersat.__file__).resolve().parents[1])
        # the child gets no PYTHONDONTWRITEBYTECODE from env; -B keeps the choice
        bytecode = ["-B"] if sys.flags.dont_write_bytecode else []
        argv = ["-m", "dispersat.cli", "diameter", "--algo", "fwht", str(path)]
        done = subprocess.run(
            [sys.executable, *bytecode, *argv],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src},
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        data = json.loads(done.stdout)
        assert data["status"] == "OK" and data["values"]["distance"] == 2


class TestDisperse:
    @pytest.mark.parametrize("algo", ["exact", "fwht", "ppz", "schoening"])
    def test_min_objective(self, or2, capsys, algo):
        code = run(
            ["disperse", "--s", "2", "--objective", "min", "--algo", algo, or2]
        )
        data = capture(capsys)
        assert code == 0
        assert data["values"]["minPD"] >= 1
        assert len(data["assignments"]) == 2

    def test_clique_algo(self, or2, capsys):
        code = run(
            ["disperse", "--s", "3", "--objective", "min", "--algo", "clique", or2]
        )
        data = capture(capsys)
        assert code == 0
        assert data["values"]["minPD"] == 1

    @pytest.mark.parametrize("objective", ["min", "sum", "sum-distinct"])
    def test_clique_unsat(self, tmp_path, capsys, objective):
        path = tmp_path / "unsat.cnf"
        path.write_text("p cnf 3 2\n1 0\n-1 0\n")
        argv = ["disperse", "--s", "3", "--objective", objective, "--algo", "clique"]
        code = run(argv + [str(path)])
        data = capture(capsys)
        assert code == 1
        assert data["status"] == "UNSAT"

    def test_weighted(self, tmp_path, capsys):
        path = tmp_path / "triple.cnf"
        path.write_text(TRIPLE)
        code = run(
            [
                "disperse",
                "--s",
                "2",
                "--algo",
                "schoening",
                "--weight-min",
                "2",
                "--delta",
                "1/2",
                "--effort",
                "4",
                str(path),
            ]
        )
        data = capture(capsys)
        assert code == 0
        assert all(z.count("1") >= 1 for z in data["assignments"])

    def test_weight_flags_exclusive(self, or2, capsys):
        code = run(
            [
                "disperse",
                "--s",
                "2",
                "--algo",
                "schoening",
                "--weight-min",
                "1",
                "--weight-max",
                "1",
                or2,
            ]
        )
        assert code == 2

    def test_usage_error_weight_with_fwht(self, or2):
        code = run(
            ["disperse", "--s", "2", "--algo", "fwht", "--weight-min", "1", or2]
        )
        assert code == 2

    @pytest.mark.parametrize("flag", ["--weight-min", "--weight-max"])
    def test_usage_error_weight_with_schoening_sum(self, tmp_path, capsys, flag):
        """The Schoening sum driver has no weight constraint, so a weight
        flag is refused rather than dropped."""
        path = tmp_path / "triple.cnf"
        path.write_text(TRIPLE)
        argv = ["disperse", "--s", "3", "--objective", "sum", "--algo", "schoening"]
        assert run(argv + [flag, "2", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--algo schoening with --objective min" in captured.err


class TestDeltaRule:
    """--delta and --variant are checked by the plan's one admissibility rule."""

    @pytest.mark.parametrize(
        "delta, code", [("2/3", 0), ("2003/3000", 2), ("0", 2), ("-1/2", 2)]
    )
    def test_bound_at_k7(self, tmp_path, capsys, delta, code):
        path = tmp_path / "wide7.cnf"
        path.write_text(WIDE7)
        argv = ["disperse", "--s", "2", "--algo", "schoening", f"--delta={delta}"]
        assert run(argv + [str(path)]) == code
        if code == 2:
            assert "must lie in (0, 2/3]" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", ["5", "0"])
    def test_schoening_delta_rejected(self, or2, capsys, delta):
        argv = ["disperse", "--s", "2", "--algo", "schoening", "--delta", delta]
        assert run(argv + [or2]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"delta {delta} must lie in (0, 1]" in captured.err

    def test_variant_needs_width(self, or2, capsys):
        assert run(["diameter", "--algo", "schoening", "--variant", "v2", or2]) == 2
        assert "variant v2 needs k >= 3, got k=2" in capsys.readouterr().err


class TestEnumerateReduce:
    def test_enumerate(self, or2, capsys):
        code = run(["enumerate", or2])
        data = capture(capsys)
        assert code == 0
        assert data["assignments"] == ["01", "10", "11"]

    def test_enumerate_unsat(self, tmp_path, capsys):
        path = tmp_path / "u.cnf"
        path.write_text(UNSAT)
        assert run(["enumerate", str(path)]) == 1
        capsys.readouterr()

    def test_reduce_emits_dimacs(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("3 3\n1 2\n2 3\n1 3\n")
        code = run(["reduce", "--problem", "vc", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("p cnf 3 3")
        assert "1 2 0" in out

    def test_bad_dimacs_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cnf"
        path.write_text("p cnf 1 1\n2 0\n")
        assert run(["diameter", str(path)]) == 2


class TestDiverseMin:
    def test_hitting_set(self, tmp_path, capsys):
        path = tmp_path / "fam.txt"
        path.write_text("1 2\n3 4\n")
        code = run(
            [
                "diverse-min",
                "--problem",
                "hs",
                "--s",
                "2",
                "--delta",
                "1/2",
                "--effort",
                "2",
                str(path),
            ]
        )
        data = capture(capsys)
        assert code == 0
        assert data["values"]["minPD"] >= 1
        assert all(size <= 3 for size in data["values"]["sizes"])

    def test_refuses_a_non_hitting_member(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "fam.txt"
        path.write_text("1 2\n3 4\n")
        misses = SolutionCollection([Assignment(4, 0b1100)], distinct=True)
        monkeypatch.setattr(cli, "diverse_min", lambda *args: misses)
        with pytest.raises(AssertionError, match="refusing to emit"):
            run(["diverse-min", "--problem", "hs", "--s", "1", str(path)])
        assert capsys.readouterr().out == ""


GRAPH12 = (
    "12 18\n1 2\n1 5\n2 3\n2 7\n3 4\n3 9\n4 5\n4 11\n5 6\n6 7\n6 12\n"
    "7 8\n8 9\n8 12\n9 10\n10 11\n10 12\n11 1\n"
)
FAMILY8 = "1 2 3\n3 4 5\n5 6 7\n7 8 1\n2 6\n4 8\n"


class TestDiverseMinGolden:
    """Seeded `diverse-min` reports, pinned byte for byte apart from
    `wall_time_ms`, so that refactors keep the seeded outputs."""

    @pytest.mark.parametrize(
        "text, argv, expected",
        [
            (
                GRAPH12,
                "diverse-min --problem vc --s 3 --delta 1/2 --seed 7 -",
                '{"assignments": ["111101010100", "010110101011", "101010110111"], '
                '"command": "diverse-min --problem vc --s 3 --delta 1/2 --seed 7 -", '
                '"counters": {}, "schema_version": 1, "seed": 7, "status": "OK", '
                '"values": {"minPD": 7, "sizes": [7, 7, 8]}}',
            ),
            (
                FAMILY8,
                "diverse-min --problem hs --s 1 --delta 1/2 --seed 8 -",
                '{"assignments": ["10010100"], '
                '"command": "diverse-min --problem hs --s 1 --delta 1/2 --seed 8 -", '
                '"counters": {}, "schema_version": 1, "seed": 8, "status": "OK", '
                '"values": {"minPD": 9, "sizes": [3]}}',
            ),
            (
                FAMILY8,
                "diverse-min --problem hs --s 2 --delta 1/2 --seed 9 -",
                '{"assignments": ["10010100", "01001011"], '
                '"command": "diverse-min --problem hs --s 2 --delta 1/2 --seed 9 -", '
                '"counters": {}, "schema_version": 1, "seed": 9, "status": "OK", '
                '"values": {"minPD": 7, "sizes": [3, 4]}}',
            ),
        ],
        ids=["vc-s3", "hs-s1", "hs-s2"],
    )
    def test_pinned_report(self, monkeypatch, capsys, text, argv, expected):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert run(argv.split()) == 0
        data = capture(capsys)
        data.pop("wall_time_ms")
        assert json.dumps(data, sort_keys=True) == expected


F10 = (
    "p cnf 10 24\n-3 8 -9 0\n-1 -3 7 0\n4 7 -10 0\n6 -7 10 0\n1 8 -10 0\n"
    "-3 4 8 0\n1 -3 -10 0\n3 4 10 0\n1 8 10 0\n5 6 -9 0\n-7 8 -10 0\n"
    "6 7 8 0\n3 5 -10 0\n-2 -5 7 0\n6 8 10 0\n1 -4 7 0\n-3 5 10 0\n"
    "-2 6 -10 0\n5 6 -9 0\n-4 6 -7 0\n-4 7 10 0\n-3 -7 -10 0\n-3 -5 6 0\n"
    "-1 2 10 0\n"
)


class TestSchoeningGolden:
    """Seeded Schoening reports on a fixed planted 3-CNF, pinned byte for
    byte apart from `wall_time_ms`, so that refactors of the packed walk
    engine keep the seeded outputs.  At delta 1/2 the weighted oracle's
    window is a proper sub-range of the weights ([3, 10] for --weight-min
    5, [1, 7] for --weight-max 5), and at effort 0.1 its answers depend
    on the stream it draws.  Recorded under seed format 4 of the anchored
    search: a block draws one annulus index per task, then its walks'
    uniforms."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                "disperse --algo schoening --s 3 --weight-min 5 --seed 11 -",
                '{"assignments": ["1101111111", "0010110100", "0000101101"], '
                '"command": "disperse --algo schoening --s 3 --weight-min 5 --seed 11 -", '
                '"counters": {}, "schema_version": 1, "seed": 11, "status": "OK", '
                '"values": {"minPD": 4, "sumPD": 16}}',
            ),
            (
                "disperse --algo schoening --s 3 --weight-max 5 --seed 12 -",
                '{"assignments": ["0000101101", "1101011010", "0010110110"], '
                '"command": "disperse --algo schoening --s 3 --weight-max 5 --seed 12 -", '
                '"counters": {}, "schema_version": 1, "seed": 12, "status": "OK", '
                '"values": {"minPD": 5, "sumPD": 20}}',
            ),
            (
                "disperse --algo schoening --s 3 --weight-min 5 --delta 1/2 --effort 0.1 "
                "--seed 16 -",
                '{"assignments": ["1001111111", "0110111100", "1101011000"], '
                '"command": "disperse --algo schoening --s 3 --weight-min 5 --delta 1/2 '
                '--effort 0.1 --seed 16 -", "counters": {}, "schema_version": 1, '
                '"seed": 16, "status": "OK", "values": {"minPD": 5, "sumPD": 16}}',
            ),
            (
                "disperse --algo schoening --s 3 --weight-max 5 --delta 1/2 --effort 0.1 "
                "--seed 17 -",
                '{"assignments": ["1001100101", "0010110110", "1101011110"], '
                '"command": "disperse --algo schoening --s 3 --weight-max 5 --delta 1/2 '
                '--effort 0.1 --seed 17 -", "counters": {}, "schema_version": 1, '
                '"seed": 17, "status": "OK", "values": {"minPD": 6, "sumPD": 18}}',
            ),
            (
                "disperse --algo schoening --s 3 --seed 13 -",
                '{"assignments": ["0100111111", "1001100101", "1101011000"], '
                '"command": "disperse --algo schoening --s 3 --seed 13 -", '
                '"counters": {}, "schema_version": 1, "seed": 13, "status": "OK", '
                '"values": {"minPD": 6, "sumPD": 18}}',
            ),
            (
                "disperse --algo schoening --s 3 --objective sum --seed 14 -",
                '{"assignments": ["1111111100", "0000101111", "1001110001"], '
                '"command": "disperse --algo schoening --s 3 --objective sum --seed 14 -", '
                '"counters": {"oracle_calls": 5}, "schema_version": 1, "seed": 14, '
                '"status": "OK", "values": {"minPD": 5, "sumPD": 18}}',
            ),
            (
                "diameter --algo schoening --seed 15 -",
                '{"assignments": ["1001111111", "0010110100"], '
                '"command": "diameter --algo schoening --seed 15 -", '
                '"counters": {}, "schema_version": 1, "seed": 15, "status": "OK", '
                '"values": {"distance": 6}}',
            ),
        ],
        ids=[
            "weight-min",
            "weight-max",
            "weight-min-window",
            "weight-max-window",
            "unweighted",
            "sum",
            "diameter",
        ],
    )
    def test_pinned_report(self, monkeypatch, capsys, argv, expected):
        monkeypatch.setattr(sys, "stdin", io.StringIO(F10))
        assert run(argv.split()) == 0
        data = capture(capsys)
        data.pop("wall_time_ms")
        assert json.dumps(data, sort_keys=True) == expected


P8 = planted_kcnf(8, 7, 60, np.random.default_rng(8))[0].to_dimacs()
P16 = planted_kcnf(16, 3, 48, np.random.default_rng(16))[0].to_dimacs()


class TestPpzGolden:
    """Seeded PPZ reports, pinned byte for byte apart from `wall_time_ms`,
    so that changes to the PPZ batch engine keep the seeded outputs.  P8
    is the benchmark's n=8, k=7 family; P16 a planted n=16, k=3 formula.
    Recorded under seed format 3: a command draws one stream, and its
    seed or z1 is that pool's first hit."""

    @pytest.mark.parametrize(
        "text, argv, expected",
        [
            (
                F10,
                "diameter --algo ppz --seed 21 -",
                '{"assignments": ["1001111101", "0010110110"], '
                '"command": "diameter --algo ppz --seed 21 -", '
                '"counters": {"iterations": 3}, "schema_version": 1, "seed": 21, '
                '"status": "OK", "values": {"distance": 6}}',
            ),
            (
                F10,
                "disperse --s 3 --algo ppz --objective min --seed 22 -",
                '{"assignments": ["1111111000", "0000101111", "0001011100"], '
                '"command": "disperse --s 3 --algo ppz --objective min --seed 22 -", '
                '"counters": {"oracle_calls": 2}, "schema_version": 1, "seed": 22, '
                '"status": "OK", "values": {"minPD": 5, "sumPD": 18}}',
            ),
            (
                F10,
                "disperse --s 3 --algo ppz --objective sum --seed 23 -",
                '{"assignments": ["1111111000", "0000101111", "0001011100"], '
                '"command": "disperse --s 3 --algo ppz --objective sum --seed 23 -", '
                '"counters": {"oracle_calls": 5}, "schema_version": 1, "seed": 23, '
                '"status": "OK", "values": {"minPD": 5, "sumPD": 18}}',
            ),
            (
                F10,
                "disperse --s 3 --algo ppz --objective sum-distinct --seed 24 -",
                '{"assignments": ["1001110011", "0110111100", "0000101101"], '
                '"command": "disperse --s 3 --algo ppz --objective sum-distinct '
                '--seed 24 -", "counters": {"oracle_calls": 5}, "schema_version": 1, '
                '"seed": 24, "status": "OK", "values": {"minPD": 4, "sumPD": 18}}',
            ),
            (
                P8,
                "disperse --s 3 --algo ppz --objective min --seed 25 -",
                '{"assignments": ["00100101", "11011010", "00000010"], '
                '"command": "disperse --s 3 --algo ppz --objective min --seed 25 -", '
                '"counters": {"oracle_calls": 2}, "schema_version": 1, "seed": 25, '
                '"status": "OK", "values": {"minPD": 4, "sumPD": 16}}',
            ),
            (
                P16,
                "diameter --algo ppz --effort 0.25 --seed 26 -",
                '{"assignments": ["1000001110111101", "0011100110000000"], '
                '"command": "diameter --algo ppz --effort 0.25 --seed 26 -", '
                '"counters": {"iterations": 1}, "schema_version": 1, "seed": 26, '
                '"status": "OK", "values": {"distance": 10}}',
            ),
        ],
        ids=["diameter", "min", "sum", "sum-distinct", "planted-n8-k7", "planted-n16-k3"],
    )
    def test_pinned_report(self, monkeypatch, capsys, text, argv, expected):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert run(argv.split()) == 0
        data = capture(capsys)
        data.pop("wall_time_ms")
        assert json.dumps(data, sort_keys=True) == expected

    def test_pinned_tau_exact(self):
        f, _ = planted_kcnf(6, 3, 12, np.random.default_rng(6))
        assert tau_exact(f, enumerate_solutions(f)) == Fraction(6427, 11520)


class TestEstimateRuntime:
    def test_table_value(self, capsys):
        code = run(
            ["estimate-runtime", "--c", "3.592", "--alpha", "1", "--delta", "0.5"]
        )
        data = capture(capsys)
        assert code == 0
        assert round(data["values"]["base"], 4) == 1.6420

    def test_variant_path(self, capsys):
        code = run(
            ["estimate-runtime", "--k", "3", "--variant", "v1", "--delta", "1/2",
             "--n", "30"]
        )
        data = capture(capsys)
        assert code == 0
        assert data["values"]["R"] == 3


class TestProbe:
    def test_zero_trials_header_only(self, capsys):
        code = run(["probe-speedup", "--trials", "0", "--n", "8", "--k", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == (
            "trial,algo,iterations,planted_count,min_separation"
        )
        assert len(out.splitlines()) == 1

    def test_rows_and_columns(self):
        rows = probe_speedup(8, 3, 24, 2, 3, seed=1, effort=1.0)
        assert len(rows) == 6
        assert {r["algo"] for r in rows} == {"ppz", "schoening"}
        assert all(r["min_separation"] == 4 for r in rows)
        assert all(r["iterations"] >= 1 for r in rows)


class TestDeterminism:
    def test_identical_argv_identical_json(self, or2, capsys):
        argv = ["disperse", "--s", "2", "--algo", "ppz", "--seed", "11", or2]
        run(argv)
        first = capture(capsys)
        run(argv)
        second = capture(capsys)
        first.pop("wall_time_ms")
        second.pop("wall_time_ms")
        assert first == second

    def test_parser_reused_across_calls(self, or2, capsys):
        argv = ["disperse", "--s", "2", "--algo", "ppz", "--seed", "11", or2]
        assert run(argv) == 0
        first = capture(capsys)
        assert run(["disperse", "--algo", "ppz", or2]) == 2  # --s is required
        capsys.readouterr()
        assert run(["enumerate", or2]) == 0
        assert capture(capsys)["assignments"] == ["01", "10", "11"]
        assert run(argv) == 0
        last = capture(capsys)
        first.pop("wall_time_ms")
        last.pop("wall_time_ms")
        assert first == last

    def test_text_format(self, or2, capsys):
        code = run(["diameter", "--format", "text", or2])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: OK" in out
        assert "distance: 2" in out

import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from milnor_forge import cli, invariants, specseq
from milnor_forge.cli import RunConfig, main, parse_config, report_json, report_text, run
from milnor_forge.report import Check, CheckReport, always

# check ids that must exist under a full run: the ones named by the
# verification contract, including the documented-discrepancy notes
REQUIRED_CHECK_IDS = {
    "matrices.su.alpha_unitary",
    "matrices.su.commutator",
    "matrices.su.t_gram",
    "matrices.weyl.alpha_by_t",
    "matrices.g1.commutator",
    "matrices.lemma.root_sum",
    "matrices.lemma.triangular_congruence",
    "matrices.lemma.root_sum_index_note",
    "matrices.l2.beta_conj",
    "matrices.l2.sigma_candidate",
    "milnor.q0.xy",
    "milnor.q1.xy",
    "milnor.q1q0.xy",
    "milnor.q1q0.xyz",
    "milnor.q1q0.xyz_exponent_note",
    "milnor.q0q1.xyz_two",
    "milnor.dickson_mui.product",
    "invariants.w.h4_dimension",
    "invariants.w0.h4_dimension",
    "invariants.sign_convention_note",
    "invariants.dickson.fixed",
    "invariants.closure.order",
    "invariants.closure.shape",
    "invariants.closure.subspace",
    "ss.bg1.dims",
    "ss.bg1.scalar_sweep",
    "ss.bg1.permanence_note",
    "ss.bpu.e4_dims_bnz",
    "ss.bpu.e4_dims_bz",
    "ss.bpu.e4_span_note",
    "ss.iota.h4_rank",
    "ss.iota.leading_term",
    "ss.iota.q1_nonzero",
}


@pytest.fixture(scope="module")
def full_run():
    return run(RunConfig())


class TestParsing:
    def test_defaults(self):
        config = parse_config(["all"])
        assert config.primes == (2, 3, 5, 7)
        assert config.suites == cli.SUITES
        assert config.fmt == "text"

    def test_single_suite(self):
        config = parse_config(["milnor", "--primes", "3"])
        assert config.suites == ("milnor",)
        assert config.primes == (3,)

    def test_nonprime_rejected(self):
        with pytest.raises(SystemExit) as err:
            parse_config(["matrices", "--primes", "4"])
        assert err.value.code == 2

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit) as err:
            parse_config(["frobnicate"])
        assert err.value.code == 2

    def test_empty_primes_rejected(self):
        with pytest.raises(SystemExit) as err:
            parse_config(["all", "--primes", ""])
        assert err.value.code == 2

    def test_scenario_option_is_gone(self, capsys):
        # the ss suite always runs every scenario
        with pytest.raises(SystemExit) as err:
            parse_config(["ss", "--scenario", "bg1"])
        assert err.value.code == 2
        assert "unrecognized arguments: --scenario bg1" in capsys.readouterr().err
        assert "--scenario" not in cli.build_parser().format_help()


class TestMain:
    def test_all_at_three_passes(self, capsys):
        assert main(["all", "--primes", "3"]) == 0
        out = capsys.readouterr().out
        passes = [line for line in out.splitlines() if line.startswith("PASS")]
        assert len(passes) >= 20

    def test_ss_scenario_at_two_reports_dims(self, capsys):
        assert main(["ss", "--primes", "2"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^PASS ss\.bg1\.dims +l=2 .*\(1, 0, 1, 1, 2\)", out, re.M)

    def test_nonprime_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["matrices", "--primes", "4"])
        assert err.value.code == 2

    def test_run_that_plans_no_check_is_a_usage_error(self, capsys, monkeypatch):
        # every suite plans a check at every prime, so an empty suite stands
        # in for a plan with nothing in it; an empty stream would read as a pass
        monkeypatch.setitem(cli.REGISTRY, "ss", ())
        with pytest.raises(SystemExit) as err:
            main(["ss", "--primes", "2", "--format", "json"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "suite ss plans no check at primes 2 with --dickson-cap 7\n" in captured.err

    def test_failure_exit_code(self, monkeypatch):
        failing = Check("matrices.fail", always, lambda job: ("fail", "boom"))
        monkeypatch.setitem(cli.REGISTRY, "matrices", (failing,))
        assert main(["matrices", "--primes", "3"]) == 1

    def test_json_format(self, capsys):
        assert main(["milnor", "--primes", "3", "--format", "json"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            record = json.loads(line)
            assert list(record) == ["check_id", "prime", "status", "details", "elapsed_ms"]

    def test_repeated_prime_runs_once(self, capsys):
        def records(primes):
            assert main(["all", "--primes", primes, "--format", "json"]) == 0
            out = capsys.readouterr().out
            return [
                {k: v for k, v in json.loads(line).items() if k != "elapsed_ms"}
                for line in out.splitlines()
            ]

        assert parse_config(["all", "--primes", "5,3,5"]).primes == (5, 3)
        assert records("3,3") == records("3")


class TestRunLoop:
    def test_runs_jobs_in_order_in_calling_thread(self, monkeypatch):
        calls = []
        for suite in cli.SUITES:
            def recorder(job, suite=suite):
                calls.append((suite, job.prime, threading.get_ident()))
                return "pass", ""

            monkeypatch.setitem(cli.REGISTRY, suite, (Check(f"{suite}.probe", always, recorder),))
        run(RunConfig(primes=(5, 2, 3)))
        caller = threading.get_ident()
        assert calls == [(s, p, caller) for s in cli.SUITES for p in (5, 2, 3)]

    def test_setup_error_becomes_fail_record(self, monkeypatch, capsys):
        def broken_closure(*args, **kwargs):
            raise RuntimeError("closure unavailable")

        expected = [
            (r.check_id, r.status)
            for r in run(RunConfig(primes=(3,), suites=("invariants",)))
        ]
        monkeypatch.setattr(invariants, "group_closure", broken_closure)
        assert main(["all", "--primes", "3", "--format", "json"]) == 1
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        closure_ids = [f"invariants.closure.{name}" for name in ("order", "shape", "subspace")]
        failed = [r for r in records if r["status"] == "fail"]
        assert [(r["check_id"], r["prime"], r["details"]) for r in failed] == [
            (check_id, 3, "RuntimeError: closure unavailable") for check_id in closure_ids
        ]
        assert not any(r["check_id"].endswith(".setup") for r in records)
        # every other invariants record at l=3 is there with its usual status
        assert [
            (r["check_id"], r["status"])
            for r in records
            if r["check_id"].startswith("invariants.") and r["check_id"] not in closure_ids
        ] == [(check_id, status) for check_id, status in expected if check_id not in closure_ids]
        # and so is every record of the other suites at l=3
        others = run(RunConfig(primes=(3,), suites=("matrices", "milnor", "ss")))
        assert others
        assert [
            (r["check_id"], r["status"])
            for r in records if not r["check_id"].startswith("invariants.")
        ] == [(r.check_id, r.status) for r in others]

    def test_shared_setup_is_timed_by_the_check_that_builds_it(self, monkeypatch):
        closure = invariants.group_closure

        def slow_closure(*args, **kwargs):
            time.sleep(0.03)
            return closure(*args, **kwargs)

        monkeypatch.setattr(invariants, "group_closure", slow_closure)
        reports = run(RunConfig(primes=(2,), suites=("invariants",)))
        timed = [r.elapsed_ms for r in reports if r.check_id.startswith("invariants.closure.")]
        assert len(timed) == 3 and max(timed) >= 30
        assert not any(r.failed for r in reports)


def without_elapsed(reports):
    return [(r.check_id, r.prime, r.status, r.details) for r in reports]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkers:
    """``run(config, workers)`` with forked worker processes."""

    def test_parallel_equals_sequential(self, full_run):
        assert without_elapsed(run(RunConfig(), workers=2)) == without_elapsed(full_run)
        sweep = RunConfig(suites=("ss",), sweep_scalars=True)
        assert without_elapsed(run(sweep, workers=2)) == without_elapsed(run(sweep))
        assert_no_child_left()

    def test_closure_jobs_are_queued_first(self, monkeypatch):
        # every queue read, its 4-byte job index included, happens while one
        # token is held, so the tally lists the indices in the order the
        # workers took them
        tally, tallying = os.pipe()
        token, giving = os.pipe()
        os.write(giving, b"x")
        read = os.read

        def tallied_read(fd, n):
            if n != 4:
                return read(fd, n)
            read(token, 1)
            try:
                data = read(fd, n)
                if len(data) == 4:
                    os.write(tallying, data)
            finally:
                os.write(giving, b"x")
            return data

        config = RunConfig()
        jobs = cli.plan(config)
        monkeypatch.setattr(cli, "run_job", lambda prime, checks, config: [])
        monkeypatch.setattr(os, "read", tallied_read)
        try:
            run(config, workers=2)
            data = read(tally, 1000)
        finally:
            for fd in (tally, tallying, token, giving):
                os.close(fd)
        taken = [int.from_bytes(data[i:i + 4], "little") for i in range(0, len(data), 4)]
        suites = [suite for suite in config.suites for _ in config.primes]
        closure = [(suites[i], jobs[i][0]) for i in taken[:3]]
        assert closure == [("invariants", 5), ("invariants", 3), ("invariants", 2)]
        # every other job follows in plan order, each taken once
        assert taken[3:] == [i for i in range(len(jobs)) if i not in taken[:3]]
        assert_no_child_left()

    def test_failing_check_through_the_parallel_path(self, monkeypatch, capsys):
        failing = Check("matrices.fail", lambda prime, config: prime == 5,
                        lambda job: ("fail", "boom"))
        monkeypatch.setitem(cli.REGISTRY, "matrices", cli.REGISTRY["matrices"] + (failing,))
        argv = ["matrices", "--format", "json"]

        def records():
            lines = capsys.readouterr().out.splitlines()
            return [{k: v for k, v in json.loads(line).items() if k != "elapsed_ms"}
                    for line in lines]

        assert main(argv) == 1
        sequential = records()
        assert main(argv, workers=2) == 1
        assert records() == sequential
        assert {"check_id": "matrices.fail", "prime": 5, "status": "fail",
                "details": "boom"} in sequential

    def test_one_worker_or_one_job_never_forks(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        assert run(RunConfig(primes=(2, 3), suites=("matrices",)), workers=1)
        assert run(RunConfig(primes=(3,), suites=("milnor",)), workers=4)

    def probe_in_every_suite(self, monkeypatch, body):
        for suite in cli.SUITES:
            monkeypatch.setitem(cli.REGISTRY, suite, (Check(f"{suite}.probe", always, body),))

    def test_a_dying_worker_loses_no_record(self, monkeypatch):
        parent = os.getpid()
        died, dying = os.pipe()
        waited = []

        def probe(job):
            if os.getpid() != parent:
                os.write(dying, b"x")
                os._exit(3)
            if not waited:  # hold the first job until a child has died in one
                waited.append(select.select([died], [], [], 30)[0])
            return "pass", f"l={job.prime}"

        self.probe_in_every_suite(monkeypatch, probe)
        try:
            reports = run(RunConfig(primes=(2, 3)), workers=2)
        finally:
            os.close(died)
            os.close(dying)
        assert waited == [[died]]
        assert without_elapsed(reports) == sorted(
            (f"{s}.probe", p, "pass", f"l={p}") for s in cli.SUITES for p in (2, 3)
        )
        assert_no_child_left()

    def test_interrupt_in_the_parent_leaves_no_child(self, monkeypatch):
        parent = os.getpid()
        started, starting = os.pipe()

        def probe(job):
            if os.getpid() != parent:
                os.write(starting, b"x")
                time.sleep(10)
                return "pass", ""
            select.select([started], [], [], 30)
            raise KeyboardInterrupt

        self.probe_in_every_suite(monkeypatch, probe)
        start = time.perf_counter()
        try:
            with pytest.raises(KeyboardInterrupt):
                run(RunConfig(primes=(2, 3)), workers=2)
        finally:
            os.close(started)
            os.close(starting)
        assert time.perf_counter() - start < 5  # the sleeping child was killed
        assert_no_child_left()

    def test_large_outputs_come_back_whole(self, monkeypatch):
        parent = os.getpid()
        tally, tallying = os.pipe()

        def probe(job):
            if os.getpid() != parent:
                os.write(tallying, b"x")
            time.sleep(0.001)
            return "pass", f"{job.prime}:" + "xyz"[job.prime % 3] * 10_000

        self.probe_in_every_suite(monkeypatch, probe)
        # 124 jobs: the 31 primes below 128 in each suite
        primes = tuple(p for p in range(2, 128) if all(p % q for q in range(2, p)))
        config = RunConfig(primes=primes)
        try:
            sequential = run(config)
            parallel = run(config, workers=2)
            in_child = len(os.read(tally, 1000)) if select.select([tally], [], [], 0)[0] else 0
        finally:
            os.close(tally)
            os.close(tallying)
        assert sum(len(r.details) for r in sequential) > 1_000_000
        assert without_elapsed(parallel) == without_elapsed(sequential)
        # more 10 kB results than a 64 kB pipe holds: the child kept them
        # while it took jobs, and sent them once the queue was empty
        assert in_child > 12
        assert_no_child_left()

    def test_a_message_cut_short_loses_no_record(self, monkeypatch):
        parent = os.getpid()
        cut, cutting = os.pipe()
        write = os.write
        waited = []

        def cut_short(fd, data):
            if os.getpid() != parent and len(data) > 8:
                write(cutting, b"x")
                write(fd, data[:len(data) // 2])
                os._exit(3)
            return write(fd, data)

        def probe(job):
            if os.getpid() == parent and not waited:
                # hold the first job until a child has cut its message short
                waited.append(select.select([cut], [], [], 30)[0])
            return "pass", f"l={job.prime}"

        monkeypatch.setattr(os, "write", cut_short)
        self.probe_in_every_suite(monkeypatch, probe)
        try:
            reports = run(RunConfig(primes=(2, 3)), workers=2)
        finally:
            os.close(cut)
            os.close(cutting)
        assert waited == [[cut]]
        assert without_elapsed(reports) == sorted(
            (f"{s}.probe", p, "pass", f"l={p}") for s in cli.SUITES for p in (2, 3)
        )
        assert_no_child_left()

    def test_an_orphaned_worker_stops(self):
        tally, tallying = os.pipe()
        code = "\n".join([
            "import os, sys, time",
            "from milnor_forge import cli",
            "from milnor_forge.report import Check, always",
            "parent, tally = os.getpid(), int(sys.argv[1])",
            "def probe(job):",
            "    if os.getpid() != parent:",
            "        os.write(tally, b'x')",
            "    time.sleep(0.2)",
            "    return 'pass', 'x' * 70_000",
            "for suite in cli.SUITES:",
            "    cli.REGISTRY[suite] = (Check(suite + '.probe', always, probe),)",
            "cli.run(cli.RunConfig(primes=(2, 3, 5, 7, 11, 13)), workers=2)",
        ])
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        verify = subprocess.Popen(
            [sys.executable, "-c", code, str(tallying)], env=env,
            pass_fds=(tallying,), start_new_session=True,
        )
        os.close(tallying)
        started, ended = 0, False
        try:
            if select.select([tally], [], [], 30)[0]:  # the child started a job
                verify.kill()
                verify.wait()
                # end of file: every holder of the tally's write end has exited
                deadline = time.monotonic() + 5
                while not ended and select.select(
                    [tally], [], [], max(0, deadline - time.monotonic())
                )[0]:
                    chunk = os.read(tally, 100)
                    started += len(chunk)
                    ended = not chunk
        finally:
            try:
                os.killpg(verify.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            verify.wait()
            os.close(tally)
        assert ended
        assert 1 <= started <= 2

    def test_available_workers(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert cli.available_workers() == 3
        monkeypatch.delattr(os, "fork")
        assert cli.available_workers() == 1


class TestRegistry:
    def test_ids_name_their_suite(self):
        for suite, checks in cli.REGISTRY.items():
            for check in checks:
                assert check.check_id.startswith(suite + ".")

    @pytest.mark.parametrize("options", [
        {},
        {"sweep_scalars": True, "dickson_cap": 31},
        {"dickson_cap": 0},
        {"sweep_scalars": True, "dickson_cap": 0},
    ])
    def test_at_most_one_entry_per_id_runs_at_a_prime(self, options):
        primes = tuple(p for p in range(2, 102) if all(p % q for q in range(2, p)))
        config = RunConfig(primes=primes, **options)
        for prime, checks in cli.plan(config):
            ids = [c.check_id for c in checks]
            assert len(ids) == len(set(ids)), (prime, ids)

    def test_plans_of_configurations_outside_the_benchmark(self):
        # (check id, prime, status) of each configuration, as the per-suite
        # runners that the registry replaced reported them, plus the matrix
        # suite at l = 17 and at l = 37, past the prime cap of 31 it once had
        for argv, pinned in PINNED_PLANS.items():
            got = [(r.check_id, r.prime, r.status) for r in run(parse_config(argv.split()))]
            want = [
                (check_id, int(prime), status)
                for check_id, prime, status in (line.split() for line in pinned.strip().splitlines())
            ]
            assert got == want, argv


PINNED_PLANS = {
    "all --primes 17": """
        invariants.action.q0_compat 17 pass
        invariants.dickson.fixed 17 pass
        invariants.sign_convention_note 17 note
        invariants.w.h4_dimension 17 pass
        invariants.w0.h4_dimension 17 pass
        matrices.ffla.rank_nullity 17 pass
        matrices.g1.alpha_by_gamma_beta 17 pass
        matrices.g1.beta_by_gamma_beta 17 pass
        matrices.g1.central_alpha 17 pass
        matrices.g1.central_beta 17 pass
        matrices.g1.commutator 17 pass
        matrices.g1.xi_by_gamma_beta 17 pass
        matrices.lemma.root_sum 17 pass
        matrices.lemma.root_sum_index_note 17 note
        matrices.lemma.triangular_congruence 17 pass
        matrices.su.alpha_unitary 17 pass
        matrices.su.beta_unitary 17 pass
        matrices.su.commutator 17 pass
        matrices.su.determinants 17 pass
        matrices.su.s_unitary 17 pass
        matrices.su.t_gram 17 pass
        matrices.weyl.alpha_by_s 17 pass
        matrices.weyl.alpha_by_t 17 pass
        matrices.weyl.beta_by_s 17 pass
        matrices.weyl.beta_by_t 17 pass
        milnor.q.anticommute 17 pass
        milnor.q.squares 17 pass
        milnor.q0.xy 17 pass
        milnor.q1.xy 17 pass
        milnor.q1q0.xy 17 pass
        milnor.q1q0.xyz 17 pass
        milnor.q1q0.xyz_exponent_note 17 note
        ss.bg1.classes 17 pass
        ss.bg1.dims 17 pass
        ss.bg1.e3_structure 17 pass
        ss.bg1.pages 17 pass
        ss.bpu.e4_dims_bnz 17 pass
        ss.bpu.e4_dims_bz 17 pass
        ss.bpu.e4_span_note 17 note
        ss.bpu.pages 17 pass
        ss.engine.monotone_euler 17 pass
        ss.engine.stability 17 pass
        ss.iota.h4_rank 17 pass
        ss.iota.leading_term 17 pass
        ss.iota.q1_nonzero 17 pass
    """,
    "ss --primes 2,3": """
        ss.bg1.classes 2 pass
        ss.bg1.classes 3 pass
        ss.bg1.d3_square 2 pass
        ss.bg1.dims 2 pass
        ss.bg1.dims 3 pass
        ss.bg1.e3_structure 3 pass
        ss.bg1.pages 2 pass
        ss.bg1.pages 3 pass
        ss.bg1.permanence_note 2 note
        ss.bg1.scalar_sweep 3 pass
        ss.bpu.e4_dims_bnz 3 pass
        ss.bpu.e4_dims_bz 3 pass
        ss.bpu.e4_span_note 3 note
        ss.bpu.pages 3 pass
        ss.bpu.u7_bookkeeping 3 pass
        ss.engine.monotone_euler 2 pass
        ss.engine.monotone_euler 3 pass
        ss.engine.stability 2 pass
        ss.engine.stability 3 pass
        ss.iota.h4_rank 2 pass
        ss.iota.h4_rank 3 pass
        ss.iota.leading_term 2 pass
        ss.iota.leading_term 3 pass
        ss.iota.q1_nonzero 2 pass
        ss.iota.q1_nonzero 3 pass
    """,
    "ss --primes 3,5": """
        ss.bg1.classes 3 pass
        ss.bg1.classes 5 pass
        ss.bg1.dims 3 pass
        ss.bg1.dims 5 pass
        ss.bg1.e3_structure 3 pass
        ss.bg1.e3_structure 5 pass
        ss.bg1.pages 3 pass
        ss.bg1.pages 5 pass
        ss.bg1.scalar_sweep 3 pass
        ss.bpu.e4_dims_bnz 3 pass
        ss.bpu.e4_dims_bnz 5 pass
        ss.bpu.e4_dims_bz 3 pass
        ss.bpu.e4_dims_bz 5 pass
        ss.bpu.e4_span_note 3 note
        ss.bpu.e4_span_note 5 note
        ss.bpu.pages 3 pass
        ss.bpu.pages 5 pass
        ss.bpu.u7_bookkeeping 3 pass
        ss.engine.monotone_euler 3 pass
        ss.engine.monotone_euler 5 pass
        ss.engine.stability 3 pass
        ss.engine.stability 5 pass
        ss.iota.h4_rank 3 pass
        ss.iota.h4_rank 5 pass
        ss.iota.leading_term 3 pass
        ss.iota.leading_term 5 pass
        ss.iota.q1_nonzero 3 pass
        ss.iota.q1_nonzero 5 pass
    """,
    "milnor --primes 11 --dickson-cap 11": """
        milnor.dickson_mui.degrees 11 pass
        milnor.dickson_mui.product 11 pass
        milnor.q.anticommute 11 pass
        milnor.q.squares 11 pass
        milnor.q0.xy 11 pass
        milnor.q1.xy 11 pass
        milnor.q1q0.xy 11 pass
        milnor.q1q0.xyz 11 pass
        milnor.q1q0.xyz_exponent_note 11 note
    """,
    "matrices --primes 37": """
        matrices.ffla.rank_nullity 37 pass
        matrices.g1.alpha_by_gamma_beta 37 pass
        matrices.g1.beta_by_gamma_beta 37 pass
        matrices.g1.central_alpha 37 pass
        matrices.g1.central_beta 37 pass
        matrices.g1.commutator 37 pass
        matrices.g1.xi_by_gamma_beta 37 pass
        matrices.lemma.root_sum 37 pass
        matrices.lemma.root_sum_index_note 37 note
        matrices.lemma.triangular_congruence 37 pass
        matrices.su.alpha_unitary 37 pass
        matrices.su.beta_unitary 37 pass
        matrices.su.commutator 37 pass
        matrices.su.determinants 37 pass
        matrices.su.s_unitary 37 pass
        matrices.su.t_gram 37 pass
        matrices.weyl.alpha_by_s 37 pass
        matrices.weyl.alpha_by_t 37 pass
        matrices.weyl.beta_by_s 37 pass
        matrices.weyl.beta_by_t 37 pass
    """,
    "all --primes 3 --sweep-scalars": """
        invariants.action.q0_compat 3 pass
        invariants.closure.order 3 pass
        invariants.closure.shape 3 pass
        invariants.closure.subspace 3 pass
        invariants.dickson.fixed 3 pass
        invariants.sign_convention_note 3 note
        invariants.w.h4_dimension 3 pass
        invariants.w0.h4_dimension 3 pass
        matrices.ffla.rank_nullity 3 pass
        matrices.g1.alpha_by_gamma_beta 3 pass
        matrices.g1.beta_by_gamma_beta 3 pass
        matrices.g1.central_alpha 3 pass
        matrices.g1.central_beta 3 pass
        matrices.g1.commutator 3 pass
        matrices.g1.xi_by_gamma_beta 3 pass
        matrices.lemma.root_sum 3 pass
        matrices.lemma.root_sum_index_note 3 note
        matrices.lemma.triangular_congruence 3 pass
        matrices.su.alpha_unitary 3 pass
        matrices.su.beta_unitary 3 pass
        matrices.su.commutator 3 pass
        matrices.su.determinants 3 pass
        matrices.su.s_unitary 3 pass
        matrices.su.t_gram 3 pass
        matrices.weyl.alpha_by_s 3 pass
        matrices.weyl.alpha_by_t 3 pass
        matrices.weyl.beta_by_s 3 pass
        matrices.weyl.beta_by_t 3 pass
        milnor.dickson_mui.degrees 3 pass
        milnor.dickson_mui.product 3 pass
        milnor.q.anticommute 3 pass
        milnor.q.squares 3 pass
        milnor.q0.xy 3 pass
        milnor.q1.xy 3 pass
        milnor.q1q0.xy 3 pass
        milnor.q1q0.xyz 3 pass
        milnor.q1q0.xyz_exponent_note 3 note
        ss.bg1.classes 3 pass
        ss.bg1.dims 3 pass
        ss.bg1.e3_structure 3 pass
        ss.bg1.pages 3 pass
        ss.bg1.scalar_sweep 3 pass
        ss.bpu.e4_dims_bnz 3 pass
        ss.bpu.e4_dims_bz 3 pass
        ss.bpu.e4_span_note 3 note
        ss.bpu.pages 3 pass
        ss.bpu.u7_bookkeeping 3 pass
        ss.engine.monotone_euler 3 pass
        ss.engine.stability 3 pass
        ss.iota.h4_rank 3 pass
        ss.iota.leading_term 3 pass
        ss.iota.q1_nonzero 3 pass
    """,
}


def scenario_key(sc):
    """What makes two scenarios the same computation."""
    return (
        sc.name,
        sc.prime,
        sc.context.top_degree,
        tuple(
            (d.page, tuple((n, power, img.render()) for n, (power, img) in sorted(d.images.items())))
            for d in sc.differentials
        ),
    )


class TestScenarioMemo:
    # at l=3 the ss job needs bg1 at the four scalar pairs, bg1 with a wider
    # truncation, and bpu in both branches
    DISTINCT_AT_THREE = 7
    NEEDS_A_SOLVE = {
        "ss.bg1.dims",
        "ss.bg1.pages",
        "ss.bg1.classes",
        "ss.bg1.e3_structure",
        "ss.bg1.scalar_sweep",
        "ss.engine.monotone_euler",
        "ss.engine.stability",
        "ss.bpu.e4_dims_bnz",
        "ss.bpu.e4_dims_bz",
        "ss.bpu.pages",
        "ss.iota.h4_rank",
    }

    def test_each_distinct_scenario_solved_once_per_job(self, monkeypatch):
        solved = []
        solve = specseq.run_scenario

        def recorder(sc, *args, **kwargs):
            solved.append(scenario_key(sc))
            return solve(sc, *args, **kwargs)

        monkeypatch.setattr(specseq, "run_scenario", recorder)
        reports = run(RunConfig(primes=(3,), suites=("ss",)))
        assert reports and not any(r.failed for r in reports)
        assert len(solved) == len(set(solved)) == self.DISTINCT_AT_THREE

    def test_failed_solve_fails_each_dependent_check(self, monkeypatch):
        attempts = []

        def broken(sc, *args, **kwargs):
            attempts.append(sc.name)
            raise RuntimeError("solver down")

        monkeypatch.setattr(specseq, "run_scenario", broken)
        reports = run(RunConfig(primes=(3,), suites=("ss",)))
        failed = [r for r in reports if r.failed]
        assert {r.check_id for r in failed} == self.NEEDS_A_SOLVE
        assert {r.details for r in failed} == {"RuntimeError: solver down"}
        # a failure is not kept: every dependent check tried the solve itself
        assert len(attempts) == len(self.NEEDS_A_SOLVE)
        assert {(r.check_id, r.status) for r in reports if not r.failed} == {
            ("ss.bpu.e4_span_note", "note"),
            ("ss.bpu.u7_bookkeeping", "pass"),
            ("ss.iota.leading_term", "pass"),
            ("ss.iota.q1_nonzero", "pass"),
        }

    def test_nothing_shared_between_runs(self, monkeypatch):
        solves = []
        solve = specseq.run_scenario

        def counter(sc, *args, **kwargs):
            solves.append(sc.name)
            return solve(sc, *args, **kwargs)

        monkeypatch.setattr(specseq, "run_scenario", counter)
        config = RunConfig(primes=(2, 3), suites=("ss",))
        first = run(config)
        first_solves = len(solves)
        second = run(config)
        # two distinct scenarios at l=2, seven at l=3, solved again by the second run
        assert first_solves == 2 + self.DISTINCT_AT_THREE
        assert len(solves) == 2 * first_solves

        def records(reports):
            return [(r.check_id, r.prime, r.status, r.details) for r in reports]

        assert records(first) == records(second)


class TestReports:
    def test_internal_error_becomes_fail_record(self):
        from milnor_forge.galg import TruncationOverflowError
        from milnor_forge.report import run_check

        def boom():
            raise TruncationOverflowError("degree 9 exceeds truncation 6")

        record = run_check("some.check", 3, boom)
        assert record.status == "fail"
        assert "TruncationOverflowError" in record.details

    def test_empty_stream(self):
        assert report_json([]) == ""
        assert report_text([]) == ""

    def test_single_record_parses(self):
        report = CheckReport("a.check", 3, "pass", "fine", 1)
        lines = report_json([report]).splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["status"] == "pass"
        assert record["prime"] == 3

    def test_text_summary_counts(self):
        reports = [
            CheckReport("a", 3, "pass", "", 0),
            CheckReport("b", 3, "note", "", 0),
        ]
        text = report_text(reports)
        assert "1 pass, 0 fail, 1 note" in text

    def test_text_columns_align_past_two_digit_primes(self):
        # the prime column is as wide as the largest prime, and two wide below 100
        seven = CheckReport("a.check", 7, "pass", "fine", 12)
        lines = report_text([seven, CheckReport("a.check", 101, "pass", "fine", 3)]).splitlines()
        assert lines[0].index("ms") == lines[1].index("ms")
        assert report_text([seven]).splitlines()[0] == "PASS a.check l=7     12ms  fine"


class TestFullRun:
    def test_no_failures(self, full_run):
        assert not any(r.failed for r in full_run)

    def test_sorted_output(self, full_run):
        keys = [(r.check_id, r.prime) for r in full_run]
        assert keys == sorted(keys)

    def test_required_check_ids_present(self, full_run):
        seen = {r.check_id for r in full_run}
        missing = REQUIRED_CHECK_IDS - seen
        assert not missing, f"missing check ids: {sorted(missing)}"

    def test_documented_notes_present(self, full_run):
        notes = {r.check_id for r in full_run if r.status == "note"}
        for check_id in (
            "matrices.lemma.root_sum_index_note",
            "milnor.q1q0.xyz_exponent_note",
            "ss.bpu.e4_span_note",
        ):
            assert check_id in notes

    def test_determinism_modulo_elapsed(self, full_run):
        config = RunConfig()
        second = run(config)

        def stripped(reports):
            out = []
            for r in reports:
                record = json.loads(r.as_json())
                record["elapsed_ms"] = 0
                out.append(json.dumps(record))
            return "\n".join(out)

        assert stripped(full_run) == stripped(second)


def fresh_process(args, **env):
    """Run ``python <args>`` in a new interpreter that imports this checkout's
    package, and return the finished process."""
    package_root = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(package_root), **env}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def fresh_python(args, **env):
    """``fresh_process``'s stdout, after asserting it exited 0."""
    done = fresh_process(args, **env)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestFreshProcess:
    def test_cold_start_imports_no_dataclasses_or_inspect(self):
        # -S keeps the site-packages .pth files, which may import anything,
        # out of the interpreter's start
        code = (
            "import sys; import milnor_forge.cli as cli; cli.build_parser(); "
            "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))"
        )
        assert fresh_python(["-S", "-c", code]) == "[]\n"

    def test_profiler_report_is_written(self, tmp_path):
        # the verify process exits the usual way, so cProfile writes its report
        out = tmp_path / "verify.prof"
        fresh_python(["-m", "cProfile", "-o", str(out), "-m", "milnor_forge",
                      "matrices", "--primes", "2"])
        assert out.stat().st_size > 0

    @pytest.mark.parametrize("script, code, said", [
        (["-m", "milnor_forge", "matrices", "--primes", "4"], 2, "4 is not prime"),
        (["-c", "\n".join([
            "from milnor_forge import cli",
            "from milnor_forge.report import Check, always",
            "cli.REGISTRY['matrices'] = (Check('matrices.probe', always,",
            "                                  lambda job: ('fail', 'probe')),)",
            "raise SystemExit(cli.script())",
        ]), "matrices", "--primes", "2,3"], 1, "FAIL matrices.probe l=3"),
    ], ids=("usage-error", "failing-check"))
    def test_exit_codes(self, script, code, said):
        done = fresh_process(script)
        assert done.returncode == code, done.stderr
        assert said in done.stdout + done.stderr

    @pytest.mark.parametrize("fmt", ("json", "text"))
    def test_records_do_not_depend_on_the_hash_seed(self, fmt):
        argv = ["-m", "milnor_forge", "all", "--primes", "2,3,5,7,11", "--sweep-scalars",
                "--format", fmt]

        def without_elapsed(out):
            if fmt == "json":
                records = [json.loads(line) for line in out.splitlines()]
                return [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in records]
            return [re.sub(r"^(\S+ +\S+ +l=\d+) +\d+ms ", r"\1", line)
                    for line in out.splitlines()]

        first, second = (
            without_elapsed(fresh_python(argv, PYTHONHASHSEED=seed)) for seed in ("0", "1")
        )
        assert len(first) > 200
        assert first == second

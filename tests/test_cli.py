"""The repro-repair command-line interface."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.service import JobQueue
from tests.conftest import children_of, src_env

RACY = """
var x = 0;
def main() {
    async { x = 1; }
    print(x);
}
"""

CLEAN = """
var x = 0;
def main() {
    finish { async { x = 1; } }
    print(x);
}
"""


@pytest.fixture
def racy_file(tmp_path):
    path = tmp_path / "racy.hj"
    path.write_text(RACY)
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.hj"
    path.write_text(CLEAN)
    return str(path)


class TestDetect:
    def test_detect_reports_races(self, racy_file, capsys):
        code = main(["detect", racy_file])
        out = capsys.readouterr().out
        assert code == 1
        assert "1 data race(s)" in out

    def test_detect_clean_program(self, clean_file, capsys):
        code = main(["detect", clean_file])
        assert code == 0
        assert "no data races" in capsys.readouterr().out

    def test_detect_srw(self, racy_file, capsys):
        assert main(["detect", racy_file, "--algorithm", "srw"]) == 1

    def test_strip_finishes_option(self, clean_file):
        assert main(["detect", clean_file, "--strip-finishes"]) == 1


class TestRepair:
    def test_repair_prints_fixed_source(self, racy_file, capsys):
        code = main(["repair", racy_file])
        captured = capsys.readouterr()
        assert code == 0
        assert "finish {" in captured.out
        assert "converged" in captured.err

    def test_repair_to_output_file(self, racy_file, tmp_path, capsys):
        out_file = tmp_path / "fixed.hj"
        code = main(["repair", racy_file, "-o", str(out_file)])
        assert code == 0
        # The written file must itself be race-free.
        assert main(["detect", str(out_file)]) == 0

    def test_repair_with_args(self, tmp_path):
        path = tmp_path / "p.hj"
        path.write_text("""
        var x = 0;
        def main(n) {
            async { x = n; }
            print(x);
        }""")
        assert main(["repair", str(path), "--arg", "5"]) == 0


class TestMeasure:
    def test_measure_outputs_metrics(self, clean_file, capsys):
        code = main(["measure", clean_file, "--processors", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "T1" in out and "Tinf" in out and "speedup" in out

    def test_measure_sequential(self, clean_file, capsys):
        assert main(["measure", clean_file, "--sequential"]) == 0


class TestBench:
    def test_bench_quick_table4(self, capsys):
        code = main(["bench", "--quick", "--benchmarks", "fibonacci",
                     "--experiments", "table4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fibonacci" in out

    def test_bench_unknown_experiment(self, capsys):
        assert main(["bench", "--experiments", "tableX"]) == 2


class TestCoverage:
    def test_coverage_adequate(self, racy_file, capsys):
        code = main(["coverage", racy_file, "--inputs", ""])
        out = capsys.readouterr().out
        assert code == 0
        assert "async coverage" in out

    def test_coverage_flags_missing_input(self, tmp_path, capsys):
        path = tmp_path / "branchy.hj"
        path.write_text("""
        var x = 0;
        def main(n) {
            if (n > 10) { async { x = 1; } }
            print(x);
        }""")
        assert main(["coverage", str(path), "--inputs", "5"]) == 1
        assert "WARNING" in capsys.readouterr().out
        assert main(["coverage", str(path), "--inputs", "5", "20"]) == 0


class TestDot:
    def test_dpst_dot(self, racy_file, capsys):
        assert main(["dot", racy_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph sdpst")

    def test_graph_dot(self, clean_file, capsys):
        assert main(["dot", clean_file, "--view", "graph"]) == 0
        assert capsys.readouterr().out.startswith("digraph computation")


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["detect", "/nonexistent/p.hj"]) == 2

    def test_parse_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.hj"
        path.write_text("def main( {")
        assert main(["detect", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error_is_one_line_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "bad.hj"
        path.write_text("def main( {")
        assert main(["detect", str(path)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        # file:line:col: category: message — clickable and greppable.
        assert err.startswith(f"{path}:1:")
        assert "syntax error:" in err

    def test_lex_error_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "bad.hj"
        path.write_text("def main() { var x = `; }")
        assert main(["detect", str(path)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"{path}:1:") and "lex error:" in err

    def test_validation_error_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "nomain.hj"
        path.write_text("def helper() { }")
        assert main(["repair", str(path)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert str(path) in err and "validation error:" in err


class TestJsonMode:
    def test_detect_json_schema(self, racy_file, capsys):
        code = main(["detect", racy_file, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["schema"] == 3
        assert payload["status"] == "ok"
        assert payload["kind"] == "detect"
        assert payload["result"]["race_count"] == 1
        assert payload["result"]["races"][0]["kind"] == "W->R"

    def test_detect_json_clean_exit_zero(self, clean_file, capsys):
        assert main(["detect", clean_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["race_free"]

    def test_repair_json_matches_plain_repair(self, racy_file, tmp_path,
                                              capsys):
        plain_out = tmp_path / "plain.hj"
        assert main(["repair", racy_file, "-o", str(plain_out)]) == 0
        capsys.readouterr()
        json_out = tmp_path / "json.hj"
        code = main(["repair", racy_file, "--json", "-o", str(json_out)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["result"]["converged"]
        # --json changes the report format, never the repair.
        assert json_out.read_text() == plain_out.read_text()
        assert payload["result"]["repaired_source"] == plain_out.read_text()

    def test_json_error_is_structured(self, tmp_path, capsys):
        path = tmp_path / "bad.hj"
        path.write_text("def main( {")
        assert main(["detect", str(path), "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "error"
        assert payload["error"]["category"] == "parse"
        assert payload["error"]["line"] == 1


class TestBatch:
    @pytest.fixture
    def corpus(self, tmp_path):
        directory = tmp_path / "corpus"
        directory.mkdir()
        (directory / "racy.hj").write_text(RACY)
        (directory / "clean.hj").write_text(CLEAN)
        (directory / "twin.hj").write_text("// same program\n" + RACY)
        return directory

    def test_batch_repairs_directory(self, corpus, tmp_path, capsys):
        out_dir = tmp_path / "fixed"
        code = main(["batch", str(corpus), "--workers", "2",
                     "--output-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 0
        assert "3 job(s)" in captured.err
        assert sorted(p.name for p in out_dir.iterdir()) == \
            ["clean.hj", "racy.hj", "twin.hj"]
        # Per-program output identical to single-shot repair.
        single = tmp_path / "single.hj"
        assert main(["repair", str(corpus / "racy.hj"),
                     "-o", str(single)]) == 0
        assert (out_dir / "racy.hj").read_text() == single.read_text()

    def test_batch_json_stream(self, corpus, capsys):
        code = main(["batch", str(corpus), "--kind", "detect", "--json"])
        captured = capsys.readouterr()
        # Races found are results, not failures: the batch succeeded.
        assert code == 0
        lines = [json.loads(line) for line in
                 captured.out.strip().splitlines()]
        assert len(lines) == 3
        by_name = {entry["source_name"].rsplit("/", 1)[-1]: entry
                   for entry in lines}
        assert not by_name["racy.hj"]["result"]["race_free"]
        assert by_name["clean.hj"]["result"]["race_free"]

    def test_batch_bad_file_does_not_poison(self, corpus, capsys):
        (corpus / "bad.hj").write_text("def main( {")
        code = main(["batch", str(corpus), "--kind", "detect", "--json"])
        captured = capsys.readouterr()
        assert code == 1  # one job genuinely failed
        lines = [json.loads(line) for line in
                 captured.out.strip().splitlines()]
        by_name = {entry["source_name"].rsplit("/", 1)[-1]: entry
                   for entry in lines}
        assert by_name["bad.hj"]["status"] == "error"
        assert by_name["racy.hj"]["status"] == "ok"

    def test_batch_cache_across_runs(self, corpus, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["batch", str(corpus), "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["batch", str(corpus), "--cache-dir", cache_dir,
                     "--json"]) == 0
        lines = [json.loads(line) for line in
                 capsys.readouterr().out.strip().splitlines()]
        assert all(entry["cached"] for entry in lines)

    def test_batch_rejects_empty_input(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["batch", str(empty)]) == 2
        assert "no .hj files" in capsys.readouterr().err


#: ~4 s of monitored array writes: long enough to interrupt mid-job.
SLOW = """
def main() {
    var a = new int[64];
    for (var round = 0; round < 2500; round = round + 1) {
        for (var i = 0; i < 64; i = i + 1) {
            a[i] = a[i] + round + %d;
        }
    }
}
"""

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestBatchInterrupt:
    """First ^C: stop claiming, drain the in-flight job, release the
    rest, exit 1.  Second ^C: abort."""

    @pytest.fixture
    def slow_corpus(self, tmp_path):
        directory = tmp_path / "slow"
        directory.mkdir()
        for index in range(3):
            (directory / f"s{index}.hj").write_text(SLOW % index)
        return directory

    def _launch(self, corpus, *extra):
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "batch", str(corpus),
             "--kind", "detect", "--workers", "1", "--batch-id", "slow",
             "--json", *extra],
            env=src_env(), cwd=REPO, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)

    @staticmethod
    def _reported(out):
        return [json.loads(line) for line in out.splitlines() if line]

    def _wait_running(self, queue_path):
        queue = JobQueue(queue_path)
        deadline = time.monotonic() + 30.0
        while queue.counts("slow")["leased"] == 0:
            assert time.monotonic() < deadline, "no job was ever claimed"
            time.sleep(0.02)
        time.sleep(0.3)  # claimed -> dispatched to the worker
        return queue

    def test_first_interrupt_drains_and_releases(self, slow_corpus,
                                                 tmp_path):
        queue_path = str(tmp_path / "q.db")
        proc = self._launch(slow_corpus, "--queue", queue_path)
        try:
            queue = self._wait_running(queue_path)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 1, err
        assert "draining in-flight jobs" in err
        assert "re-run with --resume" in err
        # The drained job is reported, not only stored.
        [row] = self._reported(out)
        assert row["status"] == "ok"
        counts = queue.counts("slow")
        assert counts["done"] == 1  # the in-flight job ran to its end
        assert counts["queued"] == 2 and counts["leased"] == 0
        assert counts["cancelled"] == 0

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_private_queue_interrupt_has_no_resume_hint(self, slow_corpus):
        proc = self._launch(slow_corpus)
        try:
            deadline = time.monotonic() + 30.0
            while not children_of(proc.pid):  # the pool has forked
                assert time.monotonic() < deadline, "no pool worker"
                time.sleep(0.02)
            time.sleep(0.5)  # first job claimed and dispatched
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 1, err
        assert "draining in-flight jobs" in err
        assert "2 job(s) unfinished" in err
        assert "--resume" not in err
        # The private queue is deleted on exit, so the drained job's
        # answer must already be on stdout.
        [row] = self._reported(out)
        assert row["status"] == "ok"
        assert row["source_name"].endswith("s0.hj")

    def test_second_interrupt_aborts(self, slow_corpus, tmp_path):
        queue_path = str(tmp_path / "q.db")
        proc = self._launch(slow_corpus, "--queue", queue_path)
        try:
            queue = self._wait_running(queue_path)
            proc.send_signal(signal.SIGINT)
            line = ""
            while "draining" not in line:
                line = proc.stderr.readline()
                assert line, "batch exited before draining"
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == -signal.SIGINT
        assert queue.counts("slow")["done"] == 0  # the drain was cut


class TestTimings:
    def test_detect_timings_tree_on_stderr(self, racy_file, capsys):
        code = main(["detect", racy_file, "--timings"])
        captured = capsys.readouterr()
        assert code == 1
        assert "1 data race(s)" in captured.out
        err = captured.err
        assert f"telemetry: detect:{racy_file}" in err
        for phase in ("lex", "parse", "validate", "detect_races",
                      "execute", "dpst"):
            assert phase in err, phase
        assert "counters:" in err and "detector.races" in err

    def test_repair_timings_includes_placement(self, racy_file, capsys):
        code = main(["repair", racy_file, "--timings"])
        captured = capsys.readouterr()
        assert code == 0
        assert "finish" in captured.out  # repaired source still on stdout
        assert "placement" in captured.err
        assert "repair.iterations" in captured.err

    def test_detect_without_timings_prints_no_tree(self, racy_file, capsys):
        main(["detect", racy_file])
        assert "telemetry:" not in capsys.readouterr().err


class TestProfile:
    def test_profile_writes_valid_chrome_trace(self, racy_file, tmp_path,
                                               capsys):
        from repro.telemetry import validate_chrome_trace

        trace = tmp_path / "trace.json"
        code = main(["profile", racy_file, "--trace-out", str(trace)])
        captured = capsys.readouterr()
        assert code == 0
        assert f"telemetry: profile:{racy_file}" in captured.out
        assert str(trace) in captured.err
        doc = json.loads(trace.read_text())
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"execute", "dpst", "detect", "placement"} <= names

    def test_profile_detect_kind(self, racy_file, capsys):
        code = main(["profile", racy_file, "--kind", "detect"])
        out = capsys.readouterr().out
        assert code == 0
        assert "detect_races" in out and "placement" not in out

    def test_profile_measure_adds_schedule_process(self, clean_file,
                                                   tmp_path):
        from repro.telemetry import PIPELINE_PID, SCHEDULE_PID, \
            validate_chrome_trace

        trace = tmp_path / "measure.json"
        code = main(["profile", clean_file, "--kind", "measure",
                     "--processors", "2", "--trace-out", str(trace)])
        assert code == 0
        doc = json.loads(trace.read_text())
        assert validate_chrome_trace(doc) == []
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert {PIPELINE_PID, SCHEDULE_PID} <= pids

    def test_profile_without_trace_out_writes_nothing(self, racy_file,
                                                      tmp_path, capsys):
        code = main(["profile", racy_file, "--kind", "detect"])
        assert code == 0
        # Only the fixture's source file — no trace file appeared.
        assert [p.name for p in tmp_path.iterdir()] == ["racy.hj"]

    def test_profile_bad_file_is_diagnosed(self, tmp_path, capsys):
        bad = tmp_path / "bad.hj"
        bad.write_text("def main( {")
        code = main(["profile", str(bad)])
        assert code == 2
        assert "syntax error" in capsys.readouterr().err


class TestBatchPhaseSummary:
    def test_batch_prints_phase_table(self, tmp_path, capsys):
        for index in range(3):
            (tmp_path / f"p{index}.hj").write_text(
                RACY.replace("x = 1", f"x = {index + 2}"))
        code = main(["batch", str(tmp_path), "--kind", "detect",
                     "--no-cache"])
        err = capsys.readouterr().err
        assert code == 0  # detect jobs succeed even when races are found
        assert "phase latency over executed jobs:" in err
        assert "detect_races" in err
        header = [line for line in err.splitlines() if "p50 ms" in line]
        assert header and "p95 ms" in header[0]

"""How a CLI process ends: `ghzsim.cli.run` flushes the standard streams and
ends the process with `os._exit`, skipping interpreter teardown, while
`main()` called in-process returns its code.

The process tests run a new interpreter with PYTHONUNBUFFERED unset, so
stdout is block-buffered on a pipe, as a user's pipeline sees it: output
that is not flushed before `os._exit` is lost, and these tests see that."""
from __future__ import annotations

import errno
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghzsim
import ghzsim.cli
from ghzsim.cli import EXIT_AUDIT_FLAGGED, EXIT_CONFIG, EXIT_IO, EXIT_OK
from ghzsim.sweep import records_to_csv, run_sweep

SRC = str(Path(ghzsim.__file__).resolve().parents[1])

posix_only = pytest.mark.skipif(os.name != "posix", reason="uses POSIX descriptors and sh")


def cli_env(unbuffered: bool = False) -> dict[str, str]:
    """The environment of a CLI process: this one's, with PYTHONUNBUFFERED
    set to 1 or unset."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return env


def cli_process(args, cwd, *, code=None, stdout=subprocess.PIPE, close_stdout=False):
    """Run `python -m ghzsim.cli ARGS` (or `python -c CODE ARGS`) in `cwd`
    with PYTHONUNBUFFERED unset; return the CompletedProcess with bytes."""
    env = cli_env()
    argv = [sys.executable, *(["-m", "ghzsim.cli"] if code is None else ["-c", code]), *args]
    if close_stdout:
        argv = ["sh", "-c", 'exec "$0" "$@" >&-', *argv]
    return subprocess.run(
        argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=stdout,
        stderr=subprocess.PIPE, timeout=120,
    )


class TestProcessExitCodes:
    @pytest.mark.parametrize(
        "args, exit_code, stdout_start, stderr_start",
        [
            (["sumrules", "--samples", "3", "--out", "r.json"], EXIT_OK, b"", b""),
            (["sweep", "--alpha", "2"], EXIT_CONFIG, b"", b"error: alpha"),
            (["sweep", "--beta-steps", "3", "--p-steps", "3", "--out", "missing/x.csv"],
             EXIT_IO, b"", b"I/O error: "),
            (["audit", "--beta-steps", "2", "--p-steps", "2", "--samples", "3", "--out",
              "a.json"], EXIT_AUDIT_FLAGGED, b"", b"audit: "),
            (["--help"], 0, b"usage: ghzsim", b""),
            (["sweep", "--bogus"], 2, b"", b"usage: ghzsim"),
        ],
        ids=["ok", "config", "io", "audit-flagged", "help", "usage-error"],
    )
    def test_exit_code_and_messages(self, tmp_path, args, exit_code, stdout_start, stderr_start):
        done = cli_process(args, tmp_path)
        assert done.returncode == exit_code
        assert done.stdout.startswith(stdout_start)
        assert done.stderr.startswith(stderr_start)
        assert b"Traceback" not in done.stderr

    def test_exception_keeps_its_traceback_and_exit_code(self, tmp_path):
        code = (
            "import ghzsim.cli as cli\n"
            "def boom(args):\n"
            "    print('partial output')\n"
            "    raise RuntimeError('internal bug')\n"
            "cli._COMMANDS['sumrules'] = boom\n"
            "cli.run()\n"
        )
        done = cli_process(["sumrules"], tmp_path, code=code)
        assert done.returncode == 1
        assert done.stderr.startswith(b"Traceback (most recent call last):")
        assert done.stderr.endswith(b"RuntimeError: internal bug\n")
        assert done.stdout == b"partial output\n"


class TestOutputSurvivesTheExit:
    def test_piped_sweep_gives_the_bytes_of_records_to_csv(self, tmp_path):
        done = cli_process(["sweep"], tmp_path)
        assert done.returncode == EXIT_OK
        assert done.stdout == records_to_csv(run_sweep()).encode()

    def test_figure_prints_its_paths(self, tmp_path):
        done = cli_process(["figure", "--figure", "2", "--resolution", "16", "--out",
                            "fig.csv"], tmp_path)
        assert done.returncode == EXIT_OK
        assert done.stdout == b"fig_E.csv\nfig_C.csv\n"
        assert (tmp_path / "fig_E.csv").is_file() and (tmp_path / "fig_C.csv").is_file()

    @posix_only
    def test_failed_flush_is_reported_by_the_normal_shutdown(self, tmp_path):
        """A reader that has gone before the flush: the process ends as an
        interpreter that cannot flush stdout at exit does."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = cli_process(["boundary", "--measure", "S"], tmp_path, stdout=write_end)
        finally:
            os.close(write_end)
        assert done.returncode == 120
        assert b"Exception ignored" in done.stderr
        assert done.stderr.rstrip().endswith(b"BrokenPipeError: [Errno 32] Broken pipe")


class TestEarlyClosingReader:
    """A reader that closes the pipe before the output ends, as `ghzsim
    sweep | head -c 100` does: the writer's next write fails with EPIPE and
    the process exits 3, whether stdout's binary layer is buffered or, under
    PYTHONUNBUFFERED, the raw file, which takes a short write."""

    @posix_only
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_exits_3(self, tmp_path, unbuffered):
        proc = subprocess.Popen(
            [sys.executable, "-m", "ghzsim.cli", "sweep"], cwd=tmp_path,
            env=cli_env(unbuffered), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            assert proc.stdout.read(100) == records_to_csv(run_sweep())[:100].encode()
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert proc.wait(timeout=120) == EXIT_IO
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert stderr == f"I/O error: [Errno {errno.EPIPE}] Broken pipe\n".encode()

    class ShortWrites(io.RawIOBase):
        """A raw stream that takes at most 4,096 bytes per write."""

        def __init__(self):
            self.received = bytearray()

        def writable(self):
            return True

        def write(self, data):
            taken = bytes(data[:4096])
            self.received += taken
            return len(taken)

    def test_the_text_layer_drops_a_short_writes_remainder(self):
        """The defect: what PYTHONUNBUFFERED's stdout does on its own."""
        raw = self.ShortWrites()
        io.TextIOWrapper(raw, write_through=True).write("x" * 5000)
        assert len(raw.received) == 4096

    @pytest.mark.parametrize("write_through", [True, False])
    def test_short_writes_deliver_the_whole_text(self, monkeypatch, write_through):
        """After text still held by the text layer, in order."""
        raw = self.ShortWrites()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, write_through=write_through))
        print("before", end="")
        assert ghzsim.cli.main(["sweep", "--beta-steps", "11", "--p-steps", "7"]) == EXIT_OK
        text = records_to_csv(run_sweep(beta_steps=11, p_steps=7))
        assert len(text) > 3 * 4096
        assert bytes(raw.received) == b"before" + text.encode()

    def test_a_stdout_with_no_binary_layer_gets_the_text(self, monkeypatch):
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        assert ghzsim.cli.main(["sweep", "--beta-steps", "2", "--p-steps", "2"]) == EXIT_OK
        grid = run_sweep(beta_steps=2, p_steps=2)
        assert sys.stdout.getvalue() == records_to_csv(grid)


@posix_only
class TestClosedStdout:
    def test_output_to_a_closed_stdout_is_an_io_error(self, tmp_path):
        done = cli_process(["sumrules", "--samples", "5"], tmp_path, close_stdout=True)
        assert done.returncode == EXIT_IO
        message = f"I/O error: [Errno {errno.EBADF}] standard output is closed\n"
        assert done.stderr == message.encode()

    def test_out_file_needs_no_stdout(self, tmp_path):
        done = cli_process(["sumrules", "--samples", "5", "--out", "x.json"], tmp_path,
                           close_stdout=True)
        assert done.returncode == EXIT_OK
        assert done.stderr == b""
        assert (tmp_path / "x.json").read_text().startswith("{")


class TestEntryInProcess:
    """`run()` with `main` and `os._exit` replaced: what it calls, in which
    order. The streams are replaced inside each test, because pytest's
    capture sets `sys.stdout` again when the test body starts."""

    class Exited(Exception):
        pass

    def run_entry(self, monkeypatch, stdout_flush=None, stdout_none=False):
        events: list = []

        class Stream:
            def __init__(self, name):
                self.name = name

            def flush(self):
                events.append(("flush", self.name))

        def fake_exit(code):
            events.append(("exit", code))
            raise self.Exited

        stdout = None if stdout_none else Stream("stdout")
        if stdout_flush is not None:
            stdout.flush = stdout_flush
        monkeypatch.setattr(ghzsim.cli, "main", lambda: events.append("main") or 4)
        monkeypatch.setattr(os, "_exit", fake_exit)
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(sys, "stderr", Stream("stderr"))
        try:
            ghzsim.cli.run()
        except self.Exited:
            pass
        except SystemExit as exc:
            events.append(("SystemExit", exc.code))
        return events

    def test_flushes_then_exits_once_with_mains_code(self, monkeypatch):
        assert self.run_entry(monkeypatch) == [
            "main", ("flush", "stdout"), ("flush", "stderr"), ("exit", 4)
        ]

    def test_skips_a_stream_that_is_none(self, monkeypatch):
        assert self.run_entry(monkeypatch, stdout_none=True) == [
            "main", ("flush", "stderr"), ("exit", 4)
        ]

    def test_failed_flush_exits_through_system_exit(self, monkeypatch):
        def broken_pipe():
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        assert self.run_entry(monkeypatch, stdout_flush=broken_pipe) == ["main", ("SystemExit", 4)]

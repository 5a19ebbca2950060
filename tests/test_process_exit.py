"""How a CLI process ends: every byte is written, and flushed, inside
`main()`, which returns its code, and `ghzsim.cli.run` ends the process with
`os._exit` and that code, skipping interpreter teardown. A closed or gone
stdout is an I/O error for every output, argparse's help and `figure`'s path
list included; a closed stderr changes neither stdout nor the exit code, and
no output depends on the string hash seed.

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
proc_fds = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")


def cli_env(unbuffered: bool = False, **extra: str) -> dict[str, str]:
    """The environment of a CLI process: this one's, with PYTHONUNBUFFERED
    set to 1 or unset, and `extra` set."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return {**env, **extra}


def cli_process(args, cwd, *, code=None, stdout=subprocess.PIPE, close_stdout=False, **extra):
    """Run `python -m ghzsim.cli ARGS` (or `python -c CODE ARGS`) in `cwd`
    with PYTHONUNBUFFERED unset and the `extra` environment variables set;
    return the CompletedProcess with bytes."""
    env = cli_env(**extra)
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
        assert done.stdout == "".join(records_to_csv(run_sweep())).encode()

    def test_figure_prints_its_paths(self, tmp_path):
        done = cli_process(["figure", "--figure", "2", "--resolution", "16", "--out",
                            "fig.csv"], tmp_path)
        assert done.returncode == EXIT_OK
        assert done.stdout == b"fig_E.csv\nfig_C.csv\n"
        assert (tmp_path / "fig_E.csv").is_file() and (tmp_path / "fig_C.csv").is_file()

    @posix_only
    def test_out_dev_stdout_writes_the_pipe(self, tmp_path):
        """`--out /dev/stdout` with stdout a pipe writes the pipe, as a shell
        `>` would, and gives the bytes of a run to stdout."""
        args = ["sweep", "--beta-steps", "2", "--p-steps", "2"]
        done = cli_process([*args, "--out", "/dev/stdout"], tmp_path)
        assert (done.returncode, done.stderr) == (EXIT_OK, b"")
        assert done.stdout == cli_process(args, tmp_path).stdout
        assert list(tmp_path.iterdir()) == []

    @proc_fds
    def test_out_naming_the_file_on_stdout_writes_at_its_offset(self, tmp_path):
        """`--out` naming the regular file open on stdout, as `/dev/stdout`
        does under a shell's `>`, writes through stdout at the offset the
        shell shares, so what the shell writes before and after stays."""
        args = ["sweep", "--beta-steps", "2", "--p-steps", "2"]
        log = tmp_path / "log"
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.write(fd, b"header\n")
            done = cli_process([*args, "--out", "/proc/self/fd/1"], tmp_path, stdout=fd)
            os.write(fd, b"footer\n")
        finally:
            os.close(fd)
        assert (done.returncode, done.stderr) == (EXIT_OK, b"")
        assert log.read_bytes() == b"header\n" + cli_process(args, tmp_path).stdout + b"footer\n"
        assert [p.name for p in tmp_path.iterdir()] == ["log"]

    @posix_only
    def test_write_failing_mid_out_leaves_the_target(self, tmp_path):
        """A write that fails part-way through `--out`, here at a file-size
        limit with SIGXFSZ ignored, so that the write fails with EFBIG: one
        I/O error line and exit 3, no temporary file left, and the existing
        target keeps its bytes."""
        limit = 1 << 14
        code = (
            "import resource, signal, ghzsim.cli\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
            f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, hard))\n"
            "ghzsim.cli.run()\n"
        )
        args = ["sweep", "--beta-steps", "11", "--p-steps", "11"]
        assert len(cli_process(args, tmp_path).stdout) > 3 * limit
        (tmp_path / "out.csv").write_bytes(b"old\n")
        done = cli_process([*args, "--out", "out.csv"], tmp_path, code=code)
        assert done.returncode == EXIT_IO
        message = f"I/O error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: 'out.csv'\n"
        assert done.stderr == message.encode()
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert (tmp_path / "out.csv").read_bytes() == b"old\n"

    @posix_only
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "args",
        [["boundary", "--measure", "S"], ["sumrules", "--samples", "3"],
         ["figure", "--figure", "2", "--resolution", "16", "--out", "f.csv"], ["--help"]],
        ids=["boundary", "sumrules", "figure-paths", "help"],
    )
    def test_gone_reader_at_the_final_flush_exits_3(self, tmp_path, args, unbuffered):
        """A reader that has gone before the output, which fits stdout's
        buffer, is flushed when it is written: an I/O error, as a failed
        write is, and under PYTHONUNBUFFERED too."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = cli_process(args, tmp_path, stdout=write_end, unbuffered=unbuffered)
        finally:
            os.close(write_end)
        assert done.returncode == EXIT_IO
        assert done.stderr == f"I/O error: [Errno {errno.EPIPE}] Broken pipe\n".encode()

    class GoneReader(io.RawIOBase):
        """A pipe whose reader has gone: a write fails with EPIPE while
        `gone` is set."""

        gone = True

        def writable(self):
            return True

        def write(self, data):
            if self.gone:
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")
            return len(data)

    def test_failed_final_flush_in_process_is_exit_io(self, monkeypatch, capsys):
        """In-process, a stdout whose binary layer holds the whole output and
        fails with EPIPE on `flush`: `main` returns EXIT_IO after one line."""
        raw = self.GoneReader()
        stdout = io.TextIOWrapper(io.BufferedWriter(raw, buffer_size=1 << 20))
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            assert ghzsim.cli.main(["sumrules", "--samples", "3"]) == EXIT_IO
        finally:
            raw.gone = False  # so that closing `stdout` later flushes quietly
        assert capsys.readouterr().err == f"I/O error: [Errno {errno.EPIPE}] Broken pipe\n"


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
            assert proc.stdout.read(100) == "".join(records_to_csv(run_sweep()))[:100].encode()
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
        text = "".join(records_to_csv(run_sweep(beta_steps=11, p_steps=7)))
        assert len(text) > 3 * 4096
        assert bytes(raw.received) == b"before" + text.encode()

    def test_a_stdout_with_no_binary_layer_gets_the_text(self, monkeypatch):
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        assert ghzsim.cli.main(["sweep", "--beta-steps", "2", "--p-steps", "2"]) == EXIT_OK
        grid = run_sweep(beta_steps=2, p_steps=2)
        assert sys.stdout.getvalue() == "".join(records_to_csv(grid))


@posix_only
class TestClosedStdout:
    @pytest.mark.parametrize(
        "args, files",
        [(["sumrules", "--samples", "5"], []),
         (["--help"], []),
         (["figure", "--figure", "2", "--resolution", "16", "--out", "fx.csv"],
          ["fx_E.csv", "fx_C.csv"])],
        ids=["sumrules", "help", "figure-paths"],
    )
    def test_output_to_a_closed_stdout_is_an_io_error(self, tmp_path, args, files):
        done = cli_process(args, tmp_path, close_stdout=True)
        assert done.returncode == EXIT_IO
        message = f"I/O error: [Errno {errno.EBADF}] standard output is closed\n"
        assert done.stderr == message.encode()
        assert all((tmp_path / name).is_file() for name in files)

    def test_out_file_needs_no_stdout(self, tmp_path):
        done = cli_process(["sumrules", "--samples", "5", "--out", "x.json"], tmp_path,
                           close_stdout=True)
        assert done.returncode == EXIT_OK
        assert done.stderr == b""
        assert (tmp_path / "x.json").read_text().startswith("{")


@posix_only
class TestClosedStderr:
    """A closed standard error drops ghzsim's lines, argparse's usage errors
    included: stdout and the exit code are those of a run with stderr open.
    Descriptor 2 is closed before the interpreter starts, which leaves
    `sys.stderr` None, or after, which leaves a stream whose writes fail
    with EBADF; stderr is buffered, or unbuffered under PYTHONUNBUFFERED."""

    LAUNCH = {
        "closed-before-start": ["sh", "-c", 'exec "$0" "$@" 2>&-', sys.executable, "-m",
                                "ghzsim.cli"],
        "closed-after-start": [sys.executable, "-c",
                               "import os; os.close(2); import ghzsim.cli; ghzsim.cli.run()"],
    }

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("closed", sorted(LAUNCH))
    @pytest.mark.parametrize(
        "args, exit_code",
        [(["audit", "--beta-steps", "3", "--p-steps", "3", "--samples", "3"], EXIT_AUDIT_FLAGGED),
         (["sweep", "--scenario", "nope"], EXIT_CONFIG),
         (["sweep", "--bogus"], EXIT_CONFIG)],
        ids=["audit-flagged", "config-error", "usage-error"],
    )
    def test_stdout_and_exit_code_are_those_of_an_open_stderr(
        self, tmp_path, capsys, args, exit_code, closed, unbuffered
    ):
        assert ghzsim.cli.main(args) == exit_code
        open_stderr = capsys.readouterr()
        assert open_stderr.err  # the line that a closed stderr drops
        done = subprocess.run(
            self.LAUNCH[closed] + args, cwd=tmp_path, env=cli_env(unbuffered),
            stdin=subprocess.DEVNULL, capture_output=True, timeout=120,
        )
        assert done.returncode == exit_code
        assert done.stdout == open_stderr.out.encode()
        assert done.stderr == b""

    def test_usage_error_in_process_with_stderr_none(self, monkeypatch, capsys):
        """`main` called where `sys.stderr` is None, as in a process started
        with descriptor 2 closed: the usage line is dropped, not written to
        stdout."""
        monkeypatch.setattr(sys, "stderr", None)
        assert ghzsim.cli.main(["sweep", "--bogus"]) == EXIT_CONFIG
        assert capsys.readouterr().out == ""


class TestHashSeed:
    """No output depends on the string hash seed: fresh processes under two
    seeds write the same bytes."""

    @pytest.mark.parametrize(
        "args, exit_code",
        [(["audit", "--beta-steps", "5", "--p-steps", "5", "--samples", "10"], EXIT_AUDIT_FLAGGED),
         (["sweep", "--format", "json", "--beta-steps", "3", "--p-steps", "3"], EXIT_OK)],
        ids=["audit", "sweep-json"],
    )
    def test_two_seeds_give_the_same_bytes(self, tmp_path, args, exit_code):
        runs = [cli_process(args, tmp_path, PYTHONHASHSEED=seed) for seed in ("1", "2")]
        assert [done.returncode for done in runs] == [exit_code, exit_code]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.startswith((b"{", b"["))


class TestEntryInProcess:
    """`run()` with `main` and `os._exit` replaced: it calls `main` once and
    exits with its code, and writes and flushes nothing itself. The streams
    are replaced inside each test, because pytest's capture sets `sys.stdout`
    again when the test body starts."""

    class Exited(Exception):
        pass

    @pytest.mark.parametrize("stdout_none", [False, True], ids=["stdout-open", "stdout-none"])
    def test_exits_once_with_mains_code_and_writes_nothing(self, monkeypatch, stdout_none):
        events: list = []

        class Stream:
            def __init__(self, name):
                self.name = name

            def flush(self):
                events.append(("flush", self.name))

            def write(self, text):
                events.append(("write", self.name, text))

        def fake_exit(code):
            events.append(("exit", code))
            raise self.Exited

        monkeypatch.setattr(ghzsim.cli, "main", lambda: events.append("main") or 4)
        monkeypatch.setattr(os, "_exit", fake_exit)
        monkeypatch.setattr(sys, "stdout", None if stdout_none else Stream("stdout"))
        monkeypatch.setattr(sys, "stderr", Stream("stderr"))
        with pytest.raises(self.Exited):
            ghzsim.cli.run()
        assert events == ["main", ("exit", 4)]

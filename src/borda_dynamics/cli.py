"""Command line interface: enumerate, simulate, verify, export-dot.

Exit codes: 0 success, 1 verification failure, 2 input error (a missing file,
an output that cannot be written, two outputs to one file, stdout included
in both, a bad argument, or a `ScenarioFormatError`, `ScenarioBuildError` or
`ScheduleError`), 3 step budget exceeded.  Any other exception is a bug and
shows as a traceback.  All output is deterministic byte-for-byte given the
same inputs and seeds.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import stat
import sys
from contextlib import ExitStack, contextmanager, suppress
from functools import cache

from .dynamics import report_to_json_dict, write_trajectory_csv
from .errors import BudgetExceededError, ScenarioBuildError, ScenarioFormatError, ScheduleError
from .influence import network_to_dot
from .move_graph import build_cover_graph, move_graph_to_dot
from .scenarios import load_scenario
from .verifiers import load_suite, run_suite
from .weak_orders import MAX_ALTERNATIVES, antipode, borda_scores, format_order

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3


class OutputError(Exception):
    """An output path that cannot be written: an input error, not a failed claim."""


@contextmanager
def _refused(path: str | None):
    """An OSError inside is an OutputError naming `path`, or stdout for no path
    or '-', which is then pointed at devnull so that its flush at exit passes."""
    try:
        yield
    except OSError as exc:
        if path in (None, "-"):
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, sys.stdout.fileno())
            finally:
                os.close(devnull)
            path = "stdout"
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write(*outputs: tuple[str | None, str, str | None]) -> None:
    """Write each (path, text, newline) to stdout for no path or '-', else to
    the file at `path`.  Every file is opened without truncating it before
    any is written, so a path that cannot be opened, or two outputs to one
    regular file (stdout counted when something is written to it), leave
    every output as it was; a regular file is truncated just before it is
    written."""
    with ExitStack() as stack:
        handles, files = [], {}  # files: (st_dev, st_ino) -> path, per regular file
        if any(path in (None, "-") for path, _, _ in outputs):
            with suppress(OSError, ValueError):  # no descriptor, as for a StringIO, or a closed one
                st = os.fstat(sys.stdout.fileno())
                if stat.S_ISREG(st.st_mode):
                    files[st.st_dev, st.st_ino] = "stdout"
        for path, _, newline in outputs:
            with _refused(path):
                handle = sys.stdout if path in (None, "-") else stack.enter_context(open(path, "a", newline=newline))
            st = None if handle is sys.stdout else os.fstat(handle.fileno())
            regular = st is not None and stat.S_ISREG(st.st_mode)
            if regular:
                key = st.st_dev, st.st_ino
                if key in files:
                    raise OutputError(f"cannot write {path}: it is the same file as {files[key]}")
                files[key] = path
            handles.append((handle, regular))
        for (path, text, _), (handle, regular) in zip(outputs, handles):
            with _refused(path):
                if regular:
                    handle.truncate(0)
                handle.write(text)
                handle.flush()


def _dump_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_enumerate(args) -> int:
    graph = build_cover_graph(args.m)
    lines = ["id,order,scores,antipode,degree"]
    for k, w in enumerate(graph.orders):
        scores = ";".join(str(s) for s in borda_scores(w))
        lines.append(
            f"{k},{format_order(w)},{scores},"
            f"{format_order(antipode(w))},{graph.degree(w)}"
        )
    _write((args.out, "\n".join(lines) + "\n", None))
    return EXIT_OK


def cmd_simulate(args) -> int:
    sc = load_scenario(args.scenario)
    report = sc.run()
    doc = report_to_json_dict(report, sc.network.names, label=sc.label)
    outputs = [(args.report, _dump_json(doc), None)]
    if args.csv is not None:
        trajectory = io.StringIO()
        write_trajectory_csv(report, sc.network.names, trajectory)
        outputs.append((args.csv, trajectory.getvalue(), ""))
    _write(*outputs)
    return EXIT_OK


def cmd_verify(args) -> int:
    entries = load_suite(args.suite)
    results, all_matched = run_suite(entries)
    _write((args.out, _dump_json(results), None))
    return EXIT_OK if all_matched else EXIT_VERIFY_FAILED


def cmd_export_dot(args) -> int:
    if args.move_graph is not None:
        _write((args.out, move_graph_to_dot(build_cover_graph(args.move_graph)), None))
    else:
        sc = load_scenario(args.scenario)
        _write((args.out, network_to_dot(sc.network), None))
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later `main` call."""
    parser = argparse.ArgumentParser(
        prog="borda-dynamics",
        description="Bounded Borda preference dynamics on influence networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list all weak orders with scores and degrees")
    p_enum.add_argument("m", type=int, choices=range(2, MAX_ALTERNATIVES + 1), metavar="m",
                        help="number of alternatives (2..6)")
    p_enum.add_argument("--out", default=None, help="output path (default stdout)")
    p_enum.set_defaults(func=cmd_enumerate)

    p_sim = sub.add_parser("simulate", help="run a scenario file to its cycle")
    p_sim.add_argument("scenario", help="scenario JSON path")
    p_sim.add_argument("--csv", default=None, help="write the trajectory CSV here ('-' = stdout)")
    p_sim.add_argument("--report", default=None, help="write the orbit report here (default stdout)")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run a suite manifest of verifiers")
    p_ver.add_argument("suite", help="suite manifest JSON path")
    p_ver.add_argument("--out", default=None, help="outcomes JSON path (default stdout)")
    p_ver.set_defaults(func=cmd_verify)

    p_dot = sub.add_parser("export-dot", help="export a move graph or a scenario network")
    group = p_dot.add_mutually_exclusive_group(required=True)
    group.add_argument("--move-graph", type=int, choices=range(2, MAX_ALTERNATIVES + 1),
                       default=None, metavar="M", help="export the move graph for M alternatives")
    group.add_argument("--scenario", default=None, help="export a scenario's influence network")
    p_dot.add_argument("--out", default=None, help="output path (default stdout)")
    p_dot.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioFormatError, ScenarioBuildError, ScheduleError, OutputError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())

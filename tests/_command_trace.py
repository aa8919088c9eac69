"""Run commands of the package under one sys.settrace line trace and
print what they reached, as JSON on stdout.

    python tests/_command_trace.py PLAN

PLAN is a JSON object: "commands", a list of argument lists of
equiwave.cli.main, and "children", a list of scenario files.  The trace
starts before the package is imported, so what a command runs at import
is traced too, and it follows only the package's own files.  A command's
evolve stage forks a child, which is not traced: the body of that child,
solver._send_all, runs here after the commands, in this process, for
each file of "children".  The output is {"codes": the exit code of each
command, "lines": every [file, line] a line event reached, "calls":
every [file, first line] of a code object that was called}.
"""

import importlib.util
import json
import os
import sys


def main(plan: dict) -> dict:
    root = importlib.util.find_spec("equiwave").submodule_search_locations[0]
    lines, calls = set(), set()

    def line(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(root):
            return None
        calls.add((code.co_filename, code.co_firstlineno))
        return line

    # a forked child runs untraced: its body runs here
    os.register_at_fork(after_in_child=lambda: sys.settrace(None))
    sys.settrace(call)
    try:
        import numpy as np

        import equiwave.cli
        import equiwave.scenario
        import equiwave.solver

        codes = [equiwave.cli.main(argv) for argv in plan["commands"]]
        for path in plan["children"]:
            scenario = equiwave.scenario.load_scenario(path)
            fields = np.empty((scenario.radial_grid.N, scenario.snapshot_count), order="F")
            equiwave.solver._send_all(_Discard(), scenario, "phi", fields)
    finally:
        sys.settrace(None)
    return {"codes": codes, "lines": sorted(lines), "calls": sorted(calls)}


class _Discard:
    """The sending end of a pipe that drops what it is sent."""

    def send(self, value):
        pass

    def close(self):
        pass


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))

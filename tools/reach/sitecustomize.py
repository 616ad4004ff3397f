"""Loaded at start-up from ``PYTHONPATH``: with ``REACH_OUT`` set, record
every ``repro`` code object the process calls and write them, one
``file<TAB>first line<TAB>name`` line each, to ``REACH_OUT/<pid>.tsv``.
With ``REACH_LINES`` set as well, a line tracer also records every line
a ``repro`` frame executes, one ``file<TAB>line`` each, to
``REACH_OUT/<pid>.lines`` (slower: ``sys.settrace`` instead of
``sys.setprofile``)."""
import os

_OUT = os.environ.get("REACH_OUT")

if _OUT:
    import atexit, sys, threading  # noqa: E401

    _seen = set()
    _lines = set()
    _MARKER = os.sep + "repro" + os.sep

    def _hook(frame, event, arg):
        if event == "call":
            _seen.add(frame.f_code)

    def _line(frame, event, arg):
        if event == "line":
            _lines.add((frame.f_code.co_filename, frame.f_lineno))
        return _line

    def _call(frame, event, arg):
        _seen.add(frame.f_code)
        return _line if _MARKER in frame.f_code.co_filename else None

    if os.environ.get("REACH_LINES"):
        sys.settrace(_call)
        threading.settrace(_call)
    else:
        sys.setprofile(_hook)
        threading.setprofile(_hook)

    @atexit.register
    def _dump():
        sys.setprofile(None)
        sys.settrace(None)
        lines = {
            f"{os.path.realpath(c.co_filename)}\t{c.co_firstlineno}\t{c.co_name}\n"
            for c in list(_seen) if _MARKER in c.co_filename
        }
        with open(os.path.join(_OUT, f"{os.getpid()}.tsv"), "w") as out:
            out.writelines(sorted(lines))
        if _lines:
            with open(os.path.join(_OUT, f"{os.getpid()}.lines"), "w") as out:
                out.writelines(
                    sorted({f"{os.path.realpath(f)}\t{n}\n" for f, n in list(_lines)})
                )

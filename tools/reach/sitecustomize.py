"""Loaded at start-up from ``PYTHONPATH``: with ``REACH_OUT`` set, record
every ``repro`` code object the process calls and write them, one
``file<TAB>first line<TAB>name`` line each, to ``REACH_OUT/<pid>.tsv``."""
import os

_OUT = os.environ.get("REACH_OUT")

if _OUT:
    import atexit, sys, threading  # noqa: E401

    _seen = set()

    def _hook(frame, event, arg):
        if event == "call":
            _seen.add(frame.f_code)

    sys.setprofile(_hook)
    threading.setprofile(_hook)

    @atexit.register
    def _dump():
        sys.setprofile(None)
        marker = os.sep + "repro" + os.sep
        lines = {
            f"{os.path.realpath(c.co_filename)}\t{c.co_firstlineno}\t{c.co_name}\n"
            for c in list(_seen) if marker in c.co_filename
        }
        with open(os.path.join(_OUT, f"{os.getpid()}.tsv"), "w") as out:
            out.writelines(sorted(lines))

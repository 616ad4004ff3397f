"""``python tools/reach/report.py [--lines] [--keep FILE] TRACE_DIR [SRC_DIR]``:
print every outermost function (module level, or a method of a
module-level class) no recorded code object starts on, with its size in
lines, then the totals.  ``--keep FILE`` (``module:qualname  reason``
lines) exits 1 when an unreached function is not listed or a listed one
no longer exists.  ``--lines`` (a ``run.sh --lines`` trace) prints
instead each maximal statement of a reached function that no executed
line falls in, classed *error* (``raise``, ``assert``, an ``except``
arm, an ``if`` whose only body is a ``raise``), *early* (``return``,
``continue``, ``break``) or *other*, then the totals per class."""
import argparse
import ast
import os
import sys


def outermost(tree):
    for node in tree.body:
        for item in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = item.name if item is node else f"{node.name}.{item.name}"
                first = min([item.lineno] + [d.lineno for d in item.decorator_list])
                yield name, first, item


def children(node):
    """The statements directly under ``node``, ``except`` arms included."""
    fields = ("body", "orelse", "finalbody", "handlers")
    return [child for field in fields for child in getattr(node, field, None) or ()]


def unexecuted(body, hit):
    """The maximal statements of ``body`` no line in ``hit`` falls in; a
    compound statement ran when its header or any child ran."""

    def ran(node):
        inner = children(node)
        last = max(node.lineno, inner[0].lineno - 1) if inner else node.end_lineno
        return any(n in hit for n in range(node.lineno, last + 1)) or any(map(ran, inner))

    for node in body:
        if isinstance(node, (ast.Global, ast.Nonlocal)) or (
            isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        ):
            continue  # declarations, docstrings and ``...`` compile to nothing
        if ran(node):
            yield from unexecuted(children(node), hit)
        else:
            yield node


def kind(node):
    if isinstance(node, (ast.Raise, ast.Assert, ast.ExceptHandler)) or (
        isinstance(node, ast.If)
        and not node.orelse
        and [type(child) for child in node.body] == [ast.Raise]
    ):
        return "error"
    return "early" if isinstance(node, (ast.Return, ast.Continue, ast.Break)) else "other"


def main(trace_dir, src, lines, keep):
    reached, hit = set(), {}
    for entry in os.listdir(trace_dir):
        with open(os.path.join(trace_dir, entry)) as records:
            for path, line, *_ in (record.rstrip("\n").split("\t") for record in records):
                if entry.endswith(".lines"):
                    hit.setdefault(path, set()).add(int(line))
                else:
                    reached.add((path, int(line)))
    count = unreached = size = 0
    defined, missing = set(), []
    totals = {"error": [0, 0], "early": [0, 0], "other": [0, 0]}
    for root, _, files in sorted(os.walk(src)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.realpath(os.path.join(root, name))
            module = os.path.relpath(path[:-3], os.path.realpath(os.path.dirname(src)))
            module = module.replace(os.sep, ".").replace(".__init__", "")
            with open(path) as source:
                functions = list(outermost(ast.parse(source.read())))
            count += len(functions)
            for function, first, node in functions:
                defined.add(f"{module}:{function}")
                if (path, first) in reached:
                    for arm in unexecuted(node.body, hit.get(path, ())) if lines else ():
                        length, label = arm.end_lineno - arm.lineno + 1, kind(arm)
                        totals[label][0] += 1
                        totals[label][1] += length
                        print(f"{length:5d}  {label:5}  "
                              f"{os.path.relpath(path)}:{arm.lineno}  {function}")
                    continue
                unreached += 1
                size += node.end_lineno - first + 1
                if not lines:
                    print(f"{node.end_lineno - first + 1:5d}  "
                          f"{os.path.relpath(path)}:{first}  {function}")
                if keep is not None and f"{module}:{function}" not in keep:
                    missing.append(f"{module}:{function}")
    print(f"{count} outermost functions, {unreached} unreached ({size} lines)")
    for label, (statements, length) in totals.items() if lines else ():
        print(f"{statements} unexecuted {label} statements ({length} lines)")
    stale = sorted(set(keep or ()) - defined)
    for name in missing:
        print(f"unreached and not in the keep list: {name}")
    for name in stale:
        print(f"in the keep list but no longer defined: {name}")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("trace_dir")
    parser.add_argument("src", nargs="?", default="src/repro")
    parser.add_argument("--lines", action="store_true")
    parser.add_argument("--keep", type=argparse.FileType())
    args = parser.parse_args()
    keep = args.keep and {
        line.split()[0] for line in args.keep if line[:1].strip() not in ("", "#")
    }
    sys.exit(main(args.trace_dir, args.src, args.lines, keep))

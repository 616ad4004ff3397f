"""``python tools/reach/report.py TRACE_DIR [SRC_DIR]``: print every
outermost function (module level, or a method of a module-level class) no
recorded code object starts on, with its size in lines, then the totals."""
import ast
import os
import sys


def outermost(tree):
    for node in tree.body:
        for item in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = item.name if item is node else f"{node.name}.{item.name}"
                first = min([item.lineno] + [d.lineno for d in item.decorator_list])
                yield name, first, item.end_lineno - first + 1


def main(trace_dir, src="src/repro"):
    reached = set()
    for entry in os.listdir(trace_dir):
        with open(os.path.join(trace_dir, entry)) as lines:
            for path, first, _ in (line.rstrip("\n").split("\t") for line in lines):
                reached.add((path, int(first)))
    count = unreached = size = 0
    for root, _, files in sorted(os.walk(src)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.realpath(os.path.join(root, name))
            with open(path) as source:
                functions = list(outermost(ast.parse(source.read())))
            count += len(functions)
            for function, first, lines in functions:
                if (path, first) not in reached:
                    unreached += 1
                    size += lines
                    print(f"{lines:5d}  {os.path.relpath(path)}:{first}  {function}")
    print(f"{count} outermost functions, {unreached} unreached ({size} lines)")


if __name__ == "__main__":
    main(*sys.argv[1:])

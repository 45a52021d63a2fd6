"""Diff-scoped mutation check: mutate the src/ lines that `git diff <rev>`
touches, and print each mutant that the tests do not kill.

    python tests/mutate.py --base origin/main

Four kinds of mutation, found with the standard ast and tokenize modules on
the touched lines only: comparison swaps (< <=, > >=, == !=, in / not in,
is / is not), arithmetic swaps (+ -, * //, % //, << >>, & |), and / or, and
the integer constants 0, 1 and 2 (each moved by one).  Each mutant is
written into a copy of the checkout, one at a time.  The module's own test
file, tests/test_<module>.py, runs first; a mutant that survives it, or
whose module has no test file, runs the whole tier-1 suite.  A run that
exceeds three times the unmutated run's time, plus 30 s, counts as killed,
since some mutants never terminate.  EQUIVALENT lists the mutants that no
test can kill, which are skipped.

Each survivor is printed as file:line with its mutation.  The exit code is
1 if any mutant survives, 2 if the unmutated tests fail, else 0.  pytest
does not collect this file, whose name does not start with test_.
"""

import argparse
import ast
import bisect
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

COMPARE = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
           "in": "not in", "not in": "in", "is": "is not", "is not": "is"}
ARITHMETIC = {"+": "-", "-": "+", "*": "//", "//": "*", "/": "*", "%": "//", "**": "*",
              "<<": ">>", ">>": "<<", "&": "|", "|": "&", "^": "&"}
BOOLEAN = {"and": "or", "or": "and"}
CONSTANTS = {0: (1,), 1: (0, 2), 2: (1, 3)}

# (file, text on the line, replacement): mutants that no test can kill
EQUIVALENT = {
    # the first nonzero entry of a coordinate vector is never 0
    ("src/quandlehom/pseudocycles.py", "next(filter(None, vec)) > 0", ">="),
    # a cell index is folded only where y != last
    ("src/quandlehom/chains.py", "y - (y > last)", ">="),
}


def touched_lines(base):
    """{path: set of line numbers} of the .py files under src/ that the
    working tree changes against base, in the new text."""
    diff = subprocess.run(
        ["git", "diff", "--unified=0", base, "--", "src"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    touched, path = {}, None
    for line in diff.splitlines():
        if line.startswith("+++ "):
            name = line[4:].removeprefix("b/")
            path = name if name.endswith(".py") and name != "/dev/null" else None
        elif path and (hunk := re.match(r"@@ -\S+ \+(\d+)(?:,(\d+))? @@", line)):
            start, count = int(hunk[1]), int(hunk[2] or 1)
            touched.setdefault(path, set()).update(range(start, start + count))
    return touched


def mutants(source, lines):
    """(line, start, end, old, new) for each mutation on the given lines;
    start and end are (line, column) positions in characters."""
    tree = ast.parse(source)
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type in (tokenize.OP, tokenize.NAME) and t.string not in "()"]
    starts = [t.start for t in tokens]
    text = source.splitlines()

    def char(lineno, offset):  # ast offsets count UTF-8 bytes
        return lineno, len(text[lineno - 1].encode()[:offset].decode())

    def end(node):
        return char(node.end_lineno, node.end_col_offset)

    def start(node):
        return char(node.lineno, node.col_offset)

    def swap(left, right, table, suffix=""):
        # the operator tokens between the operands, brackets and comments aside
        after, before = end(left), start(right)
        words = tokens[bisect.bisect_left(starts, after):bisect.bisect_left(starts, before)]
        op = " ".join(t.string for t in words)
        old = op.removesuffix(suffix)
        if old in table and words[0].start[0] in lines:
            found.append((words[0].start[0], words[0].start, words[-1].end, op,
                          table[old] + suffix))

    in_fstring = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr)
                  for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if id(node) in in_fstring:
            continue
        if isinstance(node, ast.Compare):
            for left, right in zip([node.left, *node.comparators], node.comparators):
                swap(left, right, COMPARE)
        elif isinstance(node, ast.BinOp):
            swap(node.left, node.right, ARITHMETIC)
        elif isinstance(node, ast.AugAssign):
            swap(node.target, node.value, ARITHMETIC, "=")
        elif isinstance(node, ast.BoolOp):
            for left, right in zip(node.values, node.values[1:]):
                swap(left, right, BOOLEAN)
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and node.value in CONSTANTS and node.lineno in lines):
            found.extend((node.lineno, start(node), end(node), str(node.value), str(new))
                         for new in CONSTANTS[node.value])
    return sorted(set(found))


def apply(source, start, end, new):
    text = source.splitlines(keepends=True)
    offset = [0]
    for line in text:
        offset.append(offset[-1] + len(line))
    a, b = offset[start[0] - 1] + start[1], offset[end[0] - 1] + end[1]
    return source[:a] + new + source[b:]


def run_tests(copy, target, timeout):
    """(passed, seconds); a run over the timeout counts as failed."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    began = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", target],
            cwd=copy, env=env, capture_output=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return False, timeout
    return done.returncode == 0, time.monotonic() - began


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the revision to diff against")
    args = parser.parse_args(argv)
    touched = touched_lines(args.base)
    listed = subprocess.run(["git", "ls-files", "-co", "--exclude-standard"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.split("\n")
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp)
        for name in filter(None, listed):
            if (ROOT / name).is_file():
                (copy / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, copy / name)
        # each file's tests, unmutated: they must pass, and their time sets the timeout
        targets = {}
        for path in touched:
            own = f"tests/test_{Path(path).stem}.py"
            targets[path] = [own, "tests"] if (ROOT / own).is_file() else ["tests"]
        timeout = {}
        for target in sorted({t for ts in targets.values() for t in ts}):
            passed, seconds = run_tests(copy, target, None)
            if not passed:
                print(f"the unmutated tests fail: {target}")
                return 2
            timeout[target] = 3 * seconds + 30

        counts = dict.fromkeys(["made", "killed", "equivalent", "survived"], 0)
        for path, lines in sorted(touched.items()):
            source = (ROOT / path).read_text()
            for line, start, end, old, new in mutants(source, lines):
                counts["made"] += 1
                if any(p == path and frag in source.splitlines()[line - 1] and r == new
                       for p, frag, r in EQUIVALENT):
                    counts["equivalent"] += 1
                    continue
                (copy / path).write_text(apply(source, start, end, new))
                try:
                    alive = all(run_tests(copy, t, timeout[t])[0] for t in targets[path])
                finally:
                    (copy / path).write_text(source)
                if alive:
                    counts["survived"] += 1
                    print(f"{path}:{line}: {old} -> {new}", flush=True)
                else:
                    counts["killed"] += 1
    print(", ".join(f"{n} {k}" for k, n in counts.items()))
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())

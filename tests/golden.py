"""Every pinned CLI output is an entry of golden.json: an argv, its input and
what the run must give (exit code, stdout and stderr sha256, and for a
pseudo-cycle report its count, witness and distinct count).  "{input}" in
the argv is the input's path: a bundled data file, an inline dataset or
chain, or a seeded paired R3 dataset from bench/inputs.py.
tests/test_cli.py runs the entries not marked "slow" in-process;
`python tests/golden.py` runs every entry through `python -m quandlehom`,
300 s each at most, prints each one's time, checks that bench/gate.py pins
the same verify-paper stdout, and exits 1 naming each entry that differs.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 300
# pinned field -> its key in a pseudo-cycle report's "results"
RESULTS = {"count": "max_disjoint_count", "witness": "witness_packing", "distinct_count": "distinct_count"}
FIELDS = {"argv", "input", "slow", "exit", "stdout_sha256", "stderr_sha256", *RESULTS}


def load():
    return json.loads(Path(__file__).with_name("golden.json").read_text())


def argv(entry, directory):
    """The entry's argv, with its input written under `directory` unless bundled."""
    source = entry.get("input", {})
    path = Path(directory, "input.json")
    if "bundled" in source:
        path = ROOT / "src" / "quandlehom" / "data" / source["bundled"]
    elif inline := source.get("dataset") or source.get("chain"):
        path.write_text(json.dumps(inline))
    elif "paired_points" in source:
        import inputs  # from bench/, which main puts on sys.path
        seed, k = source["paired_points"]
        path.write_text(json.dumps(inputs.r3_dataset(inputs.paired_points(random.Random(seed), k))))
    return [str(path) if arg == "{input}" else arg for arg in entry["argv"]]


def compare(entry, code, out, err):
    """One line per value that `entry` pins and the run (exit code, stdout and
    stderr bytes) does not give, and per field of `entry` that pins nothing."""
    got = {"exit": code, "stdout_sha256": hashlib.sha256(out).hexdigest(),
           "stderr_sha256": hashlib.sha256(err).hexdigest()}
    if RESULTS.keys() & entry.keys():
        try:
            results = json.loads(out)["results"]
        except (ValueError, KeyError):
            results = {}
        got.update((field, results.get(key)) for field, key in RESULTS.items())
    return [f"{field}: got {got[field]!r}, want {entry[field]!r}"
            for field in got if field in entry and got[field] != entry[field]] + [
        f"{field}: not a pinned field" for field in sorted(entry.keys() - FIELDS)]


def run(entry, directory):
    """Exit code, stdout and stderr of `python -m quandlehom` on the entry."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "quandlehom", *argv(entry, directory)], capture_output=True,
        timeout=TIMEOUT, env={**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    return done.returncode, done.stdout, done.stderr


def main():
    sys.path.append(str(ROOT / "bench"))
    import gate
    table = load()
    differs = []
    if gate.CLI_SHA256 != table["verify-paper"]["stdout_sha256"]:
        differs.append("bench/gate.py CLI_SHA256")
    for name, entry in table.items():
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as directory:
            try:
                problems = compare(entry, *run(entry, directory))
            except subprocess.TimeoutExpired:
                problems = [f"timed out after {TIMEOUT} s"]
        print(f"{name}: {time.perf_counter() - start:.2f} s", *problems, sep="\n  ", flush=True)
        if problems:
            differs.append(name)
    print("differs:", ", ".join(differs) or "none")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())

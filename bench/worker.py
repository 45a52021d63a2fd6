"""One sample of one workload, in a fresh interpreter.

Reads a JSON request on stdin: {"workload", "inputs", "setup_only",
"recheck", "trace"}. Imports quandlehom and builds the inputs (timed as
setup_s), runs the job list (timed as wall_s, with speed.py's compute probe
sampled throughout) and prints one JSON line with both times, the probe
times and every operation's answer. With "trace" set to a file path it
first installs the span wrappers from tracing.py, writes the spans to that
path and adds the per-layer numbers.
"""

import contextlib
import json
import sys
import time

import speed


def build_quandle(qh, spec):
    if spec["kind"] == "dihedral":
        return qh.Quandle.dihedral(spec["order"])
    return qh.Quandle.from_table(spec["table"])


def chain(qh, degree, terms):
    return qh.Chain(degree, [(tuple(t), c) for t, c in terms])


# Each workload is (setup, jobs): setup(qh, inputs) builds the state that
# set-up time covers; jobs(qh, inputs, state) yields (op name, thunk).


def homology_setup(qh, inputs):
    quandles = {name: build_quandle(qh, spec) for name, spec in inputs["quandles"].items()}
    queries = [chain(qh, 3, q["terms"]) for q in inputs["queries"]]
    return quandles, queries


def homology_jobs(qh, inputs, state):
    quandles, queries = state

    def group(quandle, degree):
        g = qh.homology_group(quandle, degree)
        return [g.free_rank, list(g.torsion)]

    for name, degree in inputs["ladder"]:
        yield f"{name}:{degree}", lambda q=quandles[name], d=degree: group(q, d)
    for i, z in enumerate(queries):
        yield f"query{i}", lambda z=z: qh.is_null_homologous(z, quandles["R5"])


def search_setup(qh, inputs):
    return {name: qh.dataset_from_json(doc) for name, doc in inputs["datasets"].items()}


def search_jobs(qh, inputs, datasets):
    for name, ds in datasets.items():
        yield name, lambda ds=ds: qh.pseudo_cycle_report(ds).to_json_dict()


def cocycle_setup(qh, inputs):
    return {
        p: (qh.Quandle.dihedral(p), [chain(qh, 4, terms) for terms in inputs["chains"][str(p)]])
        for p in inputs["primes"]
    }


def cocycle_jobs(qh, inputs, state):
    for p, (quandle, chains) in state.items():
        thetas = []

        def theta(p=p):
            thetas.append(qh.mochizuki_theta_p(p))
            return thetas[-1]

        def pairing(c, quandle=quandle):
            bd = qh.boundary_quandle(c, quandle)
            return {"boundary": [[list(t), v] for t, v in bd.items()], "value": qh.pair(thetas[-1], bd)}

        yield f"theta{p}", theta
        for i, c in enumerate(chains):
            yield f"pair{p}.{i}", lambda c=c: pairing(c)


def cli_setup(qh, inputs):
    import quandlehom.cli  # noqa: F401  (the import is the set-up)


def cli_jobs(qh, inputs, state):
    import hashlib
    import io

    def verify_paper():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sys.modules["quandlehom.cli"].main(["verify-paper"])
        return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}

    yield "verify-paper", verify_paper


WORKLOADS = {
    "cli-paper": (cli_setup, cli_jobs),
    "homology-ladder": (homology_setup, homology_jobs),
    "search-r3": (search_setup, search_jobs),
    "cocycle-ladder": (cocycle_setup, cocycle_jobs),
}


def answer_json(name, answer):
    """Answers that are not JSON-able as they stand, in a checkable form."""
    if name.startswith("theta"):
        import hashlib

        return hashlib.sha256(json.dumps(answer.table()).encode()).hexdigest()
    return answer


def recheck(qh, inputs, datasets, ops):
    """Re-check each report with is_pseudo_cycle: every listed subset, and a
    seeded sample of unlisted ones. Not timed."""
    import random

    for op in ops:
        if op["error"] is not None:
            continue
        ds = datasets[op["op"]]
        ids = ds.sorted_ids()
        listed = {tuple(s) for s in op["answer"]["pseudo_cycles"]}
        rng = random.Random(f"{inputs['recheck_seed']}:{op['op']}")
        unlisted = set()
        for _ in range(64):
            mask = rng.randrange(1, 1 << len(ids))
            subset = tuple(pid for i, pid in enumerate(ids) if mask >> i & 1)
            if subset not in listed:
                unlisted.add(subset)
        op["recheck_mismatches"] = sum(not qh.is_pseudo_cycle(s, ds) for s in listed) + sum(
            qh.is_pseudo_cycle(s, ds) for s in unlisted
        )


def main():
    request = json.load(sys.stdin)
    workload = request["workload"]
    inputs = request["inputs"]
    setup, jobs = WORKLOADS[workload]

    t0 = time.perf_counter()
    import quandlehom as qh

    tracer = None
    if request.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    state = setup(qh, inputs)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "package": qh.__file__}
    if request.get("setup_only"):
        print(json.dumps(result))
        return

    ops = []
    sampler = speed.Sampler()  # not run when traced: its probes would pollute self times
    with contextlib.nullcontext() if tracer else sampler:
        t_wall = time.perf_counter()
        for name, thunk in jobs(qh, inputs, state):
            t = time.perf_counter()
            try:
                answer, error = thunk(), None
            except Exception as exc:  # a failed operation is a result, not a crash
                answer, error = None, f"{type(exc).__name__}: {str(exc)[:200]}"
            ops.append({"op": name, "elapsed_s": time.perf_counter() - t, "answer": answer, "error": error})
        result["wall_s"] = time.perf_counter() - t_wall
    result["speed_probes"] = sampler.times

    for op in ops:
        op["answer"] = answer_json(op["op"], op["answer"])
    if request.get("recheck"):
        recheck(qh, inputs, state, ops)
    result["ops"] = ops
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer)
        result["max_shape"] = tracer.max_shape
        tracer.write(request["trace"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()

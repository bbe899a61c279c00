#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Run from the root of a source checkout. Makes one small corpus, checks
that the oracle and the property checks of run.py accept the program's
report, then feeds them damaged copies of it (one keep bit flipped, one
linkage dropped, one linkage added, one linkage to a pruned element) and
exits 1 unless every damaged copy is rejected.
"""

import copy
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def damaged_reports(report):
    """Yields (description, damaged copy) pairs."""
    elements = report["elements"]
    linked = {n for link in report["linkages"] for n in (link["a"], link["b"])}

    flipped = copy.deepcopy(report)
    target = next(e for e in flipped["elements"] if not e["linkable"])
    target["linkable"] = True
    flipped["num_kept"] += 1
    flipped["num_pruned"] -= 1
    yield f"keep bit of {target['name']} flipped", flipped

    dropped = copy.deepcopy(report)
    gone = dropped["linkages"].pop(0)
    yield f"linkage {gone['a']} <-> {gone['b']} dropped", dropped

    existing = {(link["a"], link["b"]) for link in report["linkages"]}
    kept = [e for e in elements if e["linkable"] and e["kind"] == "attribute"]
    added = copy.deepcopy(report)
    pair = next((a["name"], b["name"]) for a in kept for b in kept
                if a["name"].split(".")[0] < b["name"].split(".")[0]
                and (a["name"], b["name"]) not in existing
                and (b["name"], a["name"]) not in existing)
    added["linkages"].append({"a": pair[0], "b": pair[1]})
    yield f"linkage {pair[0]} <-> {pair[1]} added", added

    to_pruned = copy.deepcopy(report)
    pruned = next(e for e in elements if not e["linkable"]
                  and e["name"] not in linked)
    partner = next(e for e in elements if e["linkable"]
                   and e["kind"] == pruned["kind"]
                   and e["name"].split(".")[0] != pruned["name"].split(".")[0])
    to_pruned["linkages"].append({"a": partner["name"], "b": pruned["name"]})
    yield f"linkage to pruned {pruned['name']} added", to_pruned


def main():
    try:
        run.ensure_built()
    except run.BenchError as e:
        run.log(str(e))
        return 1
    workdir = os.path.join(run.BUILD_ROOT, "selftest")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        ddl = run.gen_corpus(os.path.join(workdir, "corpus"), 8, 5)
        out = os.path.join(workdir, "report.json")
        _, code, _ = run.run_op([run.CLI, "match", "--json"] + run.ddl_flags(ddl),
                                out, os.path.join(workdir, "stderr.log"))
        if code != 0:
            run.log(f"colscope match exited {code}")
            return 1
        report = run.load_report(out)
        failures = 0
        problems = run.check_report(report, ddl, workdir)
        print(f"{'PASS' if not problems else 'FAIL'}: intact report accepted "
              f"{problems}")
        failures += bool(problems)
        for what, damaged in damaged_reports(report):
            found = (run.property_problems(damaged),
                     run.oracle_problems(damaged, ddl, workdir))
            rejected = any(found)
            print(f"{'PASS' if rejected else 'FAIL'}: {what}: properties "
                  f"{found[0][:1]}, oracle {found[1][:1]}")
            failures += not rejected
        return 1 if failures else 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

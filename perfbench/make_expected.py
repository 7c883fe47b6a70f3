"""Write `expected.json`: the verdict of every benchmark instance and the
SHA-256 of each workload's certificate bytes, as the code produces them.

    python3 perfbench/make_expected.py

Run it only when a change is meant to alter verdicts or certificate bytes,
and say so in the change.  The roots-of-unity verdicts come from the
brute-force oracle `criteria.roots_of_unity_bruteforce`, not from the
predicate under test.
"""

import json
import sys

import worker  # puts the package source on sys.path
import workloads
from pscert import criteria


def main() -> int:
    out = {"reference_env": worker.environment(), "a1": {}, "mod_p": {},
           "membership": {}, "triples_nonempty_trivial": [],
           "roots_of_unity_holds": [], "cert_sha256": {}}
    for name in workloads.WORKLOADS:
        res = workloads.run_pass(name, workloads.make_inputs(name, 0))
        workloads.collect(res)
        out["cert_sha256"][name] = workloads.cert_sha256(res)
        for key, seen in workloads.observe(res).items():
            if key.startswith("a1-"):
                out["a1"][key[3:]] = seen[:3]
            elif key.startswith("mod-p-"):
                out["mod_p"][key[6:]] = seen[0]
            elif key.startswith("triple-") and seen[0] == "nonempty-trivial":
                out["triples_nonempty_trivial"].append(
                    [int(x) for x in key[7:].split("-")])
            elif isinstance(seen, bool):
                out["membership"][key] = seen
    out["triples_nonempty_trivial"].sort()
    if len(out["triples_nonempty_trivial"]) != 240:
        raise SystemExit("expected 240 of the 575 triples nonempty-trivial")
    for name, args in workloads.criteria_calls():
        if name == "roots_of_unity_case" and \
                criteria.roots_of_unity_bruteforce(*args):
            out["roots_of_unity_holds"].append(list(args))
    workloads.EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True)
                                  + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Recompute perfbench/digests.json: the digest of every operation's output
for every input set of the default seed.  Run it only at a commit whose
outputs are trusted, since later runs of that seed fail any operation whose
output differs from these digests.

    python3 perfbench/freeze.py
"""

import json

import run


def main() -> None:
    run.import_library()
    import workloads

    frozen = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for workload in workloads.WORKLOADS.values():
        digests = []
        for inp in workload.make_inputs(workloads.DEFAULT_SEED):
            ops = run.ops_runner(workload)(inp)
            bad = [o.detail for _, o in ops if o.outcome == workloads.FAILED]
            if bad:
                raise SystemExit(f"{workload.name}: refusing to freeze failed outputs: {bad}")
            digests.append([o.digest for _, o in ops])
        frozen["workloads"][workload.name] = digests
        print(f"froze {workload.name}: {len(digests)} input sets")
    (run.BENCH / "digests.json").write_text(json.dumps(frozen, indent=1) + "\n")


if __name__ == "__main__":
    main()

"""Every benchmark figure of every workload, from one command.

    python3 perfbench/report.py [--seed 20251221]

For each workload this runs run.py three times in fresh processes, all
on the same seed: an untraced run and two traced runs.  It prints the
end-to-end figures under their own names and units, the per-layer
figures and the tracing overhead, and checks that

- every run passed its output checks (failed_frac is 0),
- the traced operations' output digests equal those of the untraced
  run's operations on the same input keys, so the wrappers cannot have
  perturbed the program,
- the warm-up digests are the same in all three processes, and
- the exact counts (spans.EXACT_COUNTS) take one value within each
  traced run and the same value in both.

Exits 1 when any of these fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("release-rows", "release-ranges", "plan-certify",
             "small-releases")


def _run(workload, seed, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--trace", str(trace)]
    done = subprocess.run(command, cwd=os.path.dirname(HERE),
                          capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:"
                           f"\n{done.stderr}")
    info = next(json.loads(line[len("# info "):]) for line in lines
                if line.startswith("# info "))
    problems = [line for line in lines if line.startswith("# problem")]
    return json.loads(lines[-1]), info, problems


def _show(name, entry):
    print(f"  {name:44s} {entry['value']:>16.6g} {entry['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=20251221)
    seed = parser.parse_args(argv).seed
    ok = True
    for workload in WORKLOADS:
        plain, plain_info, problems = _run(workload, seed, 0)
        traced, traced_info, traced_problems = _run(workload, seed, 1)
        again, again_info, again_problems = _run(workload, seed, 1)
        env = plain_info["environment"]
        print(f"== {workload}  seed {seed}  python {env['python']}  "
              f"numpy {env['numpy']}  blas {env['blas']['name']} x "
              f"{env['blas']['threads']}  nproc {env['nproc']}  "
              f"load {plain_info['loadavg_start']} -> "
              f"{plain_info['loadavg_end']}")
        print("end to end (untraced):")
        for name, entry in sorted(plain_info["named"].items()):
            _show(name, entry)
        _show("failed_frac", {"value": plain_info["failed_frac"],
                              "unit": "frac"})
        tail = plain_info["tail_s"]
        print(f"  samples {plain_info['samples']}, tail "
              + (f"p{tail['percentile']:g} = {tail['value']:.6g} s"
                 if tail else "none (fewer than 20 samples)"))
        print("per layer (traced, per operation):")
        for name, entry in traced["metrics"].items():
            _show(name, entry)
        untraced_ops = plain_info["op_digests"]
        pairs = [(untraced_ops[key], info["op_digests"][key])
                 for info in (traced_info, again_info)
                 for key in info["op_digests"] if key in untraced_ops]
        same_ops = bool(pairs) and all(a == b for a, b in pairs)
        same_warmup = (plain_info["digests"] == traced_info["digests"]
                       == again_info["digests"])
        counts = traced_info["exact_counts"]
        steady = (counts == again_info["exact_counts"]
                  and all(len(values) == 1 for values in counts.values()))
        passed = all(run["correct"] for run in (plain, traced, again))
        print(f"  output checks passed: {passed}")
        print(f"  traced outputs == untraced ({len(pairs)} operations "
              f"compared): {same_ops}")
        print(f"  warm-up digests equal in all three processes: "
              f"{same_warmup}")
        print(f"  exact counts repeat (two traced runs, seed {seed}): "
              f"{steady} {json.dumps(counts, sort_keys=True)}")
        for line in (problems + traced_problems + again_problems)[:10]:
            print("  " + line)
        ok = ok and passed and same_ops and same_warmup and steady
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

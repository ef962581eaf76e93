#!/usr/bin/env python3
"""Build and run the ctb-gemm benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke       # every workload in seconds
    python3 perfbench/run.py --selftest    # determinism + catalogue checks

Builds the `ctb-perfbench` package (its own Cargo workspace, next to
this file) from source into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs it with the given arguments. Build output
goes to stderr; the last line of stdout is the benchmark's JSON result.
Exits non-zero, printing no result, when the build or the run fails.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def target_dir() -> Path:
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(target: Path) -> Path:
    cmd = ["cargo", "build", "--offline", "--release", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"error: building the benchmark failed ({done.returncode})")
    return target / "release" / "ctb-perfbench"


def run(binary: Path, args: list, capture: bool = False) -> subprocess.CompletedProcess:
    """Run the benchmark binary to completion; a terminated wrapper takes
    its child down with it."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(binary.parent.parent))
    child = subprocess.Popen([str(binary), *args], cwd=ROOT, env=env,
                             stdout=subprocess.PIPE if capture else None, text=True)
    try:
        out, _ = child.communicate()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    return subprocess.CompletedProcess(child.args, child.returncode, out, None)


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check_catalogue(binary: Path) -> bool:
    """BENCHMARK.json must list exactly the metrics the binary reports."""
    listed = run(binary, ["--list-metrics"], capture=True)
    if listed.returncode != 0:
        return False
    have = {"end_to_end": set(), "per_layer": set()}
    for line in listed.stdout.splitlines():
        kind, name, unit = line.split()
        have[kind].add((name, unit))
    ok = True
    for kind in have:
        want = {(m["name"], m["unit"]) for m in spec()[kind]}
        if want != have[kind]:
            print(f"{kind}: BENCHMARK.json and the benchmark disagree on "
                  f"{sorted(want ^ have[kind])}")
            ok = False
    print(f"BENCHMARK.json lists the reported metrics: {ok}")
    return ok


def check_result(line: str, traced: bool) -> str:
    """The result line must carry exactly the metrics BENCHMARK.json
    names for the mode, with their units; returns what is wrong."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "the last line is not a JSON result"
    want = {m["name"]: m["unit"] for m in spec()["per_layer" if traced else "end_to_end"]}
    got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if got != want:
        return f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}"
    return ""


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    binary = build(target_dir())
    args = sys.argv[1:]
    if args == ["--selftest"]:
        ok = check_catalogue(binary)
        return 0 if run(binary, args).returncode == 0 and ok else 1
    if "--workload" not in args:
        return run(binary, args).returncode
    done = run(binary, args, capture=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        print(done.stdout or "", end="")
        return done.returncode or 1
    wrong = check_result(lines[-1], "--trace" in args and args[args.index("--trace") + 1] == "1")
    if wrong:
        print("\n".join(lines[:-1]))
        print(f"error: {wrong}", file=sys.stderr)
        return 1
    print(done.stdout, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())

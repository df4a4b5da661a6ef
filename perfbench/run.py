#!/usr/bin/env python3
"""Build the perfbench Go module from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload ycsb-a --seed 1 --seconds 30 --trace 0

The Go build cache, the binary and the trace files all live under
.bench_build/ in the checkout, so the benchmark writes nowhere else. The
build fails, and so does this script, unless the repository's sources sit
beside the perfbench directory.
"""
import os
import subprocess
import sys

here = os.path.dirname(os.path.abspath(__file__))
root = os.path.dirname(here)
build = os.path.join(root, ".bench_build")
binary = os.path.join(build, "perfbench", "perfbench")

tmp = os.path.join(build, "tmp")
os.makedirs(tmp, exist_ok=True)
env = dict(os.environ)
env.update(
    GOCACHE=os.path.join(build, "gocache"),
    GOPATH=os.path.join(build, "gopath"),
    XDG_CONFIG_HOME=os.path.join(build, "config"),
    GOTMPDIR=tmp,
    TMPDIR=tmp,
    PPROF_TMPDIR=tmp,
    GOFLAGS="-mod=mod",
    GOPROXY="off",
    GOTOOLCHAIN="local",
)
# Freed heap pages stay mapped (MADV_FREE) instead of going back to the
# kernel, so a cycle does not fault in again the pages the previous one
# released: under a VM's free-page reporting each such fault also costs the
# host a page, at a price that moves with the host's load.
env["GODEBUG"] = ",".join(filter(None, [env.get("GODEBUG"), "madvdontneed=0"]))

built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
if built.returncode != 0:
    sys.exit(built.returncode)
os.chdir(root)
os.execve(binary, [binary] + sys.argv[1:], env)
